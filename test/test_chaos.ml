(* The fault-injection harness turned on itself: swarm testing over
   seeded random fault schedules with the four delivery invariants
   checked after every run, plus targeted scenarios for the fault
   primitives (partitions, pause/resume, restart) and the recovery
   counters they exercise. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness
module T = Types

let body = Bytes.of_string

let check_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (T.error_to_string e)

let with_cluster n scenario =
  let cl = Cluster.create ~n () in
  let failure = ref None in
  Cluster.spawn cl (fun () -> try scenario cl with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  match !failure with Some e -> raise e | None -> ()

let build_auto_heal ?(resilience = 0) cl n =
  let creator =
    Api.create_group (Cluster.flip cl 0) ~resilience ~auto_heal:true ()
  in
  let addr = Api.group_address creator in
  creator
  :: List.init (n - 1) (fun i ->
         check_ok "join"
           (Api.join_group (Cluster.flip cl (i + 1)) ~resilience
              ~auto_heal:true addr))

let message_bodies g =
  let rec drain acc =
    match Api.receive_opt g with
    | None -> List.rev acc
    | Some (T.Message { body; _ }) -> drain (Bytes.to_string body :: acc)
    | Some _ -> drain acc
  in
  drain []

let saw_expelled g =
  let rec drain () =
    match Api.receive_opt g with
    | None -> false
    | Some T.Expelled -> true
    | Some _ -> drain ()
  in
  drain ()

(* ----- the swarm: random schedules x workloads, shrunk on failure ----- *)

(* Every swarm case also draws the fabric the cluster runs on: the
   paper's shared wire, a flat full-duplex switch, or a two-segment
   switch whose 2x uplink is oversubscribed for groups of 3+ — so the
   same schedules and invariants cover queueing-loss fabrics too. *)
let fabrics =
  [
    Medium.Shared;
    Medium.Switched Switch.flat;
    Medium.Switched { Switch.segments = 2; segment_size = 3; uplink_mult = 2 };
  ]

let swarm_case =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      int_range 0 (n - 2) >>= fun r ->
      oneofl [ T.Pb; T.Bb ] >>= fun m ->
      oneofl fabrics >>= fun fabric ->
      int_range 0 99_999 >>= fun seed ->
      return (n, r, m, fabric, seed, Fault.random ~seed ~n ()))
  in
  let print (n, r, m, fabric, seed, sched) =
    Printf.sprintf
      "n=%d r=%d method=%s net=%s seed=%d (replay: amoeba chaos --seed %d -m \
       %d -r %d --method %s --net %s --schedule %S)"
      n r
      (match m with T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto")
      (Medium.spec_to_string fabric) seed seed n r
      (match m with T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto")
      (Medium.spec_to_string fabric)
      (Fault.to_string sched)
  in
  (* Shrink only the schedule: QCheck peels steps off until the
     smallest fault sequence that still breaks an invariant remains,
     and [print] renders it as a chaos-CLI replay line. *)
  let shrink (n, r, m, fabric, seed, sched) =
    QCheck.Iter.map
      (fun sched' -> (n, r, m, fabric, seed, sched'))
      (QCheck.Shrink.list sched)
  in
  QCheck.make ~print ~shrink gen

let prop_swarm_invariants =
  QCheck.Test.make ~name:"swarm: invariants hold under random fault schedules"
    ~count:120 swarm_case (fun (n, r, m, fabric, seed, sched) ->
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched ~fabric
           ~seed ()))

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"fault schedule survives to_string/of_string"
    ~count:100
    QCheck.(pair (int_range 0 99_999) (int_range 2 6))
    (fun (seed, n) ->
      let s = Fault.random ~seed ~n () in
      Fault.of_string (Fault.to_string s) = s)

(* Every malformed field is an [Invalid_argument] naming the bad
   token, never a bare [Failure] from a number parser. *)
let test_schedule_rejects_bad_input () =
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (text, token) ->
      match Fault.of_string text with
      | _ -> Alcotest.failf "%S was accepted" text
      | exception Invalid_argument msg ->
          if not (contains msg (Printf.sprintf "%S" token)) then
            Alcotest.failf "%S: %S does not name %S" text msg token)
    [
      ("100:crash x", "x");
      ("x:heal", "x");
      ("-1:heal", "-1");
      ("100:pause -2", "-2");
      ("100:part 0,a/1", "a");
      ("100:part 0,1", "0,1");
      ("100:oneway 0 y", "y");
      ("100:loss 1.5 1000", "1.5");
      ("100:loss 0.1 soon", "soon");
      ("100:burst 0.1 0.2 nan 1000", "nan");
      ("100:dup 0.1 1e3", "1e3");
      ("100:jitter 2.5 1000", "2.5");
      ("100:corrupt many 1000", "many");
      ("100:powercycle z", "z");
      ("100:frobnicate 3", "frobnicate");
      ("100:crash 1 2", "crash");
    ]

let test_schedule_machine_range () =
  let check text ok =
    Alcotest.(check bool) text ok
      (Result.is_ok (Fault.validate ~n:4 (Fault.of_string text)))
  in
  check "100:crash 3; 200:part 0,1/2,3; 300:oneway 3 0" true;
  check "100:crash 9" false;
  check "100:restart 4" false;
  check "100:part 0,1/2,4" false;
  check "100:oneway 0 4" false;
  match
    Chaos.run ~n:4 ~schedule:(Fault.of_string "100:crash 9") ~seed:1 ()
  with
  | _ -> Alcotest.fail "Chaos.run accepted machine 9 of 4"
  | exception Invalid_argument _ -> ()

(* ----- adversarial link conditions -----

   Directed runs pin each receive-path hardening through the counters
   it exposes: the invariants must hold AND the adversary must really
   have fired AND the kernel must report absorbing it.  A second swarm
   then runs random fault schedules on top of persistently hostile
   link conditions. *)

let step at action = { Fault.at; action }

let test_duplication_absorbed () =
  let o =
    Chaos.run ~n:4 ~seed:11
      ~schedule:[ step (Time.ms 100) (Fault.Duplicate (1.0, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "wire duplicated frames" true (o.Chaos.dups_injected > 0);
  Alcotest.(check bool) "kernels dropped duplicates" true
    (o.Chaos.duplicates_dropped > 0)

let test_reordering_absorbed () =
  let o =
    Chaos.run ~n:4 ~seed:12
      ~schedule:[ step (Time.ms 100) (Fault.Jitter (Time.ms 30, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "kernels absorbed reorderings" true
    (o.Chaos.reorders_absorbed > 0)

let test_corruption_caught_by_checksums () =
  let o =
    Chaos.run ~n:4 ~seed:13
      ~schedule:[ step (Time.ms 100) (Fault.Corrupt (0.05, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "corruptions were injected" true
    (o.Chaos.corruptions_injected > 0);
  Alcotest.(check bool) "every one was checksum-rejected somewhere" true
    (o.Chaos.corrupt_dropped + o.Chaos.flip_checksum_drops > 0)

let test_oneway_cut_survived () =
  let o =
    Chaos.run ~n:4 ~seed:14
      ~schedule:
        [ step (Time.ms 200) (Fault.Oneway (0, 2)); step (Time.ms 900) Fault.Heal ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "the cut suppressed deliveries" true
    (o.Chaos.oneway_drops > 0)

let test_loss_burst_repaired () =
  let o =
    Chaos.run ~n:4 ~seed:15
      ~schedule:
        [ step (Time.ms 100) (Fault.Burst (0.05, 0.3, 0.9, Time.ms 1_200)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "the burst lost frames" true (o.Chaos.cond_losses > 0);
  Alcotest.(check bool) "nacks repaired the gaps" true (o.Chaos.nacks > 0)

(* Every send declares three ops, so the summed kernel counters give
   exactly three ops per batched send. *)
let test_batched_run_counts_ops_per_batch () =
  let o = Chaos.run ~n:4 ~seed:16 ~schedule:[] ~pipeline:4 ~ops_per_send:3 () in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "batched sends counted" true (o.Chaos.batches_sent > 0);
  Alcotest.(check (float 0.)) "ops per batch" 3.0 o.Chaos.ops_per_batch_avg

(* Two bursts of one kind that overlap staggered (the second starts
   inside the first and outlives it) must not leave the first burst's
   value installed.  While bursts overlap the newest sets the value;
   after the last ends, the pre-burst value returns; nested bursts
   restore the outer value when the inner ends. *)
let test_overlapping_bursts_restore () =
  let ms = Time.ms in
  let cl = Cluster.create ~n:2 () in
  let lf = Medium.faults cl.Cluster.net in
  Link_faults.set_loss_rate lf 0.05;
  let stagger a b = [ step (ms 100) a; step (ms 300) b ] in
  Fault.apply cl
    (stagger (Fault.Loss_burst (0.1, ms 300)) (Fault.Loss_burst (0.2, ms 500))
    @ stagger (Fault.Duplicate (0.1, ms 300)) (Fault.Duplicate (0.2, ms 500))
    @ stagger (Fault.Jitter (1000, ms 300)) (Fault.Jitter (2000, ms 500))
    @ stagger (Fault.Corrupt (0.1, ms 300)) (Fault.Corrupt (0.2, ms 500))
    @ stagger
        (Fault.Burst (0.1, 0.5, 0.5, ms 300))
        (Fault.Burst (0.2, 0.5, 0.5, ms 500))
    (* nested: the outer value comes back when the inner ends *)
    @ [
        step (ms 1000) (Fault.Loss_burst (0.3, ms 600));
        step (ms 1100) (Fault.Loss_burst (0.4, ms 200));
      ]);
  let expect label loss dup jitter =
    Alcotest.(check (float 0.)) (label ^ ": loss") loss (Link_faults.loss_rate lf);
    let c = Link_faults.conditions lf in
    Alcotest.(check (float 0.)) (label ^ ": dup") dup c.Link_faults.dup_prob;
    Alcotest.(check int) (label ^ ": jitter") jitter c.Link_faults.jitter_ns
  in
  Cluster.run ~until:(ms 350) cl;
  expect "both active" 0.2 0.2 2000;
  Cluster.run ~until:(ms 500) cl;
  expect "first ended, second active" 0.2 0.2 2000;
  Cluster.run ~until:(ms 900) cl;
  expect "both ended" 0.05 0. 0;
  Alcotest.(check bool) "conditions clean again" true
    (Link_faults.conditions lf = Link_faults.clean);
  Cluster.run ~until:(ms 1400) cl;
  expect "inner nested ended" 0.3 0. 0;
  Cluster.run ~until:(ms 2000) cl;
  expect "outer nested ended" 0.05 0. 0

(* Persistent moderately-hostile conditions on every link for the
   whole active phase, under the same random schedules as the main
   swarm. *)
let adversarial_net = List.assoc "adversarial" Medium.condition_profiles

let prop_adversarial_swarm =
  QCheck.Test.make
    ~name:"swarm: invariants hold on a hostile net under random schedules"
    ~count:120 swarm_case (fun (n, r, m, fabric, seed, sched) ->
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched
           ~net:adversarial_net ~fabric ~seed ()))

(* The same hostile net and random schedules with batching and
   pipelining on: every send is declared as a 3-op batch to the
   kernel's accounting and each kernel keeps up to 4 sequencer rounds
   in flight — total order, agreement, no-dup/no-skip and durability
   must not care. *)
let prop_batched_adversarial_swarm =
  QCheck.Test.make
    ~name:"swarm: batching + pipelining hold invariants on a hostile net"
    ~count:120 swarm_case (fun (n, r, m, fabric, seed, sched) ->
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched
           ~net:adversarial_net ~fabric ~pipeline:4 ~ops_per_send:3 ~seed ()))

(* The power-loss swarm: random schedules that additionally yank the
   power on the whole cluster once mid-run, with every member logging
   deliveries to an SSD-modelled stable store.  Half the cases run on
   the hostile net.  The classic invariants are checked per epoch and
   the durability-across-restart invariant (I5) bridges the cut:
   recovered logs must be exact prefixes, acknowledged writes inside
   the durable frontier must be on some disk, and nothing recovered
   may be delivered twice. *)
let power_swarm_case =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      int_range 0 (n - 2) >>= fun r ->
      oneofl [ T.Pb; T.Bb ] >>= fun m ->
      oneofl fabrics >>= fun fabric ->
      int_range 0 99_999 >>= fun seed ->
      bool >>= fun hostile ->
      return
        (n, r, m, fabric, seed, hostile,
         Fault.random ~seed ~n ~power_cycles:true ()))
  in
  let print (n, r, m, fabric, seed, hostile, sched) =
    Printf.sprintf
      "n=%d r=%d method=%s seed=%d net=%s+%s (replay: amoeba chaos --seed %d \
       -m %d -r %d --method %s --disk ssd --net %s%s --schedule %S)"
      n r
      (match m with T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto")
      seed
      (Medium.spec_to_string fabric)
      (if hostile then "adversarial" else "clean")
      seed n r
      (match m with T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto")
      (Medium.spec_to_string fabric)
      (if hostile then "+adversarial" else "")
      (Fault.to_string sched)
  in
  let shrink (n, r, m, fabric, seed, hostile, sched) =
    QCheck.Iter.map
      (fun sched' -> (n, r, m, fabric, seed, hostile, sched'))
      (QCheck.Shrink.list sched)
  in
  QCheck.make ~print ~shrink gen

let prop_power_cycle_swarm =
  QCheck.Test.make
    ~name:"swarm: durability survives whole-cluster power loss"
    ~count:120 power_swarm_case (fun (n, r, m, fabric, seed, hostile, sched) ->
      (* the shrinker may peel the Power_cycle_all step off; the run is
         then an ordinary durable run, still a valid case *)
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched
           ~net:(if hostile then adversarial_net else Medium.clean)
           ~fabric ~disk:Cost_model.ssd ~seed ()))

(* Regression (found by the fabric swarm, reproduces on the shared
   wire too): the r=0 sequencer pauses, the survivors reset without
   it, one of them then crashes, and the old sequencer resumes into a
   near-quiet group.  Nothing pings an r=0 sequencer, so it never
   learns of its expulsion — the checker must still scope total order
   per configuration and discount the ghost's discarded tail. *)
let test_ghost_sequencer_after_missed_reset () =
  let schedule =
    [
      step 501_075_970 (Fault.Pause 0);
      step 1_881_750_145 (Fault.Crash 2);
      step 1_887_605_124 (Fault.Resume 0);
    ]
  in
  List.iter
    (fun fabric ->
      let o =
        Chaos.run ~n:3 ~resilience:0 ~send_method:T.Bb ~schedule ~fabric
          ~seed:90615 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "invariants hold on %s" (Medium.spec_to_string fabric))
        true (Chaos.ok o);
      Alcotest.(check bool) "the group reset around the pause" true
        (o.Chaos.resets > 0))
    fabrics

let test_multigroup_invariants_per_group () =
  (* Three concurrent groups share the wire (sequencers on machines 0,
     1 and 2); machine 1 — one group's sequencer, a plain member of
     the others — crashes on a hostile net.  Every group must uphold
     its own invariants independently. *)
  let o =
    Chaos.run ~n:4 ~groups:3 ~resilience:1 ~seed:16
      ~schedule:[ step (Time.ms 400) (Fault.Crash 1) ]
      ~net:adversarial_net ()
  in
  Alcotest.(check bool) "per-group invariants hold" true (Chaos.ok o);
  Alcotest.(check int) "four verdicts per group" 12
    (List.length o.Chaos.verdicts);
  Alcotest.(check bool) "durability was in force" true o.Chaos.durability_checked

let prop_multigroup_deterministic =
  QCheck.Test.make ~name:"multi-group chaos replays bit-identically"
    ~count:6
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let a = Chaos.run ~groups:2 ~seed () and b = Chaos.run ~groups:2 ~seed () in
      a = b)

let prop_chaos_deterministic =
  QCheck.Test.make ~name:"chaos runs replay bit-identically from a seed"
    ~count:12
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let a = Chaos.run ~seed () and b = Chaos.run ~seed () in
      a = b)

(* ----- live but slow: the expulsion case the paper warns about ----- *)

let test_paused_sequencer_expelled_and_rejoins () =
  with_cluster 4 (fun cl ->
      let groups = build_auto_heal cl 4 in
      let g0 = List.hd groups and g1 = List.nth groups 1 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "before")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* The sequencer's host stalls.  It is alive — the wire still
         fills its receive ring — but the failure detector cannot tell
         a slow machine from a dead one, so the members rebuild the
         group without it. *)
      Machine.pause (Cluster.machine cl 0);
      Engine.sleep cl.Cluster.engine (Time.sec 4);
      let info = Api.get_info_group g1 in
      Alcotest.(check bool)
        "survivors expelled the stalled sequencer" false
        (List.mem 0 info.Api.members);
      Alcotest.(check bool)
        "a recovery incarnation was installed" true
        ((Kernel.stats (Api.kernel g1)).Kernel.resets_survived > 0);
      (* It wakes up, drains its backlog, discovers the group moved on
         without it, and rejoins as a fresh member. *)
      Machine.resume (Cluster.machine cl 0);
      ignore (check_ok "post-reset send" (Api.send_to_group g1 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check bool) "paused member learned of expulsion" true
        (saw_expelled g0);
      let g0' =
        check_ok "rejoin after expulsion"
          (Api.join_group (Cluster.flip cl 0) ~auto_heal:true
             (Api.group_address g0))
      in
      ignore (check_ok "rejoined send" (Api.send_to_group g0' (body "back")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "survivor missed nothing" [ "before"; "after"; "back" ]
        (message_bodies g1))

let test_paused_member_catches_up () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      (* A stalled plain member is never probed, so it is not
         expelled; once it resumes, negative acknowledgements close
         the gap its nap left. *)
      Machine.pause (Cluster.machine cl 2);
      for k = 1 to 5 do
        ignore (check_ok "send" (Api.send_to_group g1 (body (string_of_int k))))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Machine.resume (Cluster.machine cl 2);
      ignore (check_ok "flush" (Api.send_to_group g1 (body "f")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "resumed member has the whole stream"
        [ "1"; "2"; "3"; "4"; "5"; "f" ]
        (message_bodies g2))

(* ----- resilience under frame loss ----- *)

let test_resilient_sends_under_loss () =
  with_cluster 4 (fun cl ->
      let groups = build_auto_heal ~resilience:2 cl 4 in
      let g1 = List.nth groups 1 in
      (* High enough to provoke nack/retransmission repair, low enough
         that no send exhausts its bounded retries (probe_retries
         attempts) under this seed — a send that loses every attempt
         legitimately errors with Sequencer_unreachable. *)
      Link_faults.set_loss_rate (Medium.faults cl.Cluster.net) 0.12;
      List.iteri
        (fun i g ->
          Cluster.spawn cl (fun () ->
              for k = 1 to 4 do
                ignore
                  (check_ok "lossy send"
                     (Api.send_to_group g (body (Printf.sprintf "o%d.%d" i k))))
              done))
        groups;
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      Link_faults.set_loss_rate (Medium.faults cl.Cluster.net) 0.;
      ignore (check_ok "flush" (Api.send_to_group g1 (body "flush")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      let streams = List.map message_bodies groups in
      let reference = List.hd streams in
      Alcotest.(check int) "every send delivered" 17 (List.length reference);
      List.iteri
        (fun i s ->
          Alcotest.(check (list string))
            (Printf.sprintf "member %d agrees" i)
            reference s)
        streams;
      (* The repair machinery did real work and counts it in each
         kernel's stats. *)
      let sum f =
        List.fold_left
          (fun acc g -> acc + f (Kernel.stats (Api.kernel g)))
          0 groups
      in
      let nacks = sum (fun st -> st.Kernel.nacks_sent)
      and retrans = sum (fun st -> st.Kernel.retransmissions) in
      Alcotest.(check bool) "loss provoked nacks" true (nacks > 0);
      Alcotest.(check bool) "nacks provoked retransmissions" true (retrans > 0))

(* ----- fault primitives ----- *)

let test_partition_blocks_then_heals () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups and g2 = List.nth groups 2 in
      Link_faults.partition (Medium.faults cl.Cluster.net) [ 2 ] [ 0; 1 ];
      ignore (check_ok "cut send" (Api.send_to_group g0 (body "cut")));
      Engine.sleep cl.Cluster.engine (Time.ms 200);
      Alcotest.(check (list string)) "isolated member saw nothing" []
        (message_bodies g2);
      Alcotest.(check bool) "drops were counted" true
        (Link_faults.partition_drops (Medium.faults cl.Cluster.net) > 0);
      Link_faults.heal (Medium.faults cl.Cluster.net);
      ignore (check_ok "healed send" (Api.send_to_group g0 (body "healed")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "gap repaired after heal" [ "cut"; "healed" ] (message_bodies g2))

let test_restarted_machine_rejoins_fresh () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups in
      ignore (check_ok "pre" (Api.send_to_group g0 (body "pre")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 2);
      ignore (check_ok "reset" (Api.reset_group g0 ~min_members:2));
      Cluster.restart cl 2;
      Alcotest.(check bool) "machine is back" true
        (Machine.is_alive (Cluster.machine cl 2));
      Alcotest.(check int) "one reboot" 1
        (Machine.restarts (Cluster.machine cl 2));
      let g2' =
        check_ok "rejoin on rebooted machine"
          (Api.join_group (Cluster.flip cl 2) ~auto_heal:true
             (Api.group_address g0))
      in
      ignore (check_ok "post" (Api.send_to_group g0 (body "post")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      (* Fresh state: the reboot joined a group whose history started
         after the crash — it must see post-restart traffic only. *)
      Alcotest.(check (list string))
        "rebooted member sees only new traffic" [ "post" ]
        (message_bodies g2'))

let test_crashed_machine_schedules_zero_events () =
  (* The zombie-kernel property itself, asserted through the engine's
     per-group accounting rather than protocol symptoms: after
     Machine.crash the machine's process group is dead and never runs
     another event, no matter how much the survivors do. *)
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups in
      ignore (check_ok "warm" (Api.send_to_group g0 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      let m2 = Cluster.machine cl 2 in
      let dead = Machine.group m2 in
      Machine.crash m2;
      let at_crash = Engine.group_events dead in
      Alcotest.(check bool) "group dead after crash" false
        (Engine.group_alive dead);
      (* Drive activity that would tickle a zombie: a recovery, fresh
         traffic, and several heartbeat periods. *)
      ignore (check_ok "reset" (Api.reset_group g0 ~min_members:2));
      for k = 1 to 5 do
        ignore (check_ok "post" (Api.send_to_group g0 (body (string_of_int k))))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 10);
      Alcotest.(check int) "crashed machine ran zero events" at_crash
        (Engine.group_events dead);
      (* A restart is a new group, not a resurrection of the old one. *)
      Cluster.restart cl 2;
      let fresh = Machine.group m2 in
      Alcotest.(check bool) "restart builds a fresh live group" true
        ((not (fresh == dead)) && Engine.group_alive fresh);
      Alcotest.(check bool) "old group stays dead" false
        (Engine.group_alive dead);
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Alcotest.(check int) "dead group still at zero after restart" at_crash
        (Engine.group_events dead))

(* ----- the checker detects what it claims to detect ----- *)

let msg ~seq ~sender b = T.Message { seq; sender; body = Bytes.of_string b }
let stream label events = { Checker.label; events; full = true }

let test_checker_catches_violations () =
  let ok v = v.Checker.ok in
  Alcotest.(check bool) "divergent order flagged" false
    (ok
       (Checker.total_order
          [
            stream "a" [ msg ~seq:1 ~sender:0 "x" ];
            stream "b" [ msg ~seq:1 ~sender:0 "y" ];
          ]));
  Alcotest.(check bool) "duplicate body flagged" false
    (ok
       (Checker.no_dup_no_skip
          [ stream "a" [ msg ~seq:1 ~sender:0 "x"; msg ~seq:2 ~sender:0 "x" ] ]));
  Alcotest.(check bool) "skipped seq flagged" false
    (ok
       (Checker.no_dup_no_skip
          [ stream "a" [ msg ~seq:1 ~sender:0 "x"; msg ~seq:3 ~sender:0 "y" ] ]));
  Alcotest.(check bool) "lost completed send flagged" false
    (ok
       (Checker.durability
          ~streams:[ stream "a" [ msg ~seq:1 ~sender:0 "o0.1" ] ]
          ~completed:[ (0, "o0.1"); (1, "o1.1") ]));
  Alcotest.(check bool) "incarnation regression flagged" false
    (ok
       (Checker.monotone_incarnations
          [
            stream "a"
              [
                T.Group_reset { seq = 5; incarnation = 9; members = [ 0 ] };
                T.Group_reset { seq = 9; incarnation = 7; members = [ 0 ] };
              ];
          ]));
  (* An expelled stream's divergent tail is not a violation. *)
  Alcotest.(check bool) "expelled stream excluded from agreement" true
    (ok
       (Checker.total_order
          [
            stream "a" [ msg ~seq:1 ~sender:0 "x" ];
            stream "b" [ msg ~seq:1 ~sender:0 "y"; T.Expelled ];
          ]))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let rand = Random.State.make [| 0xC4A05 |] in
  ( "chaos",
    [
      tc "paused sequencer expelled, rejoins"
        test_paused_sequencer_expelled_and_rejoins;
      tc "paused member catches up" test_paused_member_catches_up;
      tc "r=2 sends survive frame loss" test_resilient_sends_under_loss;
      tc "partition blocks then heals" test_partition_blocks_then_heals;
      tc "restarted machine rejoins fresh" test_restarted_machine_rejoins_fresh;
      tc "crashed machine schedules zero events"
        test_crashed_machine_schedules_zero_events;
      tc "checker catches violations" test_checker_catches_violations;
      tc "duplication absorbed" test_duplication_absorbed;
      tc "reordering absorbed" test_reordering_absorbed;
      tc "corruption caught by checksums" test_corruption_caught_by_checksums;
      tc "one-way cut survived" test_oneway_cut_survived;
      tc "loss burst repaired" test_loss_burst_repaired;
      tc "batched run counts ops per batch"
        test_batched_run_counts_ops_per_batch;
      tc "overlapping bursts restore the pre-burst net"
        test_overlapping_bursts_restore;
      tc "fault schedule rejects malformed input"
        test_schedule_rejects_bad_input;
      tc "fault schedule checks machine ids" test_schedule_machine_range;
      tc "multi-group invariants hold per group"
        test_multigroup_invariants_per_group;
      tc "ghost sequencer after a missed reset"
        test_ghost_sequencer_after_missed_reset;
      QCheck_alcotest.to_alcotest ~rand prop_swarm_invariants;
      QCheck_alcotest.to_alcotest ~rand prop_adversarial_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_batched_adversarial_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_power_cycle_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_schedule_roundtrip;
      QCheck_alcotest.to_alcotest ~rand prop_chaos_deterministic;
      QCheck_alcotest.to_alcotest ~rand prop_multigroup_deterministic;
    ] )
