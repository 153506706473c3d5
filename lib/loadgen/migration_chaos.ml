open Amoeba_sim
open Amoeba_harness
open Amoeba_service
module Medium = Amoeba_net.Medium
module Machine = Amoeba_net.Machine
module Cost_model = Amoeba_net.Cost_model
module Rsm = Amoeba_grouplib.Rsm

(* The scenario: a 2-shard durable service on 7 hosts, a Zipf workload
   running throughout, and a live migration of shard 0 from its
   deployed replicas to two fresh hosts a third of the way in — while
   the fault plan crashes the source sequencer, crashes the
   destination head, and/or power-cycles the whole cluster a few
   hundred ms into the transfer.  Deterministic in the seed, like the
   other chaos runners, so any failing case replays from its printed
   CLI line. *)

type spec = {
  mc_seed : int;
  mc_fabric : Medium.spec;
  mc_hostile : bool;  (* persistently adversarial link conditions *)
  mc_crash_source : bool;  (* crash the source sequencer mid-migration *)
  mc_crash_dest : bool;  (* crash the destination head mid-migration *)
  mc_power_cycle : bool;  (* power-cycle every server host mid-migration *)
  mc_workers : int;
  mc_duration_ms : int;
}

let default ~seed =
  {
    mc_seed = seed;
    mc_fabric = Medium.Shared;
    mc_hostile = false;
    mc_crash_source = false;
    mc_crash_dest = false;
    mc_power_cycle = false;
    mc_workers = 8;
    mc_duration_ms = 1200;
  }

type outcome = {
  o_spec : spec;
  o_migration : (unit, string) result option;
  o_completed : int;
  o_failed : int;
  o_crashed : int list;
  o_recovered : bool;
  o_sentinels_acked : int;
  o_sentinels_lost : int;
  o_verdicts : (string * Checker.verdict) list;
  o_ok : bool;
}

let ok o = o.o_ok

let hosts = 7
let shards = 2
let target = [ 4; 5 ]  (* fresh hosts: neither shard places replicas there *)

(* Same moderately-hostile profile as the chaos swarms: bursty
   Gilbert–Elliott loss, duplication, reordering jitter, corruption. *)
let adversarial_net = List.assoc "adversarial" Medium.condition_profiles

let rec flush_key map shard i =
  let k = Printf.sprintf "flush-%d" i in
  if Shard_map.shard_of_key map k = shard then k else flush_key map shard (i + 1)

let replay_line spec =
  Printf.sprintf "amoeba migration-chaos --seed %d --net %s+%s%s%s%s"
    spec.mc_seed
    (Medium.spec_to_string spec.mc_fabric)
    (if spec.mc_hostile then "adversarial" else "clean")
    (if spec.mc_crash_source then " --crash-source" else "")
    (if spec.mc_crash_dest then " --crash-dest" else "")
    (if spec.mc_power_cycle then " --power-cycle" else "")

let run spec =
  let seed = spec.mc_seed in
  let duration = Time.ms spec.mc_duration_ms in
  let tb =
    Testbed.create
      {
        Testbed.default with
        Testbed.shards;
        hosts;
        routers = 2;
        record = true;
        fabric = spec.mc_fabric;
        wire_mbps = 100;
        disk = Some Cost_model.ssd;
        fsync =
          (if spec.mc_power_cycle then Rsm.Every_commit else Rsm.Group_fsync 8);
        checkpoint_every = 32;
        seed;
      }
  in
  let cl = tb.Testbed.cluster and map = tb.Testbed.map in
  let eng = cl.Cluster.engine in
  (* Fault offsets past migration start, drawn up front so a spec's
     timing is identical whichever flags are set. *)
  let rng = Random.State.make [| seed; 0x715A |] in
  let off () = Time.ms (10 + Random.State.int rng 140) in
  let d_src = off () in
  let d_dst = off () in
  let d_pc = off () in
  let t_m = duration / 3 in
  let mig_result = ref None in
  let crashed = ref [] in
  let recovered = ref None in
  let live_r = ref None in
  let sent_lost = ref [] in
  let completed = ref 0 in
  let failed = ref 0 in
  let verdicts = ref [] in
  let all_ok = ref true in
  Cluster.spawn cl (fun () ->
      if spec.mc_hostile then
        Medium.set_conditions cl.Cluster.net adversarial_net;
      let live = Testbed.deploy tb in
      live_r := Some live;
      let svc = live.Testbed.deployed and rs = live.Testbed.routers in
      (if spec.mc_power_cycle then
         (* sentinel writes before the migration: the acked ones are
            obligations the mid-migration power loss must not revoke *)
         Cluster.spawn cl (fun () ->
             Engine.sleep eng (duration / 4);
             Testbed.write_sentinels live 6));
      (* Both the migration and the recovery fibers repoint the
         routers; whichever runs later must win, so both aim at the
         service now serving. *)
      Cluster.spawn cl (fun () ->
          Engine.sleep eng t_m;
          let res =
            Service.migrate_shard svc ~shard:0 ~timeout:(Time.ms 600)
              ~hosts:target ()
          in
          mig_result := Some res;
          Testbed.repoint live);
      let crash_at d h =
        Cluster.spawn cl (fun () ->
            Engine.sleep eng (t_m + d);
            if Machine.is_alive (Cluster.machine cl h) then begin
              Machine.crash (Cluster.machine cl h);
              crashed := h :: !crashed
            end)
      in
      if spec.mc_crash_source then
        crash_at d_src (Shard_map.sequencer_host map 0);
      if spec.mc_crash_dest then crash_at d_dst (List.hd target);
      (if spec.mc_power_cycle then
         Cluster.spawn cl (fun () ->
             Engine.sleep eng (t_m + d_pc);
             (* mid-migration recovery: the shard's durable state may
                sit on the old replicas, the new ones, or both — read
                the union and let the longest-log election decide *)
             let union_hosts shard =
               let base = Shard_map.replica_hosts map shard in
               if shard = 0 then
                 base @ List.filter (fun h -> not (List.mem h base)) target
               else base
             in
             recovered := Some (Testbed.power_cycle ~hosts_for:union_hosts live);
             sent_lost := Testbed.read_back live));
      let res =
        Driver.drive cl ~map ~routers:rs
          {
            Driver.default with
            mix = Mix.read_update ~read:0.25 (Keygen.Zipf 0.99);
            keys = 200;
            value_dist = Dist.Fixed 16;
            warmup = Time.ms 50;
            duration = duration - Time.ms 50;
            seed;
          }
          (Driver.Closed spec.mc_workers)
      in
      completed := res.Driver.completed;
      failed := res.Driver.failed;
      (* quiesce: let nack repair and slow-member catch-up drain the
         last acked writes into every stream before judging them *)
      Engine.sleep eng (Time.sec 5);
      (* Then flush, as the chaos swarms do: on a quiet net, one more
         write per shard gives a member that silently lost the tail of
         its stream a later sequence number to notice the gap against.
         Without it a lost last write stays unseen in an idle group — a
         liveness gap of the protocol, not a safety violation. *)
      if spec.mc_hostile then Medium.set_conditions cl.Cluster.net Medium.clean;
      for shard = 0 to shards - 1 do
        ignore (Router.put (List.hd rs) (flush_key map shard 0) "flush")
      done;
      Engine.sleep eng (Time.sec 1);
      let add (label, v) =
        verdicts := (label, v) :: !verdicts;
        if not v.Checker.ok then all_ok := false
      in
      match !recovered with
      | None -> List.iter add (Testbed.verdicts svc ~crashed:!crashed)
      | Some svc' ->
          (* The power loss killed every pre-cut replica, so ownership
             belongs to the recovered service; the pre-cut streams
             still owe the base invariants, including total order
             across the cutover. *)
          for shard = 0 to shards - 1 do
            List.iter
              (fun v -> add (Printf.sprintf "shard %d" shard, v))
              (Checker.run ~durability_applies:false
                 ~streams:
                   (Service.checker_streams svc ~shard ~crashed:(fun _ -> true))
                 ~completed:(Service.completed svc ~shard)
                 ())
          done;
          List.iter add (Testbed.verdicts ~tag:"'" svc' ~crashed:[]);
          for shard = 0 to shards - 1 do
            add
              ( Printf.sprintf "shard %d'" shard,
                Service.check_migration svc' ~shard ~crashed:[] )
          done;
          if !sent_lost <> [] then
            (* Every_commit: every acked sentinel must survive *)
            all_ok := false);
  Cluster.run ~until:(duration + Time.sec 60) cl;
  {
    o_spec = spec;
    o_migration = !mig_result;
    o_completed = !completed;
    o_failed = !failed;
    o_crashed = List.rev !crashed;
    o_recovered = !recovered <> None;
    o_sentinels_acked =
      (match !live_r with
      | Some l -> List.length l.Testbed.sentinels
      | None -> 0);
    o_sentinels_lost = List.length !sent_lost;
    o_verdicts = List.rev !verdicts;
    o_ok = !all_ok;
  }

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%s@," (replay_line o.o_spec);
  Fmt.pf ppf "migration: %s@,"
    (match o.o_migration with
    | None -> "never returned"
    | Some (Ok ()) -> "completed"
    | Some (Error e) -> "rolled back (" ^ e ^ ")");
  Fmt.pf ppf "workload:  %d completed, %d failed@," o.o_completed o.o_failed;
  if o.o_crashed <> [] then
    Fmt.pf ppf "crashed:   %a@,"
      Fmt.(list ~sep:(any ", ") (fmt "m%d"))
      o.o_crashed;
  if o.o_recovered then
    Fmt.pf ppf "power:     recovered; sentinels %d acked, %d lost@,"
      o.o_sentinels_acked o.o_sentinels_lost;
  List.iter
    (fun (label, v) ->
      Fmt.pf ppf "%s: %a@," label Checker.pp_verdict v)
    o.o_verdicts;
  Fmt.pf ppf "verdict:   %s@]" (if o.o_ok then "PASS" else "FAIL")
