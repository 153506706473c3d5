(* A command-line explorer for the simulated Amoeba group system:
   point measurements, protocol traces and the cost model, without
   editing any benchmark code.

     amoeba delay --members 8 --size 1024 --method bb
     amoeba throughput --senders 16 --resilience 2
     amoeba multigroup --groups 5 --members 2
     amoeba trace
     amoeba costs *)

open Cmdliner
open Amoeba_harness
module T = Amoeba_core.Types
module E = Experiments
module Testbed = Amoeba_loadgen.Testbed

(* --net takes a '+'-separated spec: each component is either a fabric
   (ether | shared | switch | switch:SxH[@U]) or a condition profile.
   The profile table lives in {!Amoeba_net.Medium.condition_profiles},
   so the CLI, the adversarial swarm test and the loadgen sweep share
   one notion of what e.g. "bursty" means. *)
let net_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Amoeba_net.Medium.net_of_string s)
  in
  let print fmt nc =
    Format.pp_print_string fmt (Amoeba_net.Medium.net_to_string nc)
  in
  Arg.conv (parse, print)

let net_t =
  Arg.(
    value
    & opt net_conv (Amoeba_net.Medium.Shared, Amoeba_net.Medium.clean)
    & info [ "net" ]
        ~doc:
          "Fabric and/or link conditions, '+'-separated.  Fabric: ether \
           (shared CSMA/CD wire, default), switch (one full-duplex \
           switch), or switch:SxH\xc2\xa0/\xc2\xa0switch:SxH@U (S segments of H \
           ports, uplink U-times oversubscribed).  Conditions: clean, \
           bursty-light, bursty, bursty-heavy (Gilbert\xe2\x80\x93Elliott \
           loss), dup, reorder (delivery jitter), corrupt, or adversarial \
           (all of them, moderate).  Example: switch:2x48@10+bursty.")

let disk_t =
  Arg.(
    value
    & opt (some (enum Amoeba_net.Cost_model.disk_profiles)) None
    & info [ "disk" ]
        ~doc:
          "Give every machine a local disk with this timing profile \
           (hdd1996, hdd, ssd, nvme) and turn on durable mode: committed \
           work is WAL-logged and survives restarts.  Without it nothing \
           touches a disk and all simulated figures are unchanged.")

let members_t =
  Arg.(value & opt int 8 & info [ "m"; "members" ] ~doc:"Group size.")

let size_t =
  Arg.(value & opt int 0 & info [ "s"; "size" ] ~doc:"Message size in bytes.")

let method_t =
  Arg.(
    value
    & opt (enum [ ("pb", T.Pb); ("bb", T.Bb); ("auto", T.Auto) ]) T.Pb
    & info [ "method" ] ~doc:"pb, bb or auto.")

let resilience_t =
  Arg.(value & opt int 0 & info [ "r"; "resilience" ] ~doc:"Resilience degree.")

(* Flags several commands share, each defined once; a command picks
   its own default. *)

let seed_t default =
  Arg.(value & opt int default & info [ "seed" ] ~doc:"Simulation seed.")

let duration_t ?(doc = "Simulated ms.") default =
  Arg.(value & opt int default & info [ "duration" ] ~doc)

let workers_t default =
  Arg.(
    value & opt int default
    & info [ "workers" ]
        ~doc:"Closed-loop clients (workload: ignored with --rate).")

let shards_t default =
  Arg.(
    value & opt int default
    & info [ "shards" ] ~doc:"Number of shards (groups).")

let hosts_t default =
  Arg.(
    value & opt int default
    & info [ "hosts" ]
        ~doc:"Machines available to host replicas (routers come extra).")

let routers_t default =
  Arg.(
    value & opt int default
    & info [ "routers" ] ~doc:"Client machines, one router each.")

let replication_t default =
  Arg.(
    value & opt int default & info [ "replication" ] ~doc:"Replicas per shard.")

let wire_t default =
  Arg.(
    value & opt int default
    & info [ "wire-mbps" ]
        ~doc:
          "Ethernet bit rate in Mbit/s (10 is the paper's testbed).  On the \
           shared 10 Mbit wire the medium itself saturates near 850 ops/s \
           whatever the shard count; 100 makes the machines the bottleneck \
           again, the regime where shards scale.")

let keys_t =
  Arg.(value & opt int 1_000 & info [ "keys" ] ~doc:"Key space size.")

let max_batch_t =
  Arg.(
    value & opt int 32
    & info [ "max-batch" ]
        ~doc:
          "Router-side op batching: up to this many ops for one shard are \
           shipped as one RPC, which the replica submits as one sequencer \
           round (1 disables batching).")

let pipeline_depth_t =
  Arg.(
    value & opt int 4
    & info [ "pipeline-depth" ]
        ~doc:
          "Unacknowledged sequencer rounds each replica kernel may keep in \
           flight (1 = the paper's lock-step send).")

let rate_t =
  Arg.(
    value & opt (some float) None
    & info [ "rate" ]
        ~doc:
          "Offer open-loop Poisson arrivals at this rate (ops/s): for \
           workload instead of the closed loop, for loadgen one trial \
           instead of the knee search.")

let json_t =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Also print the measured result as a JSON object.  workload: the \
           JSON reads the same ramp-excluded figures as the text, and \
           per_shard counts the requests each shard served from the end of \
           the ramp through the drain, retries included.  loadgen --sweep: \
           validate and write BENCH_loadgen.json instead.")

let print_json fields =
  print_string (Bench_json.to_string (Bench_json.Obj fields))

let delay_cmd =
  let run members size method_ r (fabric, net) =
    let d =
      E.broadcast_delay ~samples:20 ~resilience:r ~fabric ~net ~n:members ~size
        ~send_method:method_ ()
    in
    Printf.printf
      "SendToGroup delay, %d members, %d bytes, r=%d: mean %.2f ms (min %.2f, max %.2f, %d samples)\n"
      members size r d.E.mean_ms d.E.min_ms d.E.max_ms d.E.samples
  in
  Cmd.v (Cmd.info "delay" ~doc:"Measure broadcast delay (paper Figs 1/3/7).")
    Term.(const run $ members_t $ size_t $ method_t $ resilience_t $ net_t)

let throughput_cmd =
  let senders_t =
    Arg.(value & opt int 8 & info [ "senders" ] ~doc:"Senders (= group size).")
  in
  let run senders size method_ r duration =
    let t =
      E.group_throughput ~duration_ms:duration ~resilience:r ~n:senders ~size
        ~send_method:method_ ()
    in
    Printf.printf
      "throughput, %d senders, %d bytes, r=%d: %.0f msg/s (%d ring drops, %d retransmissions)%s\n"
      senders size r t.E.msgs_per_sec t.E.rx_dropped t.E.retransmissions
      (if t.E.meaningful then "" else "  [NOT MEANINGFUL: retransmission-bound]")
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Measure group throughput (paper Figs 4/5/8).")
    Term.(
      const run $ senders_t $ size_t $ method_t $ resilience_t
      $ duration_t 2000)

let multigroup_cmd =
  let groups_t = Arg.(value & opt int 5 & info [ "groups" ] ~doc:"Groups.") in
  let run groups members =
    let r = E.multigroup_throughput ~groups ~members () in
    Printf.printf
      "%d groups x %d members: %.0f msg/s total, %.0f%% Ethernet utilisation, %d collisions\n"
      groups members r.E.total_msgs_per_sec
      (100. *. r.E.ether_utilisation)
      r.E.collisions
  in
  Cmd.v
    (Cmd.info "multigroup" ~doc:"Disjoint groups on one Ethernet (paper Fig 6).")
    Term.(const run $ groups_t $ members_t)

let trace_cmd =
  let run () =
    let layers, total = E.critical_path () in
    print_endline "critical path of one 0-byte SendToGroup (group of 2, PB):";
    List.iter (fun (l, us) -> Printf.printf "  %-8s %7.0f us\n" l us) layers;
    Printf.printf "  %-8s %7.0f us (measured end to end)\n" "total" total;
    Printf.printf "  (paper Table 3: total 2740 us, group layer 740 us)\n"
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Per-layer critical path (paper Fig 2 / Table 3).")
    Term.(const run $ const ())

let costs_cmd =
  let run () =
    let c = Amoeba_net.Cost_model.default in
    print_endline "simulated testbed (20-MHz MC68030, Lance, 10 Mbit/s Ethernet):";
    let row name v = Printf.printf "  %-22s %8d ns\n" name v in
    row "interrupt" c.interrupt_ns;
    row "driver tx / rx" c.driver_tx_ns;
    row "copy (per byte)" c.copy_ns_per_byte;
    row "context switch" c.context_switch_ns;
    row "flip tx / rx" c.flip_tx_ns;
    row "group send" c.group_send_ns;
    row "group sequencer" c.group_seq_ns;
    row "  + per member" c.group_seq_member_ns;
    row "group deliver" c.group_deliver_ns;
    Printf.printf "  %-22s %8d bytes\n" "header stack"
      (Amoeba_net.Cost_model.headers_total c);
    Printf.printf "  %-22s %8d frames\n" "lance rx ring" c.rx_ring_frames;
    Printf.printf "  %-22s %8d messages\n" "history buffer" c.history_buffer
  in
  Cmd.v (Cmd.info "costs" ~doc:"Print the calibrated cost model.")
    Term.(const run $ const ())

let rpc_cmd =
  let run () =
    Printf.printf "null RPC: %.2f ms (paper: 2.8)\n" (E.null_rpc_delay_ms ())
  in
  Cmd.v (Cmd.info "rpc" ~doc:"Measure the null RPC baseline.")
    Term.(const run $ const ())

let chaos_cmd =
  let chaos_members_t =
    Arg.(value & opt int 4 & info [ "m"; "members" ] ~doc:"Group size.")
  in
  let msgs_t =
    Arg.(value & opt int 4 & info [ "msgs" ] ~doc:"Messages per member.")
  in
  let schedule_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ]
          ~doc:
            "Explicit fault schedule (the format printed by a run), \
             overriding the seed-derived one.")
  in
  let chaos_groups_t =
    Arg.(
      value & opt int 1
      & info [ "groups" ]
          ~doc:
            "Concurrent groups sharing the wire (sequencers spread over \
             machines); invariants are checked independently per group.")
  in
  let run seed members groups r method_ msgs schedule (fabric, net) disk =
    let bad_schedule msg =
      Printf.eprintf "amoeba chaos: --schedule: %s\n" msg;
      exit 2
    in
    let schedule =
      match (schedule, disk) with
      | Some s, _ -> (
          match Fault.of_string s with
          | exception Invalid_argument msg -> bad_schedule msg
          | sched -> (
              match Fault.validate ~n:members sched with
              | Ok () -> Some sched
              | Error msg ->
                  bad_schedule (Printf.sprintf "%s (--members %d)" msg members)))
      | None, Some _ ->
          (* Durable mode widens the seeded generator to draw one
             whole-cluster power cycle on top of the base schedule. *)
          Some (Fault.random ~seed ~n:members ~power_cycles:true ())
      | None, None -> None
    in
    let o =
      Chaos.run ~n:members ~groups ~resilience:r ~send_method:method_ ~msgs
        ?schedule ~net ~fabric ?disk ~seed ()
    in
    Chaos.print_report o;
    if not (Chaos.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a seeded fault-injection run and check the total-order, \
          delivery, durability, incarnation and (with --disk) \
          durable-recovery invariants.")
    Term.(
      const run $ seed_t 1 $ chaos_members_t $ chaos_groups_t $ resilience_t
      $ method_t $ msgs_t $ schedule_t $ net_t $ disk_t)

(* ----- the sharded service layer ----- *)

let batch_delay_t =
  Arg.(
    value & opt int 500
    & info [ "batch-delay-us" ]
        ~doc:
          "Nagle-style flush timer in microseconds: a partial batch ships \
           when this much time has passed since its first op.")

let serve_cmd =
  let run shards hosts replication r seed max_batch batch_delay_us
      pipeline_depth =
    let open Amoeba_service in
    let tb =
      Testbed.create
        {
          Testbed.default with
          shards;
          hosts;
          replication;
          resilience = r;
          pipeline_depth;
          max_batch;
          batch_delay_us;
          seed;
        }
    in
    let cl = tb.cluster and map = tb.map in
    Format.printf "%a@." Shard_map.pp map;
    Cluster.spawn cl (fun () ->
        let live = Testbed.deploy tb in
        let svc = live.deployed and router = List.hd live.routers in
        for i = 0 to (4 * shards) - 1 do
          ignore
            (Router.put router
               (Printf.sprintf "demo-%d" i)
               (Printf.sprintf "value-%d" i))
        done;
        Amoeba_sim.Engine.sleep cl.Cluster.engine (Amoeba_sim.Time.ms 300);
        Printf.printf "service up: %d shard(s) x %d replica(s), %d demo writes\n"
          shards
          (Shard_map.replication map)
          (Service.writes_ok svc);
        for s = 0 to shards - 1 do
          Printf.printf "  shard %d applied:" s;
          List.iter
            (fun (host, a) -> Printf.printf " m%d=%d" host a)
            (Service.applied svc s);
          print_newline ()
        done);
    Cluster.run ~until:(Amoeba_sim.Time.sec 60) cl
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Deploy the sharded key/value service (one replicated group per \
          shard) and show its placement.")
    Term.(
      const run $ shards_t 4 $ hosts_t 8 $ replication_t 3 $ resilience_t
      $ seed_t 1 $ max_batch_t $ batch_delay_t $ pipeline_depth_t)

let workload_cmd =
  let value_bytes_t =
    Arg.(value & opt int 32 & info [ "value-bytes" ] ~doc:"Value size.")
  in
  let read_ratio_t =
    Arg.(
      value & opt float 0.0
      & info [ "read-ratio" ] ~doc:"Fraction of reads (0.0 - 1.0).")
  in
  let dist_t =
    Arg.(
      value
      & opt
          (enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("latest", `Latest) ])
          `Uniform
      & info [ "dist" ]
          ~doc:
            "Key popularity: uniform, zipf, or latest (YCSB-D's \
             read-latest: a Zipf-distributed offset back from the newest \
             key).")
  in
  let skew_t =
    Arg.(
      value & opt float 0.99
      & info [ "skew" ] ~doc:"Skew exponent (with --dist zipf or latest).")
  in
  let ramp_t =
    Arg.(
      value & opt int 0
      & info [ "ramp-ms" ]
          ~doc:
            "Closed-loop slow start: stagger worker startup over this \
             many simulated ms instead of unleashing the whole herd at \
             t=0 (thousands of first-contact clients starve every CPU \
             at once and the group kernels read the stall as member \
             failures).  0 keeps the all-at-once start.")
  in
  let crash_seq_t =
    Arg.(
      value & flag
      & info [ "crash-sequencer" ]
          ~doc:
            "Crash shard 0's sequencer machine halfway through and check the \
             chaos invariants per shard afterwards (requires resilience >= \
             1 for the durability check).  The group auto-heals while the \
             router keeps serving from the surviving replicas.")
  in
  let crash_follower_t =
    Arg.(
      value & flag
      & info [ "crash-follower" ]
          ~doc:
            "Crash shard 0's first follower replica halfway through.  The \
             follower is in the router's serving rotation (sequencer-host \
             endpoints are held in reserve), so this exercises the router's \
             probe/suspect/failover path; invariants are checked per shard \
             afterwards.")
  in
  let checkpoint_every_t =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ]
          ~doc:
            "With --disk: each replica checkpoints its state and trims the \
             WAL every this many applied updates (0 never checkpoints).")
  in
  let fsync_t =
    let open Amoeba_grouplib.Rsm in
    let policies =
      [
        ("commit", Every_commit);
        ("group", Group_fsync 8);
        ("checkpoint", Checkpoint_only);
      ]
    in
    Arg.(
      value & opt (enum policies) (Group_fsync 8)
      & info [ "fsync" ]
          ~doc:
            "With --disk: when a replica fsyncs its WAL.  'commit' syncs \
             every applied update (every acked write survives a power \
             loss), 'group' every 8th (bounded trailing-window loss), \
             'checkpoint' only at checkpoints.")
  in
  let power_cycle_t =
    Arg.(
      value & flag
      & info [ "power-cycle" ]
          ~doc:
            "Requires --disk.  Write sentinel keys a quarter of the way \
             through, power off EVERY server host at the halfway mark, \
             restart them ~275 simulated ms later, recover the whole \
             service from its disks, repoint the routers, and read the \
             sentinels back.  With --fsync commit any acked sentinel lost \
             across the cycle fails the run (exit 1); weaker policies \
             report trailing-window losses without failing.")
  in
  let stale_reads_t =
    Arg.(
      value & flag
      & info [ "stale-reads" ]
          ~doc:
            "Routers issue bounded-staleness gets, answered from each \
             replica's last durable checkpoint (the durable frontier) \
             instead of the live state.")
  in
  let migrate_t =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:
            "Live-migrate shard 0 onto fresh hosts a third of the way \
             through, while the workload keeps running: the destinations \
             join the running group (atomic checkpoint + delta state \
             transfer), the sequencer role cuts over view-synchronously \
             and the routers repoint.  Prints the migration window.  \
             Needs enough hosts free of shard 0 replicas to hold a full \
             replica set.")
  in
  let rebalance_t =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "Start the elastic rebalancer: sample per-shard load every \
             250 simulated ms, and when one machine's sequencing load \
             exceeds twice the pool mean, live-migrate the hottest shard \
             it sequences onto the coldest fresh hosts.  Pair with --dist \
             zipf, whose hot-key skew is what trips it.")
  in
  let run shards hosts routers replication r keys value_bytes read_ratio dist
      skew workers rate duration_ms ramp_ms seed (fabric, net) wire_mbps
      crash_seq
      crash_follower
      max_batch batch_delay_us pipeline_depth disk checkpoint_every fsync
      power_cycle stale_reads migrate rebalance json =
    let open Amoeba_sim in
    let open Amoeba_service in
    let dist =
      match dist with
      | `Uniform -> Keygen.Uniform
      | `Zipf -> Keygen.Zipf skew
      | `Latest -> Keygen.Latest skew
    in
    if power_cycle && disk = None then begin
      Printf.eprintf "--power-cycle needs a disk (pass --disk)\n";
      exit 2
    end;
    let duration = Amoeba_sim.Time.ms duration_ms in
    let failed = ref false in
    let crashing = crash_seq || crash_follower in
    (* Invariants are checked whenever the run disturbs the service —
       crashes, live migration, elastic rebalancing — not only on the
       crash paths: a migration that loses or duplicates a write must
       fail the run (exit 1), not just print throughput.  The record
       tap is a pure callback with no simulated cost, so enabling it
       does not move any measured figure. *)
    let checking = crashing || migrate || rebalance in
    let tb =
      Testbed.create
        {
          Testbed.shards;
          hosts;
          routers;
          replication;
          resilience = r;
          fabric;
          wire_mbps;
          disk;
          fsync;
          checkpoint_every;
          pipeline_depth;
          record = checking;
          max_batch;
          batch_delay_us;
          stale_reads;
          seed;
        }
    in
    let cl = tb.cluster and map = tb.map in
    let eng = cl.Cluster.engine in
    Cluster.spawn cl (fun () ->
        if net <> Amoeba_net.Medium.clean then
          Amoeba_net.Medium.set_conditions cl.Cluster.net net;
        let live = Testbed.deploy tb in
        let svc = live.deployed and rs = live.routers in
        (if power_cycle then
           Cluster.spawn cl (fun () ->
               Engine.sleep eng (duration / 4);
               Testbed.write_sentinels live 10;
               let cut = duration / 2 in
               let now = Engine.now eng in
               if cut > now then Engine.sleep eng (cut - now);
               Printf.printf
                 "power loss: all %d server hosts down at t=%.1fs\n%!" hosts
                 (Amoeba_sim.Time.to_sec (Engine.now eng));
               let svc' = Testbed.power_cycle live in
               List.iter
                 (fun sr ->
                   Printf.printf "recovered: shard %d from m%d at %d applied (%s)\n%!"
                     sr.Service.sr_shard sr.Service.sr_creator
                     sr.Service.sr_applied
                     (String.concat ", "
                        (List.map
                           (fun hr ->
                             Printf.sprintf "m%d:%s" hr.Service.hr_host
                               (match hr.Service.hr_error with
                               | Some _ -> "refused"
                               | None -> string_of_int hr.Service.hr_applied))
                           sr.Service.sr_hosts)))
                 (Service.recovery_report svc');
               let lost = Testbed.read_back live in
               Printf.printf "sentinels: %d acked, %d lost across the cycle%s\n%!"
                 (List.length live.sentinels) (List.length lost)
                 (if lost = [] then ""
                  else " (" ^ String.concat ", " (List.rev lost) ^ ")");
               match (fsync, lost) with
               | _, [] -> ()
               | Amoeba_grouplib.Rsm.Every_commit, _ ->
                   Printf.printf
                     "FAIL: acked writes lost under fsync-per-commit\n%!";
                   failed := true
               | _ ->
                   Printf.printf
                     "(allowed by the fsync policy's trailing window)\n%!"));
        let pp_hosts hs =
          String.concat "," (List.map (Printf.sprintf "m%d") hs)
        in
        (if migrate then
           Cluster.spawn cl (fun () ->
               Engine.sleep eng (duration / 3);
               let cur = Shard_map.replica_hosts (Service.map svc) 0 in
               let free =
                 List.filter (fun h -> not (List.mem h cur)) (Shard_map.hosts map)
               in
               let k = List.length cur in
               if List.length free < k then
                 Printf.printf
                   "migrate: only %d hosts free of shard 0 replicas, %d \
                    needed\n%!"
                   (List.length free) k
               else begin
                 let tgt = List.filteri (fun i _ -> i < k) free in
                 let t0 = Engine.now eng in
                 match Service.migrate_shard svc ~shard:0 ~hosts:tgt () with
                 | Ok () ->
                     Testbed.repoint live;
                     Printf.printf
                       "migrated:  shard 0 [%s] -> [%s] in %.1f simulated ms\n%!"
                       (pp_hosts cur)
                       (pp_hosts (Shard_map.replica_hosts (Service.map svc) 0))
                       (Amoeba_sim.Time.to_sec (Engine.now eng - t0) *. 1000.)
                 | Error e -> Printf.printf "migrate: failed: %s\n%!" e
               end));
        (if rebalance then
           ignore
             (Rebalancer.start cl svc
                ~on_move:(fun mv ->
                  match mv.Rebalancer.mv_result with
                  | Ok () ->
                      Testbed.repoint live;
                      Printf.printf
                        "rebalanced: shard %d [%s] -> [%s] at t=%.1fs\n%!"
                        mv.Rebalancer.mv_shard
                        (pp_hosts mv.Rebalancer.mv_from)
                        (pp_hosts mv.Rebalancer.mv_to)
                        (Amoeba_sim.Time.to_sec mv.Rebalancer.mv_time)
                  | Error e ->
                      Printf.printf "rebalance: shard %d move failed: %s\n%!"
                        mv.Rebalancer.mv_shard e)
                ()));
        let crash_at what h =
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (duration / 2);
              Printf.printf "crashing m%d (shard 0's %s) at t=%.1fs\n%!" h what
                (Amoeba_sim.Time.to_sec (Engine.now eng));
              Amoeba_net.Machine.crash (Cluster.machine cl h));
          [ h ]
        in
        let crashed =
          (if crash_seq then crash_at "sequencer" (Shard_map.sequencer_host map 0)
           else [])
          @
          match (crash_follower, Shard_map.replica_hosts map 0) with
          | false, _ -> []
          | true, _seq :: follower :: _ -> crash_at "serving follower" follower
          | true, _ ->
              Printf.eprintf "--crash-follower needs replication >= 2\n";
              exit 2
        in
        let module D = Amoeba_loadgen.Driver in
        let load =
          match rate with Some rate -> D.Open rate | None -> D.Closed workers
        in
        (* --duration includes the ramp, which is the driver's warmup. *)
        let warmup = max 0 (min (Amoeba_sim.Time.ms ramp_ms) duration) in
        (* Per-shard requests served in the measured window: snapshot
           the counters when the warmup ends. *)
        let at_warmup = ref (svc, Service.shard_ops svc) in
        Cluster.spawn cl (fun () ->
            Engine.sleep eng warmup;
            at_warmup := (live.serving, Service.shard_ops live.serving));
        let res =
          D.drive cl ~map ~routers:rs
            {
              D.default with
              mix = Amoeba_loadgen.Mix.read_update ~read:read_ratio dist;
              keys;
              value_dist = Amoeba_loadgen.Dist.Fixed value_bytes;
              duration = duration - warmup;
              warmup;
              seed;
            }
            load
        in
        let per_shard =
          let s0, base = !at_warmup in
          let ops = Array.map2 ( - ) (Service.shard_ops s0) base in
          if live.serving != s0 then
            Array.iteri (fun i c -> ops.(i) <- ops.(i) + c)
              (Service.shard_ops live.serving);
          Array.to_list ops
        in
        Format.printf "%a@.per shard: %s@." D.pp_trial res
          (String.concat ", " (List.map string_of_int per_shard));
        (* Every completed op was served at least once in the window. *)
        if List.fold_left ( + ) 0 per_shard < res.D.completed then begin
          Printf.printf "FAIL: per-shard requests miss completed ops\n%!";
          failed := true
        end;
        if json then
          print_json
            [
              ("attempted", Bench_json.Int res.D.attempted);
              ("completed", Bench_json.Int res.D.completed);
              ("failed", Bench_json.Int res.D.failed);
              ("ops_per_sec", Bench_json.Float res.D.throughput);
              ("mean_ms", Bench_json.Float res.D.mean_ms);
              ("p50_ms", Bench_json.Float res.D.p50_ms);
              ("p95_ms", Bench_json.Float res.D.p95_ms);
              ("p99_ms", Bench_json.Float res.D.p99_ms);
              ("max_ms", Bench_json.Float res.D.max_ms);
              ("reads", Bench_json.Int res.D.reads);
              ("writes", Bench_json.Int res.D.updates);
              ( "per_shard",
                Bench_json.List (List.map (fun c -> Bench_json.Int c) per_shard)
              );
            ];
        let agg f = List.fold_left (fun a r -> a + f (Router.stats r)) 0 rs in
        Printf.printf
          "routers:   %d ops, %d retries, %d failovers, %d dead probes\n"
          (agg (fun s -> s.Router.ops))
          (agg (fun s -> s.Router.retries))
          (agg (fun s -> s.Router.failovers))
          (agg (fun s -> s.Router.probes_dead));
        let batches = agg (fun s -> s.Router.batches_sent) in
        let batched_ops = agg (fun s -> s.Router.ops_batched) in
        Printf.printf
          "batching:  %d batches (%.1f ops/batch avg), %d partial flushes, %d \
           batch retries\n"
          batches
          (if batches = 0 then 1.
           else float_of_int batched_ops /. float_of_int batches)
          (agg (fun s -> s.Router.partial_flushes))
          (agg (fun s -> s.Router.batch_retries));
        Printf.printf "service:   %d reads, %d writes ok, %d busy rejections\n"
          (Service.reads svc) (Service.writes_ok svc) (Service.writes_busy svc);
        let m = cl.Cluster.net in
        Printf.printf
          "fabric:    %.1f%% utilisation, %d frames, %d KB, %d collisions, %d \
           queue drops\n"
          (100. *. Amoeba_net.Medium.utilisation m)
          (Amoeba_net.Medium.frames_delivered m)
          (Amoeba_net.Medium.bytes_delivered m / 1024)
          (Amoeba_net.Medium.collisions m)
          (Amoeba_net.Medium.queue_drops m);
        (match tb.durable with
        | None -> ()
        | Some dc ->
            let c = Amoeba_grouplib.Stable_store.counters dc.Service.d_store in
            let module S = Amoeba_grouplib.Stable_store in
            Printf.printf
              "storage:   %d wal appends, %d fsyncs, %d checkpoints, %d wal \
               trims, %d writes lost to dead machines\n"
              c.S.wal_appends c.S.fsyncs c.S.kv_writes c.S.wal_trims
              c.S.writes_dropped;
            if power_cycle then
              Printf.printf
                "replayed:  %d records recovered, %d torn tails truncated, %d \
                 checksum rejects\n"
                c.S.records_replayed c.S.torn_tails c.S.checksum_rejects);
        if stale_reads then
          Printf.printf "stale:     %d bounded-staleness gets\n"
            (agg (fun s -> s.Router.stale_gets));
        if checking then begin
          List.iter
            (fun (label, v) ->
              Format.printf "%s: %a@." label Checker.pp_verdict v;
              if not v.Checker.ok then failed := true)
            (Testbed.verdicts svc ~crashed);
          Printf.printf "verdict:   %s\n"
            (if !failed then "FAIL" else "PASS")
        end);
    Cluster.run ~until:(duration + Amoeba_sim.Time.sec 60) cl;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Drive the sharded service with a measured open- or closed-loop \
          key/value workload (aggregate throughput, latency percentiles).")
    Term.(
      const run $ shards_t 4 $ hosts_t 8 $ routers_t 4 $ replication_t 3
      $ resilience_t $ keys_t $ value_bytes_t $ read_ratio_t $ dist_t $ skew_t
      $ workers_t 16 $ rate_t $ duration_t 5000 $ ramp_t $ seed_t 1 $ net_t
      $ wire_t 10 $ crash_seq_t
      $ crash_follower_t $ max_batch_t $ batch_delay_t $ pipeline_depth_t
      $ disk_t $ checkpoint_every_t $ fsync_t $ power_cycle_t $ stale_reads_t
      $ migrate_t $ rebalance_t $ json_t)

let migration_chaos_cmd =
  let crash_source_t =
    Arg.(
      value & flag
      & info [ "crash-source" ]
          ~doc:"Crash the source sequencer machine mid-migration.")
  in
  let crash_dest_t =
    Arg.(
      value & flag
      & info [ "crash-dest" ]
          ~doc:"Crash the destination head machine mid-migration.")
  in
  let power_cycle_t =
    Arg.(
      value & flag
      & info [ "power-cycle" ]
          ~doc:
            "Power off every server host mid-migration, restart 275 ms \
             later, recover from the union of old and new replica disks, \
             and read back the pre-migration sentinels (fsync-per-commit: \
             any acked sentinel lost fails the run).")
  in
  let run seed (fabric, net) crash_source crash_dest power_cycle workers
      duration_ms =
    let open Amoeba_loadgen in
    let spec =
      {
        Migration_chaos.mc_seed = seed;
        mc_fabric = fabric;
        mc_hostile = net <> Amoeba_net.Medium.clean;
        mc_crash_source = crash_source;
        mc_crash_dest = crash_dest;
        mc_power_cycle = power_cycle;
        mc_workers = workers;
        mc_duration_ms = duration_ms;
      }
    in
    let o = Migration_chaos.run spec in
    Format.printf "%a@." Migration_chaos.pp_outcome o;
    if not (Migration_chaos.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "migration-chaos"
       ~doc:
         "Replay a seeded mid-migration chaos run: live-migrate a shard \
          under a running Zipf workload while crashing the source \
          sequencer, the destination, and/or power-cycling the cluster, \
          then check migration-safety plus the classic invariants.")
    Term.(
      const run $ seed_t 1 $ net_t $ crash_source_t $ crash_dest_t
      $ power_cycle_t $ workers_t 8 $ duration_t 1200)

let loadgen_cmd =
  let module L = Amoeba_loadgen in
  let mix_t =
    Arg.(
      value & opt string "a"
      & info [ "mix" ]
          ~doc:
            "YCSB mix: a (50/50 update-heavy, Zipf), b (95/5 read-mostly, \
             Zipf), c (read-only, Zipf), d (95/5 read-latest + inserts).")
  in
  let txn_ratio_t =
    Arg.(
      value & opt float 0.0
      & info [ "txn-ratio" ]
          ~doc:
            "Fraction of operations issued as multi-key single-shard \
             read-modify-write transactions (taken from the mix's update \
             share first).")
  in
  let txn_size_t =
    Arg.(
      value & opt int 3
      & info [ "txn-size" ] ~doc:"Keys per multi-key transaction.")
  in
  let value_dist_t =
    Arg.(
      value & opt string "fixed:32"
      & info [ "value-dist" ]
          ~doc:
            "Value size distribution: fixed:N, uniform:MIN:MAX, or \
             lognormal:MEDIAN:SIGMA.")
  in
  let warmup_t =
    Arg.(
      value & opt int 500
      & info [ "warmup" ]
          ~doc:"Warmup per trial, simulated ms (excluded from figures).")
  in
  let slo_t =
    Arg.(
      value & opt float 50.0
      & info [ "slo-p99-ms" ] ~doc:"The SLO: trial p99 must stay under this.")
  in
  let min_completion_t =
    Arg.(
      value & opt float 0.95
      & info [ "min-completion" ]
          ~doc:"And completed/attempted must reach this.")
  in
  let lo_t =
    Arg.(
      value & opt float 50.0
      & info [ "lo" ] ~doc:"Floor rate the saturation search starts from.")
  in
  let tol_t =
    Arg.(
      value & opt float 0.08
      & info [ "tol" ] ~doc:"Relative bracket width the search converges to.")
  in
  let max_probes_t =
    Arg.(
      value & opt int 14
      & info [ "max-probes" ] ~doc:"Trial budget for the search.")
  in
  let sweep_t =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full shard-count x fabric sweep (the bench loadgen \
             target) instead of a single configuration; --shards/--net etc. \
             are ignored.")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Tiny windows, key space and probe budget (CI parameters).")
  in
  let run mix txn_ratio txn_size keys value_dist shards hosts routers
      replication wire_mbps max_batch pipeline_depth (fabric, net) duration_ms
      warmup_ms seed slo_p99 min_completion rate lo tol max_probes sweep smoke
      json =
    let mix =
      match L.Mix.of_string mix with
      | Ok m -> m
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    let mix =
      if txn_ratio > 0.0 then L.Mix.with_txn mix ~size_hint:txn_size txn_ratio
      else mix
    in
    let value_dist =
      match L.Dist.of_string value_dist with
      | Ok d -> d
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    let slo = { L.Saturation.p99_ms = slo_p99; min_completion } in
    (* --smoke clamps toward the CI parameters wherever the flag is
       still at its default-ish scale. *)
    let duration_ms = if smoke then min duration_ms 400 else duration_ms in
    let warmup_ms = if smoke then min warmup_ms 100 else warmup_ms in
    let keys = if smoke then min keys 200 else keys in
    let max_probes = if smoke then min max_probes 8 else max_probes in
    let tol = if smoke then Float.max tol 0.25 else tol in
    let lo = if smoke then Float.max lo 100.0 else lo in
    let cfg =
      {
        L.Driver.shards;
        hosts;
        routers;
        replication;
        wire_mbps;
        net = (fabric, net);
        max_batch;
        batch_delay_us = 500;
        pipeline_depth;
        mix;
        keys;
        value_dist;
        txn_size;
        duration = Amoeba_sim.Time.ms duration_ms;
        warmup = Amoeba_sim.Time.ms warmup_ms;
        seed;
      }
    in
    let params = { L.Report.base = cfg; slo; lo; tol; max_probes } in
    if sweep then begin
      L.Report.print_header ();
      let rows =
        L.Report.sweep ~progress:L.Report.print_row ~smoke params
      in
      if json then
        L.Report.write_json ~path:"BENCH_loadgen.json" params rows
    end
    else begin
      match rate with
      | Some rate ->
          let t = L.Driver.run cfg ~rate in
          Format.printf "%a@." L.Driver.pp_trial t;
          if json then
            print_json
              [
                ("offered", Bench_json.Float t.L.Driver.offered);
                ("attempted", Bench_json.Int t.L.Driver.attempted);
                ("completed", Bench_json.Int t.L.Driver.completed);
                ("failed", Bench_json.Int t.L.Driver.failed);
                ("throughput", Bench_json.Float t.L.Driver.throughput);
                ("completion", Bench_json.Float t.L.Driver.completion);
                ("p50_ms", Bench_json.Float t.L.Driver.p50_ms);
                ("p95_ms", Bench_json.Float t.L.Driver.p95_ms);
                ("p99_ms", Bench_json.Float t.L.Driver.p99_ms);
              ]
      | None ->
          let o = L.Report.knee params in
          Format.printf "%a@." L.Saturation.pp_outcome o;
          if json then
            print_json
              [
                ("knee_ops_per_sec", Bench_json.Float o.L.Saturation.knee);
                ( "throughput_at_knee",
                  Bench_json.Float o.L.Saturation.throughput_at_knee );
                ("probes", Bench_json.Int (List.length o.L.Saturation.probes));
                ("converged", Bench_json.Bool o.L.Saturation.converged);
              ]
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "YCSB-style open-loop load generation: drive a mixed workload at a \
          fixed offered rate, or binary-search the highest rate that meets \
          a tail-latency SLO (the saturation knee), per configuration or as \
          a full shard x fabric sweep.")
    Term.(
      const run $ mix_t $ txn_ratio_t $ txn_size_t $ keys_t $ value_dist_t
      $ shards_t 1 $ hosts_t 4 $ routers_t 2 $ replication_t 2 $ wire_t 100
      $ max_batch_t $ pipeline_depth_t $ net_t
      $ duration_t ~doc:"Measured window per trial, simulated ms." 2_000
      $ warmup_t $ seed_t 11 $ slo_t
      $ min_completion_t $ rate_t $ lo_t $ tol_t $ max_probes_t $ sweep_t
      $ smoke_t $ json_t)

let main =
  Cmd.group
    (Cmd.info "amoeba" ~version:"1.0"
       ~doc:"Explore the reproduced Amoeba group communication system.")
    [
      delay_cmd;
      throughput_cmd;
      multigroup_cmd;
      trace_cmd;
      costs_cmd;
      rpc_cmd;
      chaos_cmd;
      serve_cmd;
      workload_cmd;
      migration_chaos_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
