(* Golden result digests: a fixed list of seeded runs whose full
   results are hashed and compared against pinned values.  The
   simulator is deterministic, so a refactor that claims to be
   bit-identical must leave every digest unchanged; a change that
   moves a figure on purpose re-pins the runs it moved and says why.

   The digest is over the whole result value (every counter, verdict
   and schedule step, floats bit for bit), marshalled without sharing
   so it depends only on the value's structure. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_loadgen

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let two_segments = { Switch.segments = 2; segment_size = 3; uplink_mult = 2 }

let profile name = List.assoc name Medium.condition_profiles

(* Random schedules on each fabric.  Seeds 35 and 50 draw two bursts of
   the same kind whose lifetimes overlap in a staggered way. *)
let random_runs =
  List.concat_map
    (fun fabric ->
      List.map
        (fun seed ->
          ( Printf.sprintf "random %s seed %d"
              (Medium.spec_to_string fabric)
              seed,
            fun () ->
              digest
                (Chaos.run ~n:4 ~resilience:1 ~fabric
                   ~schedule:(Fault.random ~seed ~n:4 ())
                   ~seed ()) ))
        [ 1; 2; 3; 35; 50 ])
    [ Medium.Shared; Medium.Switched Switch.flat; Medium.Switched two_segments ]

(* Persistent link conditions on both fabrics, under random schedules. *)
let net_runs =
  List.concat_map
    (fun fabric ->
      List.map
        (fun (name, seed) ->
          ( Printf.sprintf "%s+%s seed %d"
              (Medium.spec_to_string fabric)
              name seed,
            fun () ->
              digest
                (Chaos.run ~n:4 ~fabric ~net:(profile name)
                   ~schedule:(Fault.random ~seed ~n:4 ())
                   ~seed ()) ))
        [ ("adversarial", 5); ("reorder", 6); ("bursty", 7) ])
    [ Medium.Shared; Medium.Switched Switch.flat ]

let power_cycle_run =
  ( "durable power cycle ether+adversarial seed 7",
    fun () ->
      digest
        (Chaos.run ~n:4
           ~schedule:
             [
               {
                 Fault.at = Time.ms 900;
                 action = Fault.Power_cycle_all (Time.ms 250);
               };
             ]
           ~net:(profile "adversarial") ~disk:Cost_model.ssd ~seed:7 ()) )

let loadgen_run =
  ( "loadgen trial switch+reorder",
    fun () ->
      let net =
        match Medium.net_of_string "switch+reorder" with
        | Ok n -> n
        | Error e -> failwith e
      in
      digest
        (Driver.run
           {
             Driver.default with
             Driver.net;
             mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.1;
             keys = 100;
             duration = Time.ms 300;
             warmup = Time.ms 100;
           }
           ~rate:400.0) )

let closed_loop_run =
  ( "closed loop ether 2 shards",
    fun () ->
      let open Amoeba_service in
      let cl = Cluster.create ~seed:11 ~n:6 () in
      let trial = ref None in
      Cluster.spawn cl (fun () ->
          let map =
            Shard_map.create ~shards:2 ~replication:2 ~hosts:[ 0; 1; 2; 3 ] ()
          in
          let svc = Service.deploy cl ~map ~resilience:1 () in
          let routers =
            List.init 2 (fun i ->
                Router.create
                  (Cluster.flip cl (4 + i))
                  ~map ~endpoints:(Service.endpoints svc) ())
          in
          trial :=
            Some
              (Driver.drive cl ~map ~routers
                 {
                   Driver.default with
                   Driver.mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.1;
                   keys = 100;
                   duration = Time.ms 300;
                   warmup = Time.ms 100;
                 }
                 (Driver.Closed 8)));
      Cluster.run ~until:(Time.sec 30) cl;
      digest !trial )

let migration_chaos_run =
  ( "migration chaos seed 1",
    fun () -> digest (Migration_chaos.run (Migration_chaos.default ~seed:1)) )

(* The service-level power cycle, as `amoeba workload --shards 2
   --hosts 4 --routers 2 --replication 2 --workers 8 --duration 2000
   --seed 11 --disk ssd --fsync commit --checkpoint-every 16
   --power-cycle` runs it: sentinels a quarter of the way in, every
   server host down at the halfway mark, recovery from the disks, the
   routers repointed and the sentinels read back. *)
let service_power_cycle_run =
  ( "service power cycle ether 2 shards ssd",
    fun () ->
      let open Amoeba_service in
      let tb =
        Testbed.create
          {
            Testbed.default with
            Testbed.shards = 2;
            hosts = 4;
            routers = 2;
            resilience = 0;
            disk = Some Cost_model.ssd;
            fsync = Amoeba_grouplib.Rsm.Every_commit;
            checkpoint_every = 16;
            pipeline_depth = 4;
            max_batch = 32;
            seed = 11;
          }
      in
      let cl = tb.Testbed.cluster in
      let eng = cl.Cluster.engine in
      let duration = Time.ms 2000 in
      let result = ref None and cycle = ref None in
      Cluster.spawn cl (fun () ->
          let live = Testbed.deploy tb in
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (duration / 4);
              Testbed.write_sentinels live 10;
              let now = Engine.now eng in
              if duration / 2 > now then
                Engine.sleep eng ((duration / 2) - now);
              let lost = Testbed.power_cycle live in
              cycle :=
                Some
                  ( live.Testbed.sentinels,
                    lost,
                    Service.recovery_report live.Testbed.serving ));
          (* The CLI's per-shard snapshot at the end of the (zero) ramp,
             kept so the run schedules the same events. *)
          let at_warmup = ref [||] in
          Cluster.spawn cl (fun () ->
              Engine.sleep eng 0;
              at_warmup := Service.shard_ops live.Testbed.serving);
          let trial =
            Driver.drive cl ~map:tb.Testbed.map ~routers:live.Testbed.routers
              {
                Driver.default with
                Driver.mix = Mix.read_update ~read:0.0 Keygen.Uniform;
                keys = 1000;
                duration;
                warmup = 0;
                seed = 11;
              }
              (Driver.Closed 8)
          in
          result :=
            Some
              ( trial,
                !at_warmup,
                Service.shard_ops live.Testbed.deployed,
                Service.shard_ops live.Testbed.serving,
                List.map Router.stats live.Testbed.routers ));
      Cluster.run ~until:(duration + Time.sec 60) cl;
      digest
        ( !result,
          !cycle,
          Amoeba_grouplib.Stable_store.counters
            (Option.get tb.Testbed.durable).Service.d_store ) )

(* A closed-loop service run through [Testbed] with one replica host
   crashed at 1 s: the trial, every router's counters, the service's
   read/write counters and the per-shard verdicts. *)
let service_crash_run name config ~victim ~mix ~load =
  ( name,
    fun () ->
      let open Amoeba_service in
      let tb = Testbed.create config in
      let cl = tb.Testbed.cluster in
      let eng = cl.Cluster.engine in
      let result = ref None in
      Cluster.spawn cl (fun () ->
          let live = Testbed.deploy tb in
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (Time.sec 1);
              Testbed.crash live (victim live ~shard:0));
          let routers = live.Testbed.routers in
          let trial =
            Driver.drive cl ~map:tb.Testbed.map ~routers
              {
                Driver.default with
                Driver.mix;
                keys = 200;
                duration = Time.sec 2;
                warmup = Time.ms 200;
                seed = config.Testbed.seed;
              }
              load
          in
          let svc = live.Testbed.deployed in
          result :=
            Some
              ( trial,
                List.map Router.stats routers,
                ( Service.reads svc,
                  Service.writes_ok svc,
                  Service.writes_busy svc ),
                Testbed.judge live ));
      Cluster.run ~until:(Time.sec 60) cl;
      digest !result )

let service_crash_runs =
  let open Amoeba_service in
  [
    service_crash_run "service batch crash-sequencer ether b16 d4"
      {
        Testbed.default with
        Testbed.shards = 2;
        hosts = 6;
        routers = 2;
        resilience = 1;
        max_batch = 16;
        pipeline_depth = 4;
        record = true;
        seed = 13;
      }
      ~victim:Testbed.sequencer
      ~mix:(Mix.with_txn Mix.ycsb_a ~size_hint:3 0.1)
      ~load:(Driver.Closed 64);
    service_crash_run "service switch stale-reads crash-follower b1"
      {
        Testbed.default with
        Testbed.shards = 2;
        hosts = 6;
        routers = 2;
        resilience = 1;
        fabric = Medium.Switched Switch.flat;
        disk = Some Cost_model.ssd;
        stale_reads = true;
        record = true;
        seed = 19;
      }
      ~victim:Testbed.follower
      ~mix:(Mix.read_update ~read:0.5 Keygen.Uniform)
      ~load:(Driver.Closed 8);
  ]

(* The figures `bench ablation_cm` (the section 6 comparison) and
   `bench ablation_migrate` (the section 5 burst delays) print. *)
let baseline_compare_runs =
  List.map
    (fun proto ->
      ( "baseline compare " ^ Experiments.baseline_name proto,
        fun () -> digest (Experiments.baseline_compare ~n:8 proto) ))
    Experiments.[ Amoeba_pb; Amoeba_bb; Cm_token; Pos_ack; Migrating ]

let burst_delay_runs =
  List.map
    (fun (name, which) ->
      ("burst delay " ^ name, fun () -> digest (Experiments.burst_delay ~n:8 which)))
    [ ("static", `Static); ("migrating", `Migrating) ]

(* A comparison protocol under persistent link conditions: four
   members each send six messages; every member's delivery stream is
   digested with the engine's step count and the frames delivered. *)
let baseline_fault_runs =
  List.concat_map
    (fun (net, seed) ->
      List.map
        (fun (proto, make_group) ->
          ( Printf.sprintf "baseline %s %s seed %d" proto net seed,
            fun () ->
              let streams, cl = Test_baselines.fault_run make_group ~net ~seed in
              digest
                ( streams,
                  Engine.step_count cl.Cluster.engine,
                  Medium.frames_delivered cl.Cluster.net ) ))
        Test_baselines.protocols)
    [ ("bursty-light", 3); ("dup", 6) ]

let runs =
  random_runs @ net_runs
  @ [
      power_cycle_run;
      loadgen_run;
      closed_loop_run;
      migration_chaos_run;
      service_power_cycle_run;
    ]
  @ service_crash_runs @ baseline_compare_runs @ burst_delay_runs
  @ baseline_fault_runs

(* Digests pinned from the runs above; a run missing here fails as
   unpinned. *)
let pinned =
  [
    ("random ether seed 1", "69f49301eda326aeb90237e565681609");
    ("random ether seed 2", "d33603fc124bb571a71b3503da8d181a");
    ("random ether seed 3", "2fd196bda40d5f9e451aae4215022d4d");
    ("random ether seed 35", "1b2951323655934ca60297acb014fe10");
    ("random ether seed 50", "778605ae0a13acbeedbf7fc8ad0f1af7");
    ("random switch seed 1", "3e4c8dc27590e6d02b99e98c06df6ada");
    ("random switch seed 2", "a57d7c6b468703a15e8d070daf041e6d");
    ("random switch seed 3", "5e38e5c506718f78edc5e17a8fb41760");
    ("random switch seed 35", "40217690e14f4bebc7091126531e6241");
    ("random switch seed 50", "28c7dee111ac1297aebde73a526d9c5b");
    ("random switch:2x3@2 seed 1", "ff423477831e8626dcfe4cb4cf45f13a");
    ("random switch:2x3@2 seed 2", "8b114a8bb76767dca5f3b1e7789b9ae6");
    ("random switch:2x3@2 seed 3", "e730181e61a08be329231d3247eb70ef");
    ("random switch:2x3@2 seed 35", "9fedc1edb547ceb335bd979b80cd8514");
    ("random switch:2x3@2 seed 50", "28c7dee111ac1297aebde73a526d9c5b");
    ("ether+adversarial seed 5", "38ea75e94713ab9cd7ba7e225442501c");
    ("ether+reorder seed 6", "40b42d9ed718b9daa78d6d471c122918");
    ("ether+bursty seed 7", "4b506acba25319d269886d9be4571268");
    ("switch+adversarial seed 5", "c5eb1d8468d89d87606450e5f5849d1f");
    ("switch+reorder seed 6", "06f92f396da9a486af4f14052e465c59");
    ("switch+bursty seed 7", "88a4a9d1611e73d4e4da7f20b340b34f");
    ("durable power cycle ether+adversarial seed 7", "40e395a4b761c3d1f8e8459797df1e0d");
    ("loadgen trial switch+reorder", "a06146fafe921c4fbe67e1db5ed56f75");
    ("closed loop ether 2 shards", "e33a546351046562fd9eb715fc476533");
    ("migration chaos seed 1", "aa7d2fc0aea506ac60b8c9f495bd5b24");
    ("service power cycle ether 2 shards ssd", "47a6a54a12c4dc0f9c8a9e3650da98bb");
    ("service batch crash-sequencer ether b16 d4", "edeb40f3623fc1e7c0e278dc4d607737");
    ("service switch stale-reads crash-follower b1", "f1247f5d49d7728ee7b6392f7d9d89be");
    ("baseline compare Amoeba PB", "389e605376eb4e81185d88de6eb5fc8d");
    ("baseline compare Amoeba BB", "cdb1883221b92c33b280ad4d8b81ec38");
    ("baseline compare Chang-Maxemchuk", "d7caad386bc4c774bef5039ecb0b6ec4");
    ("baseline compare positive acks", "34e582b3e872f5f202bbbaedc6a0c882");
    ("baseline compare migrating seq", "34f8401d112d341960ade1f4a754f2b5");
    ("burst delay static", "1f36a4fa9c6fd04d7b7fc87a0ab60208");
    ("burst delay migrating", "4b15f973ad92d0f4946652a1460b6c9c");
    ("baseline cm bursty-light seed 3", "1dbb094ee9b28bd2dad98d6c71651d42");
    ("baseline posack bursty-light seed 3", "7c84a8db85bc614f3c62ce4a2b90104e");
    ("baseline migrating bursty-light seed 3", "26e851ebf0dd25c9f1597fdcfb0877b8");
    ("baseline cm dup seed 6", "db33d0bd10cecb985f4bf903aa2c36d6");
    ("baseline posack dup seed 6", "0616bc3ea7d3a675670031975a278519");
    ("baseline migrating dup seed 6", "9905f9ddfb744c3c1a79b9cd15cdb944");
  ]

let test_run (name, run) expected () =
  let got = run () in
  if got <> expected then
    Alcotest.failf "golden digest moved: %s (pinned %s, now %s)" name expected
      got

let suite =
  ( "golden",
    List.map
      (fun ((name, _) as r) ->
        let expected =
          Option.value (List.assoc_opt name pinned) ~default:"<unpinned>"
        in
        Alcotest.test_case name `Quick (test_run r expected))
      runs )
