open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service

type config = {
  shards : int;
  hosts : int;
  routers : int;
  replication : int;
  wire_mbps : int;
  net : Medium.spec * Medium.conditions;
  max_batch : int;
  batch_delay_us : int;
  pipeline_depth : int;
  mix : Mix.t;
  keys : int;
  value_dist : Dist.t;
  txn_size : int;
  duration : Time.t;
  warmup : Time.t;
  seed : int;
}

let default =
  {
    shards = 1;
    hosts = 4;
    routers = 2;
    replication = 2;
    wire_mbps = 100;
    net = (Medium.Shared, Medium.clean);
    max_batch = 32;
    batch_delay_us = 500;
    pipeline_depth = 4;
    mix = Mix.ycsb_a;
    keys = 1_000;
    value_dist = Dist.Fixed 32;
    txn_size = 3;
    duration = Time.sec 2;
    warmup = Time.ms 500;
    seed = 11;
  }

type trial = {
  offered : float;
  attempted : int;
  completed : int;
  failed : int;
  throughput : float;
  completion : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  reads : int;
  updates : int;
  inserts : int;
  txns : int;
  hist : Histogram.t;
}

type acc = {
  hist : Histogram.t;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable reads : int;
  mutable updates : int;
  mutable inserts : int;
  mutable txns : int;
  mutable in_flight : int;
  mutable issued : int;
}

(* Multi-key transactions are single-shard by contract, so pick the
   base key's shard and walk the key space forward collecting keys
   that hash onto it.  Shards are balanced, so the expected scan is
   ~[want * shards] keys; the cap only guards a pathological map. *)
let colocated_keys map ~keys ~base ~want =
  let s0 = Shard_map.shard_of_key map (Keygen.key base) in
  let found = ref [ base ] and n = ref 1 and j = ref 1 in
  while !n < want && !j < keys && !j < 4096 do
    let ki = (base + !j) mod keys in
    if Shard_map.shard_of_key map (Keygen.key ki) = s0 then begin
      found := ki :: !found;
      incr n
    end;
    incr j
  done;
  List.rev !found

let make_value cfg rng ~issued =
  let size = Dist.draw cfg.value_dist rng in
  (* Unique stamp then pad: distinct bodies keep the checker's
     no-duplicates invariant meaningful. *)
  let stamp = Printf.sprintf "v%d." issued in
  let pad = max 0 (size - String.length stamp) in
  stamp ^ String.make pad 'x'

let one_op eng cfg ~map ~acc ~kg ~rng ~arrive ~measure_from router =
  let kind = Mix.draw cfg.mix rng in
  let measured = arrive >= measure_from in
  acc.issued <- acc.issued + 1;
  let issued = acc.issued in
  if measured then acc.attempted <- acc.attempted + 1;
  acc.in_flight <- acc.in_flight + 1;
  let ok =
    match kind with
    | Mix.Read -> (
        let ki = Keygen.sample kg rng in
        match Router.get router (Keygen.key ki) with
        | Router.Failed _ -> false
        | Router.Value _ | Router.Not_found | Router.Written -> true)
    | Mix.Update -> (
        let ki = Keygen.sample kg rng in
        let v = make_value cfg rng ~issued in
        match Router.put router (Keygen.key ki) v with
        | Router.Failed _ -> false
        | _ -> true)
    | Mix.Insert -> (
        let ki = Keygen.insert kg in
        let v = make_value cfg rng ~issued in
        match Router.put router (Keygen.key ki) v with
        | Router.Failed _ -> false
        | _ -> true)
    | Mix.Txn -> (
        let base = Keygen.sample kg rng in
        let kis =
          colocated_keys map ~keys:cfg.keys ~base ~want:(max 1 cfg.txn_size)
        in
        (* Read-modify-write: read every key, then rewrite every key —
           one batch RPC, whose writes commit as one sequencer round. *)
        let gets = List.map (fun ki -> Router.Get (Keygen.key ki)) kis in
        let puts =
          List.map
            (fun ki -> Router.Put (Keygen.key ki, make_value cfg rng ~issued))
            kis
        in
        match Router.txn router (gets @ puts) with
        | Error _ -> false
        | Ok replies ->
            not
              (List.exists
                 (function Router.Failed _ -> true | _ -> false)
                 replies))
  in
  (* CO-safe accounting: latency runs from the intended arrival, so
     time spent queued behind a backlog is charged, never skipped. *)
  let dt_ms = Time.to_ms (Engine.now eng - arrive) in
  acc.in_flight <- acc.in_flight - 1;
  if measured then
    if not ok then acc.failed <- acc.failed + 1
    else begin
      acc.completed <- acc.completed + 1;
      Histogram.add acc.hist dt_ms;
      match kind with
      | Mix.Read -> acc.reads <- acc.reads + 1
      | Mix.Update -> acc.updates <- acc.updates + 1
      | Mix.Insert -> acc.inserts <- acc.inserts + 1
      | Mix.Txn -> acc.txns <- acc.txns + 1
    end

type load = Open of float | Closed of int

let new_acc () =
  {
    hist = Histogram.create ();
    attempted = 0;
    completed = 0;
    failed = 0;
    reads = 0;
    updates = 0;
    inserts = 0;
    txns = 0;
    in_flight = 0;
    issued = 0;
  }

(* Offers [load] to [routers] over warmup + window, then drains.  The
   counters go into [acc], which ops that return after the drain still
   update: [run] reads it once the whole simulation is over, [drive]
   straight after the drain. *)
let drive_into acc cl ~map ~routers cfg load =
  let eng = cl.Cluster.engine in
  let routers = Array.of_list routers in
  let nr = Array.length routers in
  if nr = 0 then invalid_arg "Driver.drive: no routers";
  let kg = Keygen.create ~keys:cfg.keys cfg.mix.Mix.dist in
  let start = Engine.now eng in
  let measure_from = start + cfg.warmup in
  let stop = start + cfg.warmup + cfg.duration in
  let op ~rng ~arrive router =
    one_op eng cfg ~map ~acc ~kg ~rng ~arrive ~measure_from router
  in
  (match load with
  | Open rate ->
      if rate <= 0.0 then invalid_arg "Driver.drive: rate <= 0";
      let arrivals = Random.State.make [| cfg.seed; 0x10ad |] in
      (* Arrival times accumulate in float ns from the trial start so
         rounding never drifts the offered rate. *)
      let t_next = ref 0.0 in
      let k = ref 0 in
      let continue = ref true in
      while !continue do
        let u = Random.State.float arrivals 1.0 in
        t_next := !t_next +. (-.log (1.0 -. u) /. rate *. 1e9);
        let arrive = start + int_of_float !t_next in
        if arrive >= stop then continue := false
        else begin
          Engine.sleep eng (max 0 (arrive - Engine.now eng));
          let kk = !k in
          incr k;
          let rng = Random.State.make [| cfg.seed; 0x10ae; kk |] in
          Cluster.spawn cl (fun () -> op ~rng ~arrive routers.(kk mod nr))
        end
      done
  | Closed n ->
      if n <= 0 then invalid_arg "Driver.drive: no clients";
      for i = 0 to n - 1 do
        let rng = Random.State.make [| cfg.seed; 0x10af; i |] in
        Cluster.spawn cl (fun () ->
            (* Slow start: stagger client arrivals over the warmup.  A
               few thousand clients all firing at t=0 starve every
               host's CPU at once (locate broadcasts, first-contact
               RPCs), which the group kernels read as member failures
               — the measurement then starts with a reset storm no real
               deployment would begin from. *)
            if cfg.warmup > 0 && n > 1 then
              Engine.sleep eng (i * cfg.warmup / (n - 1));
            while Engine.now eng < stop do
              op ~rng ~arrive:(Engine.now eng) routers.(i mod nr)
            done)
      done;
      Engine.sleep eng (stop - Engine.now eng));
  (* Drain stragglers, bounded by a grace period: whatever is still
     stuck counts against the completion ratio. *)
  let deadline = Engine.now eng + Time.sec 3 in
  while acc.in_flight > 0 && Engine.now eng < deadline do
    Engine.sleep eng (Time.ms 10)
  done

let trial_of acc cfg ~offered ~hist =
  let dur_s = Time.to_sec cfg.duration in
  {
    offered;
    attempted = acc.attempted;
    completed = acc.completed;
    failed = acc.failed;
    throughput =
      (if dur_s > 0.0 then float_of_int acc.completed /. dur_s else 0.0);
    completion =
      (if acc.attempted = 0 then 1.0
       else float_of_int acc.completed /. float_of_int acc.attempted);
    mean_ms = Histogram.mean hist;
    p50_ms = Histogram.percentile hist 50.0;
    p95_ms = Histogram.percentile hist 95.0;
    p99_ms = Histogram.percentile hist 99.0;
    max_ms = Histogram.max_value hist;
    reads = acc.reads;
    updates = acc.updates;
    inserts = acc.inserts;
    txns = acc.txns;
    hist;
  }

let drive cl ~map ~routers cfg load =
  let acc = new_acc () in
  drive_into acc cl ~map ~routers cfg load;
  let offered = match load with Open rate -> rate | Closed _ -> 0.0 in
  (* A copy, so ops returning after the drain cannot move the figures. *)
  trial_of acc cfg ~offered ~hist:(Histogram.merge acc.hist (Histogram.create ()))

let run cfg ~rate =
  if rate <= 0.0 then invalid_arg "Driver.run: rate <= 0";
  let fabric, conditions = cfg.net in
  let tb =
    Testbed.create
      {
        Testbed.default with
        Testbed.shards = cfg.shards;
        hosts = cfg.hosts;
        routers = cfg.routers;
        replication = cfg.replication;
        fabric;
        wire_mbps = cfg.wire_mbps;
        pipeline_depth = cfg.pipeline_depth;
        max_batch = cfg.max_batch;
        batch_delay_us = cfg.batch_delay_us;
        seed = cfg.seed;
      }
  in
  let cl = tb.Testbed.cluster in
  let acc = new_acc () in
  Cluster.spawn cl (fun () ->
      let live = Testbed.deploy tb in
      (* Impair the wire only once the service stands: the trial
         measures steady state under these conditions, not whether
         bring-up survives them (the chaos suites cover that). *)
      Medium.set_conditions cl.Cluster.net conditions;
      drive_into acc cl ~map:tb.map ~routers:live.routers cfg (Open rate));
  Cluster.run ~until:(cfg.warmup + cfg.duration + Time.sec 60) cl;
  trial_of acc cfg ~offered:rate ~hist:acc.hist

let pp_trial ppf (t : trial) =
  Fmt.pf ppf
    "@[<v>%s: %d attempted, %d completed, %d failed \
     (%.0f ops/s through, completion %.3f)@,\
     latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f@,\
     %d reads, %d updates, %d inserts, %d txns@]"
    (if t.offered > 0.0 then Printf.sprintf "offered %.0f ops/s" t.offered
     else "closed loop")
    t.attempted t.completed t.failed t.throughput t.completion
    t.mean_ms t.p50_ms t.p95_ms t.p99_ms t.max_ms t.reads t.updates t.inserts
    t.txns
