(* The repository benchmark.

   One process runs one named workload (or all of them) against the public
   API of the libraries and times and counts it from outside: no library
   code knows it is being measured.  Every trial is checked (checker
   invariants, op accounting, generator lateness), the fixed-rate trials
   are replayed until the time budget is spent so host time is a median,
   and the last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   --trace 0 reports the end-to-end metrics.  --trace 1 replays the
   workload with the cluster trace enabled and benchmark spans around
   every Router call, SendToGroup, deploy, trial and knee probe, checks
   that the traced replay is event-for-event identical to the untraced
   one, and reports the per-layer metrics.  README.md in this directory
   says why each workload exists and which layer metric should move
   which end-to-end metric. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness
open Amoeba_service
module L = Amoeba_loadgen
module Ss = Amoeba_grouplib.Stable_store

(* ---- the correctness gate ---------------------------------------- *)

let problems = ref []
let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

(* ---- small statistics --------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted sample; nan when empty. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The latency limit of the knee: an op counts as served only when it
   completes within it. *)
let slo_ms = 50.

(* p99 is reported only with at least this many samples beyond it. *)
let min_tail = 10

(* ---- benchmark spans (traced run only) ---------------------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  sim0 : Time.t;
  sim1 : Time.t;
  host0 : float;
  host1 : float;
  info : string;
}

let tracing = ref false
let span_log = ref []
let span_next = ref 0
let op_spans = ref 0
let op_span_cap = 20_000
let op_spans_dropped = ref 0

let fresh_id () =
  incr span_next;
  !span_next

let add_span ?(host0 = 0.) ?(host1 = 0.) ~id ~parent ~name ~info sim0 sim1 =
  if !tracing then
    span_log := { id; parent; name; sim0; sim1; host0; host1; info } :: !span_log

(* One span per op, capped so a long window cannot grow memory without
   bound; the number dropped is written with the spans. *)
let op_span ~parent ~name ~info sim0 sim1 =
  if !tracing then
    if !op_spans < op_span_cap then begin
      incr op_spans;
      add_span ~id:(fresh_id ()) ~parent ~name ~info sim0 sim1
    end
    else incr op_spans_dropped

let write_spans path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"spans\": %d, \"op_spans_dropped\": %d, \"time\": \"sim ns, host s\"}\n"
    (List.length !span_log) !op_spans_dropped;
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"sim0\": %d, \"sim1\": \
         %d, \"host0\": %.6f, \"host1\": %.6f, \"info\": %S}\n"
        s.id s.parent s.name s.sim0 s.sim1 s.host0 s.host1 s.info)
    (List.rev !span_log);
  close_out oc

(* ---- stepping the simulation from outside ------------------------- *)

(* CPU nanoseconds per trace layer inside the measured window, wire
   time excluded. *)
type cpu = { by_layer : (string, int) Hashtbl.t; mutable evicted : int }

let harvest (cl : Cluster.t) cpu ~keep =
  let tr = cl.Cluster.trace in
  if keep then begin
    cpu.evicted <- cpu.evicted + (Trace.recorded tr - Trace.retained tr);
    List.iter
      (fun (s : Trace.span) ->
        if s.host <> "wire" then
          let d = s.stop - s.start in
          match Hashtbl.find_opt cpu.by_layer s.layer with
          | Some v -> Hashtbl.replace cpu.by_layer s.layer (v + d)
          | None -> Hashtbl.add cpu.by_layer s.layer d)
      (Trace.spans tr)
  end;
  Trace.clear tr

(* Runs the cluster to [until] in slices, harvesting trace spans between
   slices (they are read off the trace ring, which holds 65 536).
   Slicing adds no engine events: a sliced run replays exactly the event
   sequence of a single [Cluster.run]. *)
let advance ?(stop_when = fun () -> false) ~traced ~keep cl cpu until =
  let cap = 65_536 in
  let rec go slice =
    if (not (stop_when ())) && Cluster.now cl < until then begin
      let t = min until (Cluster.now cl + slice) in
      Cluster.run ~until:t cl;
      let n = Trace.recorded cl.Cluster.trace in
      if traced then harvest cl cpu ~keep;
      (* Size the next slice so the ring never wraps between harvests. *)
      let slice =
        if not (traced && keep) then Time.ms 20
        else if n > cap / 4 then max (Time.us 10) (slice / 2)
        else if n < cap / 16 then min (Time.ms 20) (slice * 2)
        else slice
      in
      if Cluster.now cl >= t then go slice
    end
  in
  go (if traced && keep then Time.ms 1 else Time.ms 20)

type snap = {
  at : Time.t;
  frames : int;
  bytes : int;
  collisions : int;
  queue_drops : int;
  rx_dropped : int;
  cpu_busy : Time.t array;
  disk_busy : Time.t array;
}

let snap (cl : Cluster.t) =
  let m = cl.Cluster.net in
  {
    at = Cluster.now cl;
    frames = Medium.frames_delivered m;
    bytes = Medium.bytes_delivered m;
    collisions = Medium.collisions m;
    queue_drops = Medium.queue_drops m;
    rx_dropped =
      Array.fold_left
        (fun a mc -> a + Nic.rx_dropped (Machine.nic mc))
        0 cl.Cluster.machines;
    cpu_busy =
      Array.map (fun mc -> Resource.busy_time (Machine.cpu mc)) cl.machines;
    disk_busy =
      Array.map (fun mc -> Resource.busy_time (Machine.disk mc)) cl.machines;
  }

(* Window metrics of the net layer.  [ops] is the per-op denominator;
   host roles index [cl.machines]. *)
let net_layer a b ~util ~ops ~seqs ~replicas ~routers =
  let w = fi (b.at - a.at) in
  let busy arr_a arr_b i = fi (arr_b.(i) - arr_a.(i)) /. w in
  let cpu i = busy a.cpu_busy b.cpu_busy i in
  let mean = function
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. fi (List.length l)
  in
  let hosts = List.init (Array.length a.cpu_busy) Fun.id in
  [
    ("net.frames_per_op", ratio (fi (b.frames - a.frames)) ops);
    ("net.bytes_per_op", ratio (fi (b.bytes - a.bytes)) ops);
    ("net.utilisation", util);
    ("net.collisions", fi (b.collisions - a.collisions));
    ("net.queue_drops", fi (b.queue_drops - a.queue_drops));
    ("net.nic_rx_dropped", fi (b.rx_dropped - a.rx_dropped));
    ("net.cpu_util.seq_max", List.fold_left max 0. (List.map cpu seqs));
    ("net.cpu_util.replica_mean", mean (List.map cpu replicas));
    ("net.cpu_util.router_mean", mean (List.map cpu routers));
    ( "net.disk_util_max",
      List.fold_left max 0.
        (List.map (busy a.disk_busy b.disk_busy) hosts) );
  ]

let cpu_layer cpu ~ops =
  List.map
    (fun l ->
      let ns = Option.value ~default:0 (Hashtbl.find_opt cpu.by_layer l) in
      ("cpu_us_per_op." ^ l, ratio (fi ns /. 1e3) ops))
    [ "ether"; "flip"; "group"; "rpc"; "user" ]

(* ---- one trial ----------------------------------------------------- *)

type trial = {
  label : string;
  rate : float;  (** offered ops/s; senders for a closed loop *)
  attempted : int;
  completed : int;
  failed : int;
  unfinished : int;
  lats : float array;  (** completed measured latencies, sorted, ms *)
  hist : L.Histogram.t;  (** the same samples, as Loadgen.Driver keeps them *)
  late_ms : float;  (** worst lateness of the arrival generator *)
  events : int;  (** engine events when the trial's driver finished *)
  setup_s : float;  (** host s to build the cluster and deploy *)
  host_s : float;  (** host CPU s of the whole trial *)
  tput : float;  (** completed (group: sequenced) per second of window *)
  layer : (string * float) list;
}

(* Everything simulated about a trial, for the determinism checks. *)
let fingerprint t =
  Printf.sprintf "%s %d/%d/%d/%d p50=%h p99=%h tput=%h events=%d %s" t.label
    t.attempted t.completed t.failed t.unfinished (pct t.lats 50.)
    (pct t.lats 99.) t.tput t.events
    (String.concat ","
       (List.filter_map
          (fun (k, v) ->
            if String.starts_with ~prefix:"cpu_" k then None
            else Some (Printf.sprintf "%s=%h" k v))
          t.layer))

(* Served-within-limit p99 over everything attempted: failed and
   unfinished ops count as over any limit. *)
let p99_attempted t =
  let rank = int_of_float (Float.ceil (0.99 *. fi t.attempted)) in
  if t.attempted = 0 then nan
  else if rank > Array.length t.lats then infinity
  else t.lats.(rank - 1)

type acc = {
  hist : L.Histogram.t;
  mutable lats : float list;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable in_flight : int;
  mutable measured_in_flight : int;
  mutable issued : int;
  mutable late : Time.t;
}

let new_acc () =
  {
    hist = L.Histogram.create ();
    lats = [];
    attempted = 0;
    completed = 0;
    failed = 0;
    in_flight = 0;
    measured_in_flight = 0;
    issued = 0;
    late = 0;
  }

let op_begins acc ~measured =
  acc.issued <- acc.issued + 1;
  acc.in_flight <- acc.in_flight + 1;
  if measured then begin
    acc.attempted <- acc.attempted + 1;
    acc.measured_in_flight <- acc.measured_in_flight + 1
  end

let op_ends acc ~measured ~ok dt_ms =
  acc.in_flight <- acc.in_flight - 1;
  if measured then begin
    acc.measured_in_flight <- acc.measured_in_flight - 1;
    if not ok then acc.failed <- acc.failed + 1
    else begin
      acc.completed <- acc.completed + 1;
      L.Histogram.add acc.hist dt_ms;
      acc.lats <- dt_ms :: acc.lats
    end
  end

(* Poisson arrivals at [rate] from [start] until [stop], scheduled as
   Loadgen.Driver schedules them: arrival times accumulate in float ns so
   rounding never drifts the rate.  [f k arrive] runs at the k-th
   arrival, which must never find the clock already past it. *)
let poisson eng acc ~seed ~salt ~rate ~start ~stop f =
  let arrivals = Random.State.make [| seed; salt |] in
  let t_next = ref 0.0 and k = ref 0 and continue = ref true in
  while !continue do
    let u = Random.State.float arrivals 1.0 in
    t_next := !t_next +. (-.log (1.0 -. u) /. rate *. 1e9);
    let arrive = start + int_of_float !t_next in
    if arrive >= stop then continue := false
    else begin
      Engine.sleep eng (max 0 (arrive - Engine.now eng));
      acc.late <- max acc.late (Engine.now eng - arrive);
      f !k arrive;
      incr k
    end
  done

let finish_trial ~label ~rate ~acc ~events ~setup_s ~h0 ~tput ~layer =
  let t =
    {
      label;
      rate;
      attempted = acc.attempted;
      completed = acc.completed;
      failed = acc.failed;
      unfinished = acc.measured_in_flight;
      lats = sorted acc.lats;
      hist = acc.hist;
      late_ms = Time.to_ms acc.late;
      events;
      setup_s;
      host_s = Sys.time () -. h0;
      tput;
      layer;
    }
  in
  if t.attempted <> t.completed + t.failed + t.unfinished then
    fail "%s: attempted %d <> completed %d + failed %d + unfinished %d" label
      t.attempted t.completed t.failed t.unfinished;
  if t.late_ms > 0. then
    fail "%s: arrival generator ran %.3f ms late" label t.late_ms;
  if t.attempted = 0 then fail "%s: no op attempted" label;
  t

type window = {
  a : snap;  (** at the window's start *)
  b : snap;  (** at its end *)
  util : float;  (** wire utilisation over the window *)
  measure_from : Time.t;
  stop : Time.t;
  events : int;
}

(* Drives a trial's cluster from outside: bring-up until the driver sets
   [start_r], the measured window between two snapshots (with [mid] run
   at its midpoint), then the drain until the driver sets [done_r] to
   the engine's event count. *)
let drive ?mid cl cpu ~traced ~harvest ~label ~warmup ~duration ~limit
    ~start_r ~done_r =
  advance ~traced ~keep:false cl cpu limit ~stop_when:(fun () ->
      !start_r <> None);
  let start =
    match !start_r with
    | Some s -> s
    | None -> failwith (label ^ ": bring-up never finished")
  in
  let measure_from = start + warmup and stop = start + warmup + duration in
  advance ~traced ~keep:false cl cpu measure_from;
  let a = snap cl in
  Medium.reset_utilisation_window cl.Cluster.net;
  Option.iter
    (fun f ->
      advance ~traced ~keep:harvest cl cpu (measure_from + (duration / 2));
      f ())
    mid;
  advance ~traced ~keep:harvest cl cpu stop;
  let b = snap cl in
  let util = Medium.utilisation cl.Cluster.net in
  advance ~traced ~keep:false cl cpu limit ~stop_when:(fun () ->
      !done_r <> None);
  let events =
    match !done_r with
    | Some e -> e
    | None ->
        fail "%s: trial did not finish" label;
        Engine.step_count cl.Cluster.engine
  in
  if traced && cpu.evicted > 0 then
    fail "%s: %d trace spans evicted inside the window" label cpu.evicted;
  { a; b; util; measure_from; stop; events }

(* Longest gap between successive [times] inside the window
   [lo, hi] that ends after [from]; the window's edges count as
   successes. *)
let longest_gap times ~from ~lo ~hi =
  let ts = List.filter (fun t -> t > lo && t < hi) (List.rev times) @ [ hi ] in
  fst
    (List.fold_left
       (fun (best, prev) t ->
         ((if t > from then max best (t - prev) else best), t))
       (0, lo) ts)

(* ---- the sharded service ------------------------------------------ *)

(* Both kv workloads share one topology and mix: YCSB-A plus 5 % 3-key
   transactions over 1 000 keys, 4 shards over 8 hosts and 4 routers on
   one 100 Mbit shared Ether, 2 s windows after 0.5 s warmup. *)
let n_shards = 4
let n_hosts = 8
let n_routers = 4
let wire_mbps = 100
let keys = 1_000
let txn_size = 3
let mix = L.Mix.with_txn L.Mix.ycsb_a ~size_hint:txn_size 0.05
let kv_warmup = Time.ms 500
let kv_window = Time.sec 2

type kv = {
  replication : int;
  durable : bool;  (** ssd, group fsync every 8, checkpoint every 64 *)
  drain : Time.t;
      (** how long stragglers may finish after the window; Loadgen.Driver
          allows 3 s *)
  attempts : int;  (** per-op router attempt budget; the Router default is 12 *)
}

let max_batch = 32
let batch_delay_us = 500
let pipeline_depth = 4
let value_dist = L.Dist.Fixed 32

(* The Loadgen.Driver configuration the benchmark's runner reproduces. *)
let driver_config (w : kv) ~seed =
  {
    L.Driver.shards = n_shards;
    hosts = n_hosts;
    routers = n_routers;
    replication = w.replication;
    wire_mbps;
    net = (Medium.Shared, Medium.clean);
    max_batch;
    batch_delay_us;
    pipeline_depth;
    mix;
    keys;
    value_dist;
    txn_size;
    duration = kv_window;
    warmup = kv_warmup;
    seed;
  }

(* As in Loadgen.Driver: a transaction's keys all hash to its base key's
   shard. *)
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

let make_value rng ~issued =
  let size = L.Dist.draw value_dist rng in
  let stamp = Printf.sprintf "v%d." issued in
  stamp ^ String.make (max 0 (size - String.length stamp)) 'x'

type kv_extra = {
  kinds : (L.Mix.op_kind, float list ref) Hashtbl.t;
  mutable txn_reqs : int;  (** gets and puts shipped inside transactions *)
  failures : (string, int) Hashtbl.t;  (** why measured ops failed *)
  mutable shard0_writes : Time.t list;  (** success times, newest first *)
}

(* One op, drawing from [rng] in exactly Loadgen.Driver's order. *)
let kv_op eng ~map ~acc ~ex ~kg ~rng ~arrive ~measure_from ~parent
    router =
  let kind = L.Mix.draw mix rng in
  let measured = arrive >= measure_from in
  op_begins acc ~measured;
  let issued = acc.issued in
  let why = ref "" in
  let ok_reply = function
    | Router.Failed e ->
        why := e;
        false
    | _ -> true
  in
  let name, shard, ok =
    match kind with
    | L.Mix.Read ->
        let ki = Keygen.sample kg rng in
        ("router.get", -1, ok_reply (Router.get router (Keygen.key ki)))
    | L.Mix.Update ->
        let ki = Keygen.sample kg rng in
        let v = make_value rng ~issued in
        let k = Keygen.key ki in
        ("router.put", Shard_map.shard_of_key map k, ok_reply (Router.put router k v))
    | L.Mix.Insert ->
        let ki = Keygen.insert kg in
        let v = make_value rng ~issued in
        let k = Keygen.key ki in
        ("router.put", Shard_map.shard_of_key map k, ok_reply (Router.put router k v))
    | L.Mix.Txn ->
        let base = Keygen.sample kg rng in
        let kis =
          colocated_keys map ~keys ~base ~want:(max 1 txn_size)
        in
        let gets = List.map (fun ki -> Router.Get (Keygen.key ki)) kis in
        let puts =
          List.map
            (fun ki -> Router.Put (Keygen.key ki, make_value rng ~issued))
            kis
        in
        ex.txn_reqs <- ex.txn_reqs + (2 * List.length kis);
        let ok =
          match Router.txn router (gets @ puts) with
          | Error e ->
              why := e;
              false
          | Ok replies -> List.for_all ok_reply replies
        in
        ("router.txn", Shard_map.shard_of_key map (Keygen.key base), ok)
  in
  let now = Engine.now eng in
  let dt_ms = Time.to_ms (now - arrive) in
  op_ends acc ~measured ~ok dt_ms;
  if measured && not ok then
    Hashtbl.replace ex.failures !why
      (1 + Option.value ~default:0 (Hashtbl.find_opt ex.failures !why));
  if measured && ok then begin
    let k = match kind with L.Mix.Insert -> L.Mix.Update | k -> k in
    (match Hashtbl.find_opt ex.kinds k with
    | Some r -> r := dt_ms :: !r
    | None -> Hashtbl.add ex.kinds k (ref [ dt_ms ]));
    if shard = 0 then ex.shard0_writes <- now :: ex.shard0_writes
  end;
  if measured then
    op_span ~parent ~name
      ~info:(if ok then "ok" else "failed")
      arrive now

(* One open-loop trial: Loadgen.Driver.run's cluster, arrivals and op
   stream, plus the record tap, the checker, optional durability, an
   optional crash of shard 0's sequencer host mid-window, window
   snapshots and the traced CPU harvest. *)
let kv_trial ?crash ?(harvest = true) ~traced ~parent ~label (w : kv) ~seed
    ~rate =
  let h0 = Sys.time () in
  let duration = Option.value crash ~default:kv_window in
  let trial_id = fresh_id () in
  let host_list = List.init n_hosts Fun.id in
  let map =
    Shard_map.create ~shards:n_shards ~replication:w.replication
      ~hosts:host_list ()
  in
  let cost = Cost_model.(with_mbps wire_mbps default) in
  let cost =
    if w.durable then { cost with Cost_model.disk = Cost_model.ssd } else cost
  in
  let cl =
    Cluster.create ~cost ~seed ~n:(n_hosts + n_routers) ()
  in
  if traced then Trace.enable cl.Cluster.trace;
  let cpu = { by_layer = Hashtbl.create 8; evicted = 0 } in
  let eng = cl.Cluster.engine in
  let store = if w.durable then Some (Ss.create ()) else None in
  let durable =
    Option.map
      (fun s ->
        {
          Service.d_store = s;
          d_sync = Amoeba_grouplib.Rsm.Group_fsync 8;
          d_checkpoint_every = 64;
        })
      store
  in
  let acc = new_acc () in
  let ex =
    { kinds = Hashtbl.create 4; txn_reqs = 0; failures = Hashtbl.create 4;
      shard0_writes = [] }
  in
  let svc_r = ref None and routers_r = ref [||] in
  let start_r = ref None and done_r = ref None in
  let setup_s = ref 0. and deploy_ms = ref 0. in
  Cluster.spawn cl (fun () ->
      let t0 = Engine.now eng and hd = Sys.time () in
      let svc =
        Service.deploy cl ~map ~resilience:1 ~pipeline:pipeline_depth
          ?durable ~record:true ()
      in
      deploy_ms := Time.to_ms (Engine.now eng - t0);
      add_span ~id:(fresh_id ()) ~parent:trial_id ~name:"service.deploy"
        ~info:"" ~host0:hd ~host1:(Sys.time ()) t0 (Engine.now eng);
      svc_r := Some svc;
      let routers =
        Array.init n_routers (fun i ->
            Router.create
              (Cluster.flip cl (n_hosts + i))
              ~max_batch ~pipeline:1 ~attempts:w.attempts
              ~batch_delay:(Time.us batch_delay_us)
              ~map ~endpoints:(Service.endpoints svc) ())
      in
      routers_r := routers;
      (* As Loadgen.Driver does, so the two replay the same events. *)
      Medium.set_conditions cl.Cluster.net Medium.clean;
      let kg = Keygen.create ~keys mix.L.Mix.dist in
      let start = Engine.now eng in
      setup_s := Sys.time () -. h0;
      start_r := Some start;
      let measure_from = start + kv_warmup in
      let stop = start + kv_warmup + duration in
      poisson eng acc ~seed ~salt:0x10ad ~rate ~start ~stop (fun k arrive ->
          let rng = Random.State.make [| seed; 0x10ae; k |] in
          Cluster.spawn cl (fun () ->
              kv_op eng ~map ~acc ~ex ~kg ~rng ~arrive ~measure_from
                ~parent:trial_id
                routers.(k mod n_routers)));
      let deadline = Engine.now eng + w.drain in
      while acc.in_flight > 0 && Engine.now eng < deadline do
        Engine.sleep eng (Time.ms 10)
      done;
      done_r := Some (Engine.step_count eng));
  let victim = Shard_map.sequencer_host map 0 in
  let win =
    drive cl cpu ~traced ~harvest ~label ~warmup:kv_warmup ~duration
      ~limit:(kv_warmup + duration + w.drain + Time.sec 60)
      ~start_r ~done_r
      ?mid:
        (Option.map
           (fun _ () -> Machine.crash (Cluster.machine cl victim))
           crash)
  in
  let svc = Option.get !svc_r in
  let crashed = if crash <> None then [ victim ] else [] in
  (* Let every live replica apply what its group sequenced before the
     checker holds the streams to durability. *)
  let settled () =
    List.for_all
      (fun shard ->
        match
          List.filter_map
            (fun (h, n) -> if List.mem h crashed then None else Some n)
            (Service.applied svc shard)
        with
        | [] -> true
        | n :: rest -> List.for_all (( = ) n) rest)
      (List.init n_shards Fun.id)
  in
  advance ~traced ~keep:false cl cpu
    (Cluster.now cl + Time.sec 10)
    ~stop_when:settled;
  if not (settled ()) then
    fail "%s: replicas still disagree 10 s after the trial" label;
  List.iter
    (fun (shard, vs) ->
      List.iter
        (fun (v : Checker.verdict) ->
          if not v.ok then
            fail "%s: shard %d: %s: %s" label shard v.invariant v.detail)
        vs)
    (Service.check svc ~crashed);
  Hashtbl.iter
    (fun why n ->
      Printf.printf "  %s %.1f ops/s seed %d: %d ops failed: %s\n" label rate
        seed n why)
    ex.failures;
  (* Per-layer figures. *)
  let ops = fi acc.attempted in
  let issued = fi acc.issued in
  let rs = Array.map Router.stats !routers_r in
  let rsum f = fi (Array.fold_left (fun s r -> s + f r) 0 rs) in
  let batches = rsum (fun s -> s.Router.batches_sent) in
  let shard_ops = Array.map fi (Service.shard_ops svc) in
  let mean_ops = Array.fold_left ( +. ) 0. shard_ops /. fi n_shards in
  let kind_p99 k =
    match Hashtbl.find_opt ex.kinds k with
    | Some r -> pct (sorted !r) 99.
    | None -> 0.
  in
  let seqs = List.init n_shards (Shard_map.sequencer_host map) in
  let store_c = Option.map Ss.counters store in
  let sc f = match store_c with Some c -> fi (f c) | None -> 0. in
  let from =
    if crash <> None then win.measure_from + (duration / 2)
    else win.measure_from
  in
  let layer =
    net_layer win.a win.b ~util:win.util ~ops ~seqs ~replicas:host_list
      ~routers:(List.init n_routers (fun i -> n_hosts + i))
    @ (if traced && harvest then cpu_layer cpu ~ops else [])
    @ [
        ( "service.ops_per_batch",
          ratio (rsum (fun s -> s.Router.ops_batched)) batches );
        (* A worker flush ships either a multi-op batch or one lone op;
           transactions bypass the workers. *)
        ( "service.partial_flush_share",
          ratio
            (rsum (fun s -> s.Router.partial_flushes))
            (batches
            +. rsum (fun s -> s.Router.ops - s.Router.ops_batched)
            -. fi ex.txn_reqs) );
        ( "service.retry_share",
          ratio
            (rsum (fun s -> s.Router.retries + s.Router.batch_retries))
            (rsum (fun s -> s.Router.ops)) );
        ("service.failovers", rsum (fun s -> s.Router.failovers));
        ("service.probes_dead", rsum (fun s -> s.Router.probes_dead));
        ("service.writes_busy", fi (Service.writes_busy svc));
        ( "service.shard_skew",
          ratio (Array.fold_left max 0. shard_ops) mean_ops );
        ("service.read_p99_ms", kind_p99 L.Mix.Read);
        ("service.update_p99_ms", kind_p99 L.Mix.Update);
        ("service.txn_p99_ms", kind_p99 L.Mix.Txn);
        ("service.deploy_sim_ms", !deploy_ms);
        ( "service.unavail_ms",
          Time.to_ms
            (longest_gap ex.shard0_writes ~from ~lo:win.measure_from
               ~hi:win.stop) );
        ( "grouplib.wal_appends_per_op",
          ratio (sc (fun c -> c.Ss.wal_appends)) issued );
        ("grouplib.fsyncs_per_op", ratio (sc (fun c -> c.Ss.fsyncs)) issued);
        ("grouplib.checkpoints", sc (fun c -> c.Ss.kv_writes));
      ]
  in
  let t =
    finish_trial ~label ~rate ~acc ~events:win.events ~setup_s:!setup_s ~h0
      ~tput:(fi acc.completed /. Time.to_sec duration)
      ~layer
  in
  add_span ~id:trial_id ~parent ~name:"trial" ~host0:h0 ~host1:(Sys.time ())
    ~info:(Printf.sprintf "%s %.1f ops/s seed %d" label rate seed)
    (win.measure_from - kv_warmup) (Cluster.now cl);
  t

(* ---- the raw group on the paper's testbed ------------------------- *)

type group_load =
  | Closed of int  (** this many members send back to back, member 1 first *)
  | Open of float  (** Poisson sends at this rate, spread over the members *)

let members = 8

(* One trial of the raw group: 8 members on the MC68030 cost model and
   the 10 Mbit shared Ether, PB, r = 0, 0-byte messages.  Every member
   consumes its delivery stream, which is logged for the checker. *)
let group_trial ?(harvest = true) ~traced ~parent ~label ~seed ~warmup
    ~duration load =
  let h0 = Sys.time () in
  let trial_id = fresh_id () in
  let cl = Cluster.create ~cost:Cost_model.default ~seed ~n:members () in
  if traced then Trace.enable cl.Cluster.trace;
  let cpu = { by_layer = Hashtbl.create 8; evicted = 0 } in
  let eng = cl.Cluster.engine in
  let acc = new_acc () in
  let logs = Array.make members [] in
  let sends : (int, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let sent = Array.make members 0 in
  let groups_r = ref [||] in
  let done_times = ref [] in
  let start_r = ref None and done_r = ref None and setup_s = ref 0. in
  Cluster.spawn cl (fun () ->
      let t0 = Engine.now eng and hd = Sys.time () in
      let creator =
        Api.create_group (Cluster.flip cl 0) ~resilience:0 ~send_method:Types.Pb
          ()
      in
      let addr = Api.group_address creator in
      let gs =
        Array.init members (fun i ->
            if i = 0 then creator
            else
              match
                Api.join_group (Cluster.flip cl i) ~resilience:0
                  ~send_method:Types.Pb addr
              with
              | Ok g -> g
              | Error e -> failwith ("join failed: " ^ Types.error_to_string e))
      in
      add_span ~id:(fresh_id ()) ~parent:trial_id ~name:"api.create_group"
        ~info:"" ~host0:hd ~host1:(Sys.time ()) t0 (Engine.now eng);
      groups_r := gs;
      Array.iteri
        (fun i g ->
          Cluster.spawn cl (fun () ->
              let rec loop () =
                logs.(i) <- Api.receive_from_group g :: logs.(i);
                loop ()
              in
              loop ()))
        gs;
      let start = Engine.now eng in
      setup_s := Sys.time () -. h0;
      start_r := Some start;
      let measure_from = start + warmup and stop = start + warmup + duration in
      let send i ~arrive =
        let measured = arrive >= measure_from in
        op_begins acc ~measured;
        let r = Api.send_to_group gs.(i) Bytes.empty in
        let now = Engine.now eng in
        (match r with
        | Ok seq ->
            Hashtbl.replace sends seq (i, sent.(i));
            sent.(i) <- sent.(i) + 1;
            if measured then done_times := now :: !done_times
        | Error _ -> ());
        op_ends acc ~measured ~ok:(Result.is_ok r) (Time.to_ms (now - arrive));
        if measured then
          op_span ~parent:trial_id ~name:"api.send_to_group"
            ~info:(Printf.sprintf "m%d" i) arrive now
      in
      (match load with
      | Closed n ->
          for i = 1 to n do
            let m = i mod members in
            Cluster.spawn cl (fun () ->
                while Engine.now eng < stop do
                  send m ~arrive:(Engine.now eng)
                done)
          done;
          Engine.sleep eng (stop - Engine.now eng)
      | Open rate ->
          poisson eng acc ~seed ~salt:0x6e0 ~rate ~start ~stop (fun k arrive ->
              Cluster.spawn cl (fun () -> send (k mod members) ~arrive)));
      (* Drain: every send resolves and every member delivers all that
         was sequenced, bounded like the kv drain. *)
      let deadline = Engine.now eng + Time.sec 3 in
      let caught_up () =
        let top = Kernel.next_expected (Api.kernel gs.(0)) in
        Array.for_all
          (fun g -> Kernel.next_expected (Api.kernel g) >= top)
          gs
      in
      while
        (acc.in_flight > 0 || not (caught_up ())) && Engine.now eng < deadline
      do
        Engine.sleep eng (Time.ms 10)
      done;
      done_r := Some (Engine.step_count eng));
  let win =
    drive cl cpu ~traced ~harvest ~label ~warmup ~duration
      ~limit:(warmup + duration + Time.sec 60)
      ~start_r ~done_r
  in
  let gs = !groups_r in
  (* The checker: bodies are 0 bytes, so each delivered message is
     labelled from what its sender's SendToGroup returned — "o<m>.<k>",
     the k-th send of member m.  A closed-loop member has one send
     outstanding, so its k must rise along every stream; open-loop
     sends overlap and are labelled by sequence number only. *)
  let closed = match load with Closed _ -> true | Open _ -> false in
  let tag seq sender =
    match Hashtbl.find_opt sends seq with
    | Some (m, k) ->
        if m <> sender then
          fail "%s: seq %d delivered from member %d, sent by %d" label seq
            sender m;
        if closed then Printf.sprintf "o%d.%d" m k else Printf.sprintf "s%d" seq
    | None -> Printf.sprintf "pending%d" seq
  in
  let streams =
    Array.to_list
      (Array.mapi
         (fun i evs ->
           {
             Checker.label = Printf.sprintf "m%d" i;
             events =
               List.rev_map
                 (function
                   | Types.Message { seq; sender; body = _ } ->
                       Types.Message
                         { seq; sender; body = Bytes.of_string (tag seq sender) }
                   | e -> e)
                 evs;
             full = true;
           })
         logs)
  in
  List.iter
    (fun (v : Checker.verdict) ->
      if not v.ok then fail "%s: %s: %s" label v.invariant v.detail)
    [
      Checker.total_order streams;
      Checker.no_dup_no_skip streams;
    ];
  let ks = Array.map (fun g -> Kernel.stats (Api.kernel g)) gs in
  let ksum f = fi (Array.fold_left (fun s st -> s + f st) 0 ks) in
  let ops = fi acc.attempted in
  let layer =
    net_layer win.a win.b ~util:win.util ~ops ~seqs:[ 0 ]
      ~replicas:(List.init (members - 1) (fun i -> i + 1))
      ~routers:[]
    @ (if traced && harvest then cpu_layer cpu ~ops else [])
    @ [
        ("core.retransmissions", ksum (fun s -> s.Kernel.retransmissions));
        ("core.nacks_sent", ksum (fun s -> s.Kernel.nacks_sent));
        ( "core.status_solicitations",
          ksum (fun s -> s.Kernel.status_solicitations) );
        ( "core.pipeline_hwm",
          fi (Array.fold_left (fun m s -> max m s.Kernel.pipeline_depth_hwm) 0 ks) );
        ( "service.unavail_ms",
          Time.to_ms
            (longest_gap !done_times ~from:win.measure_from
               ~lo:win.measure_from ~hi:win.stop) );
      ]
  in
  let t =
    finish_trial ~label
      ~rate:(match load with Closed n -> fi n | Open r -> r)
      ~acc ~events:win.events ~setup_s:!setup_s ~h0
      ~tput:(fi acc.completed /. Time.to_sec duration)
      ~layer
  in
  add_span ~id:trial_id ~parent ~name:"trial" ~host0:h0 ~host1:(Sys.time ())
    ~info:(Printf.sprintf "%s seed %d" label seed)
    (win.measure_from - warmup) (Cluster.now cl);
  t

(* ---- workloads ------------------------------------------------------ *)

type workload = {
  name : string;
  why : string;
  config : string;  (** canonical description, digested into the stamp *)
  light : traced:bool -> parent:int -> seed:int -> trial;
  heavy : traced:bool -> parent:int -> seed:int -> trial;
  probe : traced:bool -> parent:int -> seed:int -> float -> trial;
  knee_lo : float;  (** the knee search doubles up from here *)
  heavy_is_probe : bool;  (** a knee probe at the heavy rate is the heavy trial *)
  seeds : int;  (** the fixed-rate trials run on this many derived seeds *)
  knee_seeds : int;  (** knee searches, on the first of those seeds *)
  fidelity : (seed:int -> trial -> unit) option;
}

(* The i-th workload seed derived from the run's --seed: a run pools
   several seeds so one seed's luck does not move its figures. *)
let derive seed i = (seed * 1000) + i

let kv_workload ~name ~why ~light ~heavy ?crash ?fidelity ~knee_lo
    ~seeds ~knee_seeds (w : kv) =
  let config =
    Printf.sprintf
      "%s shards=%d hosts=%d routers=%d replication=%d wire=%d net=ether \
       mix=%s keys=%d txn=%d warmup=%d window=%d durable=%b drain=%d \
       attempts=%d batch=%d delay=%d depth=%d light=%g heavy=%g \
       crash_window=%d seeds=%d knee_seeds=%d"
      name n_shards n_hosts n_routers w.replication wire_mbps mix.L.Mix.name
      keys txn_size kv_warmup kv_window w.durable w.drain w.attempts max_batch
      batch_delay_us pipeline_depth light heavy
      (Option.value crash ~default:0)
      seeds knee_seeds
  in
  {
    name;
    why;
    config;
    light = (fun ~traced ~parent ~seed ->
      kv_trial ~traced ~parent ~label:"light" w ~seed ~rate:light);
    heavy = (fun ~traced ~parent ~seed ->
      kv_trial ?crash ~traced ~parent ~label:"heavy" w ~seed ~rate:heavy);
    probe = (fun ~traced ~parent ~seed rate ->
      kv_trial ~harvest:false ~traced ~parent ~label:"probe" w ~seed ~rate);
    knee_lo;
    heavy_is_probe = crash = None;
    seeds;
    knee_seeds;
    fidelity = Option.map (fun f -> f w) fidelity;
  }

(* The heavy trial must reproduce Loadgen.Driver.run exactly. *)
let driver_fidelity (w : kv) ~seed (t : trial) =
  let d = L.Driver.run (driver_config w ~seed) ~rate:t.rate in
  let ours =
    ( t.attempted,
      t.completed,
      t.failed,
      L.Histogram.percentile t.hist 50.,
      L.Histogram.percentile t.hist 99. )
  in
  let theirs = (d.attempted, d.completed, d.failed, d.p50_ms, d.p99_ms) in
  let show (a, c, f, p50, p99) =
    Printf.sprintf "attempted %d completed %d failed %d p50 %.4f p99 %.4f" a c
      f p50 p99
  in
  Printf.printf "  fidelity  Loadgen.Driver.run at %.0f ops/s: %s\n" t.rate
    (show theirs);
  Printf.printf "            benchmark runner:            %s  %s\n" (show ours)
    (if ours = theirs then "MATCH" else "MISMATCH");
  if ours <> theirs then
    fail "driver fidelity: %s vs %s" (show ours) (show theirs)

let group_paper =
  let warmup = Time.ms 500 in
  let closed_window = Time.sec 20 and open_window = Time.sec 4 in
  let seeds = 1 and knee_seeds = 3 in
  {
    name = "group-paper";
    why =
      "raw group on the paper's testbed: engine, Ether, NIC, FLIP and the \
       sequencer path, with no router, RPC or Rsm";
    config =
      Printf.sprintf
        "group-paper members=%d cost=mc68030 wire=10 method=pb r=0 size=0 \
         warmup=%d closed=%d open=%d light=1sender heavy=%dsenders seeds=%d \
         knee_seeds=%d"
        members warmup closed_window open_window members seeds knee_seeds;
    light = (fun ~traced ~parent ~seed ->
      group_trial ~traced ~parent ~label:"light" ~seed ~warmup
        ~duration:closed_window (Closed 1));
    heavy = (fun ~traced ~parent ~seed ->
      group_trial ~traced ~parent ~label:"heavy" ~seed ~warmup
        ~duration:closed_window (Closed members));
    probe = (fun ~traced ~parent ~seed rate ->
      group_trial ~harvest:false ~traced ~parent ~label:"probe" ~seed ~warmup
        ~duration:open_window (Open rate));
    knee_lo = 400.;
    heavy_is_probe = false;
    seeds;
    knee_seeds;
    fidelity = None;
  }

let workloads =
  [
    group_paper;
    kv_workload ~name:"kv-ycsb-a"
      ~why:
        "update-heavy YCSB-A on 4 shards over a shared 100 Mbit wire near \
         saturation: sequencer rounds, router batching and Rsm apply"
      ~light:1000. ~heavy:2500. ~fidelity:driver_fidelity ~knee_lo:2500.
      ~seeds:8 ~knee_seeds:7
      { replication = 2; durable = false; drain = Time.sec 3; attempts = 12 };
    kv_workload ~name:"kv-failover"
      ~why:
        "YCSB-A on durable replicas while shard 0's sequencer host crashes: \
         failure detector, auto-heal, router failover and the WAL"
      ~light:750. ~heavy:1500. ~crash:(Time.sec 4) ~knee_lo:1500. ~seeds:36
      ~knee_seeds:5
      { replication = 3; durable = true; drain = Time.sec 20; attempts = 40 };
  ]

(* ---- running a workload ------------------------------------------- *)

let knee_tol = 0.02

type knee = {
  outcome : L.Saturation.outcome;
  probes : trial list;  (** the search's trials, in probe order *)
  bracket : float * float;  (** last pass, first fail *)
}

type pass = {
  fixed : (trial * trial) list;  (** (light, heavy) per derived seed *)
  knees : knee list;  (** per knee seed *)
  knee_s : float;  (** host s of the knee searches *)
}

let fixed_trials p = List.concat_map (fun (l, h) -> [ l; h ]) p.fixed

let run_fixed (wl : workload) ~traced ~parent ~seed =
  List.init wl.seeds (fun i ->
      let seed = derive seed i in
      let l = wl.light ~traced ~parent ~seed in
      let h = wl.heavy ~traced ~parent ~seed in
      (l, h))

(* One knee search.  Doubling from [knee_lo] brackets the knee, then
   geometric bisection narrows the bracket to [knee_tol].  A probe at the
   heavy rate reuses the heavy trial when the two are the same trial. *)
let run_knee (wl : workload) ~traced ~parent ~seed ~heavy =
  let memo = Hashtbl.create 16 in
  (match heavy with
  | Some (h : trial) when wl.heavy_is_probe -> Hashtbl.replace memo h.rate h
  | _ -> ());
  let trial rate =
    match Hashtbl.find_opt memo rate with
    | Some t -> t
    | None ->
        let id = fresh_id () and h0 = Sys.time () in
        let t = wl.probe ~traced ~parent:id ~seed rate in
        add_span ~id ~parent ~name:"knee.probe" ~host0:h0 ~host1:(Sys.time ())
          ~info:(Printf.sprintf "%.3f ops/s seed %d" rate seed)
          0 0;
        Hashtbl.replace memo rate t;
        t
  in
  let passes t = p99_attempted t <= slo_ms in
  (* Halve down to a passing floor, so a regression below [knee_lo]
     lowers the knee instead of losing it. *)
  let rec floor r n =
    if n = 0 || passes (trial r) then r else floor (r /. 2.) (n - 1)
  in
  let lo = floor wl.knee_lo 6 in
  let measure rate =
    let t = trial rate in
    {
      L.Saturation.m_p99_ms = p99_attempted t;
      m_completion = ratio (fi t.completed) (fi t.attempted);
      m_throughput = t.tput;
    }
  in
  let slo = { L.Saturation.p99_ms = slo_ms; min_completion = 0. } in
  let o = L.Saturation.search ~lo ~tol:knee_tol ~max_probes:24 ~slo measure in
  let first_fail =
    List.fold_left
      (fun acc (p : L.Saturation.probe) ->
        if (not p.pass) && p.rate > o.knee then Float.min acc p.rate else acc)
      infinity o.probes
  in
  if not o.converged then
    fail "knee search did not converge (last pass %.1f, first fail %.1f)"
      o.knee first_fail;
  {
    outcome = o;
    probes =
      List.map (fun (p : L.Saturation.probe) -> Hashtbl.find memo p.rate) o.probes;
    bracket = (o.knee, first_fail);
  }

(* One simulated pass: the fixed-rate trials on every derived seed, then
   the knee searches. *)
let run_pass (wl : workload) ~traced ~seed =
  let root = fresh_id () and start = Sys.time () in
  let fixed = run_fixed wl ~traced ~parent:root ~seed in
  let h0 = Sys.time () in
  let knees =
    List.init wl.knee_seeds (fun i ->
        run_knee wl ~traced ~parent:root ~seed:(derive seed i)
          ~heavy:(Option.map snd (List.nth_opt fixed i)))
  in
  add_span ~id:root ~parent:0 ~name:"workload" ~host0:start
    ~host1:(Sys.time ()) ~info:wl.name 0 0;
  { fixed; knees; knee_s = Sys.time () -. h0 }

(* The knee search whose knee is the median one. *)
let median_knee p =
  let ks =
    List.sort (fun a b -> compare a.outcome.knee b.outcome.knee) p.knees
  in
  List.nth ks (List.length ks / 2)

let pass_fingerprint p =
  String.concat "\n"
    (List.map fingerprint
       (fixed_trials p @ List.concat_map (fun k -> k.probes) p.knees)
    @ List.map
        (fun k ->
          Printf.sprintf "knee=%h probes=%d" k.outcome.knee
            (List.length k.outcome.probes))
        p.knees)

let pp_trial (t : trial) =
  Printf.printf
    "  trial %-5s %7.1f %s: attempted %d completed %d failed %d unfinished \
     %d | p50 %.3f ms p99 %.3f ms (%d samples) | %.1f ops/s | %d events | \
     host %.3f s (setup %.3f s)\n"
    t.label t.rate
    (if t.rate >= 50. then "ops/s" else "senders")
    t.attempted t.completed t.failed t.unfinished (pct t.lats 50.)
    (pct t.lats 99.) (Array.length t.lats) t.tput t.events t.host_s t.setup_s

let check_tail label a =
  if Array.length a < min_tail * 100 then
    fail "%s: %d samples leave fewer than %d beyond p99" label
      (Array.length a) min_tail

let e2e_names =
  [
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("p99_ms.light", "ms");
    ("knee_ops_s", "ops/s");
    ("tput_ops_s", "ops/s");
    ("host_s", "s");
    ("setup_s", "s");
    ("peak_mem_mb", "MB");
  ]

let layer_names =
  [
    ("sim.events", "count");
    ("sim.events_per_op", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.minor_words_per_op", "words");
    ("sim.major_gcs", "count");
    ("net.frames_per_op", "count");
    ("net.bytes_per_op", "B");
    ("net.utilisation", "ratio");
    ("net.collisions", "count");
    ("net.queue_drops", "count");
    ("net.nic_rx_dropped", "count");
    ("net.cpu_util.seq_max", "ratio");
    ("net.cpu_util.replica_mean", "ratio");
    ("net.cpu_util.router_mean", "ratio");
    ("net.disk_util_max", "ratio");
    ("cpu_us_per_op.ether", "us");
    ("cpu_us_per_op.flip", "us");
    ("cpu_us_per_op.group", "us");
    ("cpu_us_per_op.rpc", "us");
    ("cpu_us_per_op.user", "us");
    ("core.retransmissions", "count");
    ("core.nacks_sent", "count");
    ("core.status_solicitations", "count");
    ("core.pipeline_hwm", "count");
    ("service.ops_per_batch", "ratio");
    ("service.partial_flush_share", "ratio");
    ("service.retry_share", "ratio");
    ("service.failovers", "count");
    ("service.probes_dead", "count");
    ("service.writes_busy", "count");
    ("service.shard_skew", "ratio");
    ("service.read_p99_ms", "ms");
    ("service.update_p99_ms", "ms");
    ("service.txn_p99_ms", "ms");
    ("service.deploy_sim_ms", "ms");
    ("service.unavail_ms", "ms");
    ("grouplib.wal_appends_per_op", "ratio");
    ("grouplib.fsyncs_per_op", "ratio");
    ("grouplib.checkpoints", "count");
    ("loadgen.late_ms_max", "ms");
    ("loadgen.fail_share", "ratio");
    ("loadgen.knee_probes", "count");
    ("loadgen.knee_bracket_lo", "ops/s");
    ("loadgen.knee_bracket_hi", "ops/s");
  ]

(* Simulated end-to-end metrics of a pass: latencies pooled over the
   derived seeds, the median knee, the mean heavy throughput. *)
let simulated p =
  let pool f =
    sorted
      (List.concat_map (fun lh -> Array.to_list (f lh : trial).lats) p.fixed)
  in
  let light = pool fst and heavy = pool snd in
  check_tail "light" light;
  check_tail "heavy" heavy;
  [
    ("p50_ms", pct heavy 50.);
    ("p99_ms", pct heavy 99.);
    ("p99_ms.light", pct light 99.);
    ("knee_ops_s", (median_knee p).outcome.knee);
    ( "tput_ops_s",
      List.fold_left (fun s (_, (h : trial)) -> s +. h.tput) 0. p.fixed
      /. fi (List.length p.fixed) );
  ]

let sum f p = List.fold_left (fun s (t : trial) -> s + f t) 0 (fixed_trials p)
let fixed_host p =
  List.fold_left (fun s (t : trial) -> s +. t.host_s) 0. (fixed_trials p)
let fixed_events = sum (fun (t : trial) -> t.events)
let fixed_attempted = sum (fun (t : trial) -> t.attempted)
let fixed_failed = sum (fun (t : trial) -> t.failed + t.unfinished)

let print_pass p =
  List.iter pp_trial (fixed_trials p);
  List.iter
    (fun k ->
      let lo, hi = k.bracket in
      List.iter
        (fun (t : trial) ->
          Printf.printf
            "    probe %9.3f ops/s: served-within-limit p99 %9.3f ms, %d/%d \
             completed, host %.3f s\n"
            t.rate (p99_attempted t) t.completed t.attempted t.host_s)
        k.probes;
      Printf.printf
        "  knee  %.3f ops/s, bracket [%.3f, %.3f], %d probes, tol %.0f%%, \
         SLO: 99%% of attempted within %.0f ms\n"
        k.outcome.knee lo hi
        (List.length k.outcome.probes)
        (knee_tol *. 100.) slo_ms)
    p.knees;
  Printf.printf "  knee searches: %.3f host s, median knee %.3f ops/s\n"
    p.knee_s (median_knee p).outcome.knee

let env_or k d = match Sys.getenv_opt k with Some v when v <> "" -> v | _ -> d

let stamp (wl : workload) ~seed =
  Printf.printf "workload %s seed %d (derived seeds %s)\n  why: %s\n" wl.name
    seed
    (String.concat ","
       (List.init wl.seeds (fun i -> string_of_int (derive seed i))))
    wl.why;
  Printf.printf "  stamp: commit %s source %s config %s\n"
    (env_or "PERFBENCH_COMMIT" "unknown")
    (env_or "PERFBENCH_SOURCE" "unknown")
    (Digest.to_hex (Digest.string wl.config))

type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let first_heavy p = snd (List.hd p.fixed)

(* Replays the pass's fixed-rate trials untraced until [seconds] of wall
   time since [wall0] are spent, and at least [at_least] times.  Every replay
   must be identical to the pass.  Returns the host seconds of the pass
   and of each replay, and every setup time seen. *)
let replay (wl : workload) p ~seed ~wall0 ~seconds ~at_least =
  let fp ts = String.concat "\n" (List.map fingerprint ts) in
  let fp_fixed = fp (fixed_trials p) in
  let setup_s ts = List.map (fun (t : trial) -> t.setup_s) ts in
  let hosts = ref [ fixed_host p ] and setups = ref (setup_s (fixed_trials p)) in
  let replays = ref 0 in
  while !replays < at_least || Unix.gettimeofday () -. wall0 < seconds do
    let r = { p with fixed = run_fixed wl ~traced:false ~parent:0 ~seed } in
    let ts = fixed_trials r in
    if fp ts <> fp_fixed then
      fail "replay %d is not identical to the first pass" (!replays + 1);
    hosts := fixed_host r :: !hosts;
    setups := setup_s ts @ !setups;
    incr replays
  done;
  Printf.printf
    "  host: pass + %d replays of the fixed-rate trials, host s: %s; setup_s \
     median of %d setups\n"
    !replays
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !hosts))
    (List.length !setups);
  (!hosts, !setups)

(* --trace 0: a simulated pass, then replays; host figures are medians
   over the pass and its replays. *)
let run_untraced (wl : workload) ~seed ~seconds =
  let wall0 = Unix.gettimeofday () in
  let p = run_pass wl ~traced:false ~seed in
  print_pass p;
  Option.iter (fun f -> f ~seed:(derive seed 0) (first_heavy p)) wl.fidelity;
  let sim = simulated p in
  (* Read before the replays, whose count follows the host's speed. *)
  let peak_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let hosts, setups = replay wl p ~seed ~wall0 ~seconds ~at_least:1 in
  let metrics =
    sim
    @ [
        ("host_s", median hosts);
        ("setup_s", median setups);
        ("peak_mem_mb", peak_mb);
      ]
  in
  {
    metrics = List.map (fun (k, v) -> (k, v, List.assoc k e2e_names)) metrics;
    attempted = fixed_attempted p;
    failed = fixed_failed p;
  }

(* --trace 1: an untraced pass and a traced replay, which must be
   event-for-event identical.  Per-layer figures come from the first
   derived seed's heavy trial (traced, for the CPU split) and from the
   untraced pass (host and GC costs). *)
let run_traced (wl : workload) ~seed ~seconds ~spans_dir =
  let wall0 = Unix.gettimeofday () in
  let g0 = gc_words () in
  let p = run_pass wl ~traced:false ~seed in
  let g1 = gc_words () in
  print_pass p;
  Option.iter (fun f -> f ~seed:(derive seed 0) (first_heavy p)) wl.fidelity;
  tracing := true;
  let pt = run_pass wl ~traced:true ~seed in
  tracing := false;
  let same =
    simulated p = simulated pt && pass_fingerprint p = pass_fingerprint pt
  in
  Printf.printf
    "  traced replay: %d events vs %d untraced, simulated metrics %s\n"
    (fixed_events pt) (fixed_events p)
    (if same then "bit-identical" else "DIFFER");
  if not same then begin
    fail "traced replay differs from the untraced pass";
    Printf.printf "  untraced:\n%s\n  traced:\n%s\n" (pass_fingerprint p)
      (pass_fingerprint pt)
  end;
  Printf.printf
    "  tracing overhead: %.3f host s on the fixed-rate trials (%.3f traced \
     vs %.3f untraced)\n"
    (fixed_host pt -. fixed_host p)
    (fixed_host pt) (fixed_host p);
  (match spans_dir with
  | None -> ()
  | Some dir ->
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      mkdir_p dir;
      let path = Filename.concat dir (wl.name ^ ".spans.jsonl") in
      write_spans path;
      Printf.printf "  spans: %d written to %s (%d op spans beyond the cap)\n"
        (List.length !span_log) path !op_spans_dropped);
  let hosts, _ = replay wl p ~seed ~wall0 ~seconds ~at_least:0 in
  let h = first_heavy p and ht = first_heavy pt in
  let ops = fi (fixed_attempted p) in
  let events = fi (fixed_events p) in
  let minor = fst g1 -. fst g0 and majors = snd g1 - snd g0 in
  let pick name =
    match List.assoc_opt name ht.layer with
    | Some v -> v
    | None -> Option.value ~default:0. (List.assoc_opt name h.layer)
  in
  let k = median_knee p in
  let lo, hi = k.bracket in
  let own =
    [
      ("sim.events", events);
      ("sim.events_per_op", ratio events ops);
      ("sim.host_ns_per_event", ratio (median hosts *. 1e9) events);
      ("sim.minor_words_per_op", ratio minor ops);
      ("sim.major_gcs", fi majors);
      ( "loadgen.late_ms_max",
        List.fold_left
          (fun m (t : trial) -> Float.max m t.late_ms)
          0. (fixed_trials p) );
      ("loadgen.fail_share", ratio (fi (fixed_failed p)) ops);
      ("loadgen.knee_probes", fi (List.length k.outcome.probes));
      ("loadgen.knee_bracket_lo", lo);
      ("loadgen.knee_bracket_hi", hi);
    ]
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name own with Some v -> v | None -> pick name
        in
        (name, v, unit))
      layer_names
  in
  { metrics; attempted = fixed_attempted p; failed = fixed_failed p }

let json_of ~correct (o : outcome) =
  let num v = Printf.sprintf "%.17g" v in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u)
          o.metrics))

let run_one wl ~seed ~seconds ~trace ~spans_dir =
  stamp wl ~seed;
  let o =
    if trace then run_traced wl ~seed ~seconds ~spans_dir
    else run_untraced wl ~seed ~seconds
  in
  List.iter
    (fun (k, v, u) ->
      Printf.printf "  %-28s %16.6f %s\n" k v u;
      if not (Float.is_finite v) then fail "%s is not a finite number" k)
    o.metrics;
  o

let usage () =
  Printf.eprintf
    "usage: bench --workload (%s|all) --seed N --seconds S --trace (0|1) \
     [--spans-dir DIR]\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k d =
    match get k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let name = match get "workload" with Some n -> n | None -> usage () in
  let seed = int_opt "seed" 11 in
  let seconds = fi (int_opt "seconds" 10) in
  let trace =
    match get "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some _ -> usage ()
  in
  let spans_dir = get "spans-dir" in
  let chosen =
    if name = "all" then workloads
    else
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> [ w ]
      | None -> usage ()
  in
  let outcomes =
    List.map
      (fun wl ->
        let o =
          run_one wl ~seed ~seconds:(seconds /. fi (List.length chosen))
            ~trace ~spans_dir
        in
        (wl.name, o))
      chosen
  in
  let correct = !problems = [] in
  List.iter (fun m -> Printf.printf "FAIL: %s\n" m) (List.rev !problems);
  let o =
    match outcomes with
    | [ (_, o) ] -> o
    | _ ->
        {
          metrics =
            List.concat_map
              (fun (n, o) ->
                List.map (fun (k, v, u) -> (n ^ "." ^ k, v, u)) o.metrics)
              outcomes;
          attempted =
            List.fold_left (fun s (_, o) -> s + o.attempted) 0 outcomes;
          failed = List.fold_left (fun s (_, o) -> s + o.failed) 0 outcomes;
        }
  in
  print_endline (json_of ~correct o);
  if not correct then exit 1
