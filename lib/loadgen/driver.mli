(** The load driver: one measured trial of a YCSB-style mix against a
    sharded service, offered either open-loop (Poisson arrivals at a
    fixed rate) or closed-loop (N clients, each issuing its next op as
    soon as the last returns — the paper's senders).

    The open loop is coordinated-omission-safe by construction:
    arrivals are scheduled on the simulation clock {e independent} of
    completions — a saturated service cannot slow the arrival stream
    down — and each operation's latency is measured from its
    {e intended arrival time}, so queueing delay a backlogged service
    inflicts is charged to the operation rather than silently skipped.
    A closed-loop client's next op arrives when it issues it.  Both
    shapes share the op code, the warmup exclusion, the drain and the
    log-bucketed {!Histogram} (O(1) per sample; ≤ [gamma−1] relative
    error on percentiles).

    {!run} builds its own cluster from the config seed, so a trial is a
    pure function of [(config, rate)] — the property the {!Saturation}
    search needs to be deterministic.  {!drive} runs the same load
    against a service the caller has deployed. *)

open Amoeba_sim
open Amoeba_net

type config = {
  shards : int;
  hosts : int;  (** replica machines; router machines come extra *)
  routers : int;
  replication : int;
  wire_mbps : int;
  net : Medium.spec * Medium.conditions;
      (** fabric + impairment profile (see {!Medium.net_of_string});
          conditions are applied after deploy, so the measured window
          sees them but cluster bring-up does not *)
  max_batch : int;
  batch_delay_us : int;
  pipeline_depth : int;
  mix : Mix.t;
  keys : int;
  value_dist : Dist.t;
  txn_size : int;  (** keys per multi-key transaction *)
  duration : Time.t;  (** measured window *)
  warmup : Time.t;  (** excluded from every reported figure *)
  seed : int;
}

val default : config
(** 1 shard over 4 hosts + 2 routers, replication 2, 100 Mbit clean
    Ether, batch 32 / depth 4, YCSB-A over 1000 keys, 32-byte values,
    3-key transactions, 2 s window after 500 ms warmup, seed 11. *)

type trial = {
  offered : float;  (** the rate this trial was driven at (ops/s) *)
  attempted : int;  (** arrivals inside the measured window *)
  completed : int;
  failed : int;  (** explicit failures (attempts exhausted / txn error) *)
  throughput : float;  (** completed per second of measured window *)
  completion : float;
      (** completed / attempted — ops still stuck at drain time count
          against it, which is how the SLO predicate sees a meltdown
          even when nothing returned [Failed] *)
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

type load =
  | Open of float  (** Poisson arrivals, ops per simulated second *)
  | Closed of int
      (** this many clients, one op at a time each; client [i] has its
          own rng seeded from [(seed, i)], enters the loop at
          [i * warmup / (n-1)] (a slow start, so the full complement
          runs only after the warmup), and stops issuing when the
          window ends *)

val drive :
  Amoeba_harness.Cluster.t ->
  map:Amoeba_service.Shard_map.t ->
  routers:Amoeba_service.Router.t list ->
  config ->
  load ->
  trial
(** Blocking — call from a cluster process.  Offers [load] to
    [routers] (arrival or client [k] uses router [k mod n]) for
    [warmup + duration], then drains in-flight ops for at most 3
    simulated seconds and returns.  Reads only the load fields of the
    config: [mix], [keys], [value_dist], [txn_size], [duration],
    [warmup] and [seed].  Ops still in flight at the end of the drain
    count as attempted but neither completed nor failed, and nothing
    that returns later moves the trial.  [offered] is 0 for a closed
    loop. *)

val run : config -> rate:float -> trial
(** Deterministic in [(config, rate)].  Blocks for the whole simulated
    trial (bring-up + warmup + window + a 3 s drain grace). *)

val pp_trial : Format.formatter -> trial -> unit
