(** Elastic rebalancing: a sampling loop that watches per-shard load
    and live-migrates hot shards off overloaded sequencer machines.

    The paper's central measurement is that a group's throughput cost
    lands on its sequencer's CPU, so the load metric is sequencing
    load: each shard's handled-op delta over the sampling interval,
    credited wholly to the machine hosting its sequencer.  When one
    machine's share exceeds twice the pool mean, the hottest shard it
    sequences is {!Service.migrate_shard}'d onto the coldest machines
    currently holding none of its replicas — the whole replica set
    moves, so the first (coldest) joiner is the lowest-numbered
    survivor after the cutover and provably inherits the sequencer
    role.  The Zipf workload's hot-key skew is exactly
    what trips this.

    A move happens only when it strictly improves the balance: the
    coldest candidate's load plus the shard's load must be below the
    hot host's load.  A machine that is hot purely because its one
    shard is hot gains nothing from relocation (the hot spot would
    just follow the shard and ping-pong), so the trigger in practice
    is sequencer colocation — more shards than machines, or crash
    healing having stacked two sequencers on one host. *)

open Amoeba_sim
open Amoeba_harness

type move = {
  mv_time : Time.t;
  mv_shard : int;
  mv_from : int list;
  mv_to : int list;
  mv_result : (unit, string) result;
}

val start : Cluster.t -> Service.t -> ?on_move:(move -> unit) -> unit -> unit
(** Spawns the sampling loop as a root (crash-surviving) process: it
    samples every 250 ms and ignores intervals with fewer than 32
    handled ops (idle noise is not load evidence).  [on_move] fires
    after every migration attempt, successful or not — hand the
    service's refreshed {!Service.endpoints} to each router's
    [update_endpoints] there.  The loop exits after 4 attempts. *)
