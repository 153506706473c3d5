(** The sharded-service testbed that the {!Driver}, {!Migration_chaos},
    the bench targets and the CLI share: it builds and deploys a
    {!Amoeba_service.Service} with its routers, aims crashes,
    migrations and power cycles at it, remembers whom it crashed, and
    judges the end state.  The caller keeps the timings ([Engine.sleep]s
    in its own fibers), the link conditions and the load. *)

open Amoeba_harness
open Amoeba_service

type config = {
  shards : int;
  hosts : int;  (** replica machines [0 .. hosts-1] *)
  routers : int;  (** router machines [hosts .. hosts+routers-1] *)
  replication : int;
  resilience : int;
  fabric : Amoeba_net.Medium.spec;
  wire_mbps : int;
  disk : Amoeba_net.Cost_model.disk option;
      (** a disk on every machine and durable replicas, synced per
          [fsync], with a checkpoint every [checkpoint_every] updates *)
  fsync : Amoeba_grouplib.Rsm.sync_policy;
  checkpoint_every : int;
  pipeline_depth : int;  (** {!Service.deploy}'s [pipeline] *)
  record : bool;  (** tap delivery streams so {!verdicts} can judge them *)
  max_batch : int;
  batch_delay_us : int;
  stale_reads : bool;
  seed : int;
}

val default : config
(** The {!Service.deploy} and {!Router.create} defaults on 1 shard, 4
    hosts and 1 router: replication 2, resilience 1, the paper's
    10 Mbit shared Ether, no disk (group fsync every 8 and checkpoint
    every 64 once one is given), seed 1. *)

type t = private {
  config : config;
  cluster : Cluster.t;
  map : Shard_map.t;  (** over the hosts *)
  durable : Service.durable_config option;
}

val create : config -> t
(** Builds the map, the cost model and the cluster; nothing runs yet. *)

type live = private {
  bed : t;
  deployed : Service.t;
  routers : Router.t list;
  mutable serving : Service.t;
      (** what the routers point at: [deployed] until {!power_cycle} *)
  mutable sentinels : string list;  (** acked so far, newest first *)
  mutable lost : string list;  (** acked, not read back after {!power_cycle} *)
  mutable crashed : int list;  (** hosts {!crash} killed, newest first *)
}

val deploy : t -> live
(** {!Service.deploy}, then one {!Router.create} per router machine.
    Blocking — call from a cluster process. *)

val repoint : live -> unit
(** Hands [serving]'s endpoints to every router. *)

val served : live -> (Service.t -> int) -> int
(** A service counter summed over [deployed] and, after a
    {!power_cycle}, the recovered service. *)

val sequencer : live -> shard:int -> int
(** Shard [shard]'s sequencer host on the serving service now, per its
    group's own view ({!Service.sequencer_of}). *)

val follower : live -> shard:int -> int
(** Shard [shard]'s first host on the serving map that is not its
    {!sequencer} now.  @raise Not_found on a single-replica shard. *)

val crash : live -> int -> unit
(** Crashes host [h] and adds it to [crashed] if it is alive; a host
    already down is left alone. *)

val migrate :
  ?timeout:Amoeba_sim.Time.t ->
  live ->
  shard:int ->
  hosts:int list ->
  (unit, string) result
(** {!Service.migrate_shard} on the serving service, then {!repoint}
    whatever the result.  Blocking. *)

val write_sentinels : live -> int -> unit
(** Puts [sentinel-<i>] = [s<i>] for [i < n] through the first router,
    adding each acked key to [sentinels] as its ack returns.
    Blocking. *)

val power_cycle : ?hosts_for:(int -> int list) -> live -> string list
(** Crashes every server host, waits 275 ms, restarts them,
    {!Service.recover}s the service on [serving]'s shard map, so a
    shard that migrated comes back from its current hosts (deploy's
    resilience, pipeline and recording; [hosts_for] as there), makes
    it [serving], repoints, and reads the sentinels back through the
    first router.  Returns, and records in [lost], those that did not
    come back.  Blocking; needs a disk. *)

val sentinels_failed : live -> bool
(** {!power_cycle} lost an acked sentinel under fsync-per-commit, which
    fails the run; weaker policies may lose a trailing window. *)

val judge : live -> (string * Checker.verdict) list
(** The checker's verdicts on the end state, labelled ["shard <i>"]:
    {!Service.check} with the hosts in [crashed] counted crashed.
    After a {!power_cycle}, every replica of the deployed service died,
    so its streams get only the base invariants (durability off); the
    recovered service owns the shards and gets {!Service.check} plus
    {!Service.check_migration}, labelled ["shard <i>'"], with
    [crashed] narrowed to the hosts still down. *)
