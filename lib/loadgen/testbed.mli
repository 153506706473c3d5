(** The sharded-service testbed: builds a cluster for the
    {!Amoeba_service.Service}, deploys it with its routers, tracks
    which service is serving, power-cycles it and collects its checker
    verdicts — the bring-up the {!Driver}, {!Migration_chaos}, the
    bench targets and the CLI share.  The choreography stays with the
    caller: when link conditions change (before or after {!deploy}),
    when faults fire and what load runs. *)

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
          [fsync] and checkpointed every [checkpoint_every] updates *)
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
}

val deploy : t -> live
(** {!Service.deploy}, then one {!Router.create} per router machine.
    Blocking — call from a cluster process. *)

val repoint : live -> unit
(** Hands [serving]'s endpoints to every router. *)

val power_cycle : ?hosts_for:(int -> int list) -> live -> Service.t
(** Crashes every server host, waits 275 ms, restarts them,
    {!Service.recover}s the service (deploy's resilience, pipeline and
    recording; [hosts_for] as there), makes it [serving] and repoints.
    Blocking; needs a disk. *)

val write_sentinels : live -> int -> unit
(** Puts [sentinel-<i>] = [s<i>] for [i < n] through the first router,
    adding each acked key to [sentinels] as its ack returns.
    Blocking. *)

val read_back : live -> string list
(** Reads the acked sentinels back, oldest first, through the first
    router; returns those that did not come back.  Blocking. *)

val verdicts :
  ?tag:string -> Service.t -> crashed:int list -> (string * Checker.verdict) list
(** {!Service.check}, each verdict labelled ["shard <i><tag>"]. *)
