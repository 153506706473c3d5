open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service
module Rsm = Amoeba_grouplib.Rsm

type config = {
  shards : int;
  hosts : int;
  routers : int;
  replication : int;
  resilience : int;
  fabric : Medium.spec;
  wire_mbps : int;
  disk : Cost_model.disk option;
  fsync : Rsm.sync_policy;
  checkpoint_every : int;
  pipeline_depth : int;
  record : bool;
  max_batch : int;
  batch_delay_us : int;
  stale_reads : bool;
  seed : int;
}

let default =
  {
    shards = 1;
    hosts = 4;
    routers = 1;
    replication = 2;
    resilience = 1;
    fabric = Medium.Shared;
    wire_mbps = 10;
    disk = None;
    fsync = Rsm.Group_fsync 8;
    checkpoint_every = 64;
    pipeline_depth = 1;
    record = false;
    max_batch = 1;
    batch_delay_us = 500;
    stale_reads = false;
    seed = 1;
  }

type t = {
  config : config;
  cluster : Cluster.t;
  map : Shard_map.t;
  durable : Service.durable_config option;
}

let create c =
  let map =
    Shard_map.create ~shards:c.shards ~replication:c.replication
      ~hosts:(List.init c.hosts Fun.id) ()
  in
  let cost, durable =
    let base = Cost_model.(with_mbps c.wire_mbps default) in
    match c.disk with
    | None -> (base, None)
    | Some disk ->
        ( { base with Cost_model.disk },
          Some
            {
              Service.d_store = Amoeba_grouplib.Stable_store.create ();
              d_sync = c.fsync;
              d_checkpoint_every = c.checkpoint_every;
            } )
  in
  let cluster =
    Cluster.create ~cost ~seed:c.seed ~fabric:c.fabric
      ~n:(c.hosts + c.routers) ()
  in
  { config = c; cluster; map; durable }

type live = {
  bed : t;
  deployed : Service.t;
  routers : Router.t list;
  mutable serving : Service.t;
  mutable sentinels : string list;
  mutable lost : string list;
  mutable crashed : int list;
}

let deploy bed =
  let c = bed.config in
  let svc =
    Service.deploy bed.cluster ~map:bed.map ~resilience:c.resilience
      ~pipeline:c.pipeline_depth ~record:c.record ?durable:bed.durable ()
  in
  let routers =
    List.init c.routers (fun i ->
        Router.create
          (Cluster.flip bed.cluster (c.hosts + i))
          ~max_batch:c.max_batch
          ~batch_delay:(Time.us c.batch_delay_us)
          ~stale_reads:c.stale_reads ~map:bed.map
          ~endpoints:(Service.endpoints svc) ())
  in
  { bed; deployed = svc; routers; serving = svc; sentinels = []; lost = [];
    crashed = [] }

let repoint l =
  List.iter
    (fun r -> Router.update_endpoints r (Service.endpoints l.serving))
    l.routers

let served l f =
  f l.deployed + if l.serving == l.deployed then 0 else f l.serving

let sequencer l ~shard = Service.sequencer_of l.serving shard

let follower l ~shard =
  let seq = sequencer l ~shard in
  List.find (( <> ) seq) (Shard_map.replica_hosts (Service.map l.serving) shard)

let crash l h =
  let m = Cluster.machine l.bed.cluster h in
  if Machine.is_alive m then (Machine.crash m; l.crashed <- h :: l.crashed)

(* A power cycle may recover the service while the migration runs;
   repointing after it returns aims at whatever serves by then. *)
let migrate ?timeout l ~shard ~hosts =
  let res = Service.migrate_shard l.serving ~shard ?timeout ~hosts () in
  repoint l;
  res

let power_cycle ?hosts_for l =
  let { config = c; cluster = cl; durable; _ } = l.bed in
  let durable =
    match durable with
    | Some d -> d
    | None -> invalid_arg "Testbed.power_cycle: no disk"
  in
  let hosts = List.init c.hosts Fun.id in
  List.iter (fun h -> Machine.crash (Cluster.machine cl h)) hosts;
  Engine.sleep cl.Cluster.engine (Time.ms 275);
  List.iter (Cluster.restart cl) hosts;
  l.serving <-
    Service.recover cl ~map:(Service.map l.serving) ~durable
      ~resilience:c.resilience ~pipeline:c.pipeline_depth ~record:c.record
      ?hosts_for ();
  repoint l;
  let r0 = List.hd l.routers in
  l.lost <-
    List.filter
      (fun k -> match Router.get r0 k with Router.Value _ -> false | _ -> true)
      (List.rev l.sentinels);
  l.lost

let write_sentinels l n =
  let r0 = List.hd l.routers in
  for i = 0 to n - 1 do
    let k = Printf.sprintf "sentinel-%d" i in
    match Router.put r0 k (Printf.sprintf "s%d" i) with
    | Router.Written -> l.sentinels <- k :: l.sentinels
    | _ -> ()
  done

let sentinels_failed l =
  l.lost <> [] && l.bed.config.fsync = Rsm.Every_commit

let label tag (shard, vs) =
  List.map (fun v -> (Printf.sprintf "shard %d%s" shard tag, v)) vs

(* After a power cycle every pre-cut replica is dead, so ownership
   belongs to the recovered service, judged on the hosts {!crash}
   killed that are still down at the end; the pre-cut streams still
   owe the base invariants, including total order across the
   cutover. *)
let judge l =
  if l.serving == l.deployed then
    List.concat_map (label "") (Service.check l.deployed ~crashed:l.crashed)
  else
    let cl = l.bed.cluster and svc = l.deployed in
    let shards = List.init (Shard_map.shards l.bed.map) Fun.id in
    let down =
      List.filter (fun h -> not (Machine.is_alive (Cluster.machine cl h))) l.crashed
    in
    List.concat_map
      (fun shard ->
        label ""
          ( shard,
            Checker.run ~durability_applies:false
              ~streams:(Service.checker_streams svc ~shard ~crashed:(fun _ -> true))
              ~completed:(Service.completed svc ~shard)
              () ))
      shards
    @ List.concat_map (label "'") (Service.check l.serving ~crashed:down)
    @ List.concat_map
        (fun shard ->
          label "'" (shard, [ Service.check_migration l.serving ~shard ~crashed:down ]))
        shards
