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
  { bed; deployed = svc; routers; serving = svc; sentinels = [] }

let repoint l =
  List.iter
    (fun r -> Router.update_endpoints r (Service.endpoints l.serving))
    l.routers

let power_cycle ?hosts_for l =
  let { config = c; cluster = cl; map; durable } = l.bed in
  let durable =
    match durable with
    | Some d -> d
    | None -> invalid_arg "Testbed.power_cycle: no disk"
  in
  let hosts = List.init c.hosts Fun.id in
  List.iter (fun h -> Machine.crash (Cluster.machine cl h)) hosts;
  Engine.sleep cl.Cluster.engine (Time.ms 275);
  List.iter (Cluster.restart cl) hosts;
  let svc =
    Service.recover cl ~map ~durable ~resilience:c.resilience
      ~pipeline:c.pipeline_depth ~record:c.record ?hosts_for ()
  in
  l.serving <- svc;
  repoint l;
  svc

let write_sentinels l n =
  let r0 = List.hd l.routers in
  for i = 0 to n - 1 do
    let k = Printf.sprintf "sentinel-%d" i in
    match Router.put r0 k (Printf.sprintf "s%d" i) with
    | Router.Written -> l.sentinels <- k :: l.sentinels
    | _ -> ()
  done

let read_back l =
  let r0 = List.hd l.routers in
  List.filter
    (fun k -> match Router.get r0 k with Router.Value _ -> false | _ -> true)
    (List.rev l.sentinels)

let verdicts ?(tag = "") svc ~crashed =
  List.concat_map
    (fun (shard, vs) ->
      List.map (fun v -> (Printf.sprintf "shard %d%s" shard tag, v)) vs)
    (Service.check svc ~crashed)
