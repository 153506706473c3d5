(** The client front-end of the sharded service.

    A router lives on a client machine.  It hashes each request's key
    through the {!Shard_map}, queues it on that shard's pipeline, and
    a pool of worker processes per shard performs the RPCs — so one
    slow shard never blocks traffic to the others, and each shard
    sustains several in-flight requests at once.

    Requests spread round-robin over the shard's replicas (any replica
    can serve a read from its local copy or submit a write — the
    group's sequencer orders writes regardless of which member submits
    them).  Failure handling is at-least-once with idempotent,
    uid-tagged updates: on an RPC timeout the router probes the
    replica's failure detector — a {e slow} replica is retried, a
    {e dead} one is marked suspect and the request fails over to the
    next replica.  [Busy] replies (a shard mid-recovery) back off and
    retry; [Wrong_shard] redirects re-hash onto the right shard. *)

open Amoeba_sim
open Amoeba_flip

type t

val create :
  Flip.t ->
  ?pipeline:int ->
  ?max_batch:int ->
  ?batch_delay:Time.t ->
  ?timeout:Time.t ->
  ?attempts:int ->
  ?stale_reads:bool ->
  map:Shard_map.t ->
  endpoints:Service.endpoint array array ->
  unit ->
  t
(** [pipeline] is the number of concurrent workers per shard: by
    default 4, or 1 when [max_batch] > 1 (one accumulate-and-ship
    worker per shard forms the largest batches and keeps replica
    endpoints uncontended); [timeout] (default 250 ms) bounds each RPC
    attempt; [attempts] (default 12) bounds retries/failovers per
    request; a dead-host verdict suspects every endpoint on that
    machine at once, so one failover spends one attempt however many
    endpoints the victim served.

    [stale_reads] (default false) makes every {!get} a bounded-
    staleness read ([Kv.Stale_get]): the replica answers from its last
    durable checkpoint when it has one, trading freshness — the read
    may miss updates applied since that checkpoint, but never ones a
    power loss could revoke — for a read that reflects only
    crash-proof state.  Writes are unaffected.

    [max_batch] (default 1) turns on op batching: a worker that takes
    an op off its shard's pipeline keeps accumulating until it holds
    [max_batch] ops or [batch_delay] (default 500 µs, Nagle-style) has
    passed since the first — whichever fires first — and ships the lot
    as one RPC, which the replica submits as one sequencer round.  At
    the default 1 the request path is exactly the unbatched one.  A
    failed or timed-out batch is retried whole; the fresh uid every
    write carries makes the replay safe (idempotent under the
    checker's no-duplicates invariant). *)

type reply =
  | Value of string
  | Not_found
  | Written
  | Failed of string  (** all attempts exhausted *)

val get : t -> string -> reply

val put : t -> string -> string -> reply

val del : t -> string -> reply
(** Blocking operations — call from a process. *)

type op = Get of string | Put of string * string | Del of string

val txn : t -> op list -> (reply list, string) result
(** A multi-key single-shard transaction.  Every key must hash to the
    same shard ([Error] otherwise, nothing sent).  The whole op list
    ships as one batch RPC and the replica submits its writes as
    {e one} sequencer round ({!Amoeba_grouplib.Rsm.submit_batch}), so
    they occupy contiguous slots of the shard's totally-ordered stream
    — atomic with respect to every other client.  Reads are answered
    after the transaction's own writes applied (the committed
    post-image).  Replies come back positionally, one per op.  Retries
    replay the remaining transaction whole; the fresh uid each write
    carries per submission keeps replays idempotent.  Blocking. *)

type stats = {
  ops : int;  (** operations accepted *)
  retries : int;  (** extra attempts on a live replica *)
  failovers : int;  (** switched replica after a suspected death *)
  redirects : int;  (** [Wrong_shard] replies followed *)
  probes_dead : int;  (** failure-detector verdicts of "dead" *)
  batches_sent : int;  (** multi-op RPCs shipped *)
  ops_batched : int;  (** total ops across those batches *)
  partial_flushes : int;
      (** flushes forced by the [batch_delay] timer before the batch
          filled *)
  batch_retries : int;  (** whole-batch replays after failure or Busy *)
  stale_gets : int;  (** gets issued as bounded-staleness reads *)
  txns : int;  (** multi-key transactions accepted (ops counted in [ops]) *)
}

val stats : t -> stats

val update_endpoints : t -> Service.endpoint array array -> unit
(** Swaps in a fresh per-shard endpoint map — the handoff after
    [Service.recover] re-created the groups or [Service.migrate_shard]
    moved one.  Suspicion {e carries over} for hosts present in both
    the old and new map (a swap must not reset the failure detector
    and aim the next request of every untouched shard at a known-dead
    host); hosts new to a shard start trusted.  Round-robin cursors
    reset; the reserve (sequencer-host) set is re-derived from each
    shard's first endpoint, which recovery and migration guarantee
    belongs to the new sequencer's machine. *)

val suspected : t -> int -> int list
(** The machine indices shard [i]'s rotation currently suspects dead —
    a test hook for the carry-over contract above. *)

val suspect_host_for_test : t -> int -> int -> unit
(** [suspect_host_for_test t shard host] marks every one of shard
    [shard]'s endpoints on machine [host] suspect, as a dead-host
    verdict would.  Test hook. *)
