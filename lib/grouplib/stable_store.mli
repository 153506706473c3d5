(** Simulated stable storage: per-machine checkpoint files and
    append-only write-ahead logs.

    Section 5's consistent checkpointing scheme (reference [15]) needs
    state that survives a processor crash.  A {!t} is keyed by machine
    name and, unlike the machine itself, remains readable after
    {!Amoeba_net.Machine.crash} — exactly like a disk that a restarted
    machine remounts.  All I/O is costed against the owning machine's
    disk (see [Amoeba_net.Cost_model.disk]) and serialised on its
    spindle ([Amoeba_net.Machine.disk]).

    {2 Durability model}

    A WAL has a {e durable frontier}: bytes below it are on the
    platter; bytes above it are in the disk's volatile write cache.
    An append lands in the cache; a sync (explicit, or [~sync:true] on
    the append, or the implicit one in a trim) advances the frontier
    to the end of the log.  {!Amoeba_net.Machine.crash} triggers a
    power-loss hook: the cache suffix survives only as a deterministic
    torn fragment, which replay detects (incomplete record) and
    truncates.  Checkpoint writes ({!write}) are
    build-aside-then-rename: a crash mid-write leaves the {e old}
    value, never a half-written one.

    Every record carries a checksum.  Replay stops at a torn tail
    (counted in [torn_tails]) and {e refuses the whole suffix} after a
    corrupt record (counted in [checksum_rejects]): nothing after
    damage can be trusted. *)

open Amoeba_net

type t

type counters = {
  mutable kv_writes : int;  (** checkpoint-style writes committed *)
  mutable writes_dropped : int;
      (** I/O attempted on (or lost to) a dead machine *)
  mutable wal_appends : int;
  mutable fsyncs : int;
  mutable wal_trims : int;
  mutable records_replayed : int;  (** via costed {!wal_replay} only *)
  mutable torn_tails : int;  (** found by {!wal_replay} *)
  mutable checksum_rejects : int;  (** found by {!wal_replay} *)
}

type replay = {
  records : (int * bytes) list;  (** (index, payload) in log order *)
  torn_tails : int;  (** incomplete trailing record dropped *)
  checksum_rejects : int;
      (** damaged record hit; everything after it was refused *)
  bytes_scanned : int;
}

val create : unit -> t
(** One store per simulated world (a disk array, one spindle per
    machine). *)

val counters : t -> counters

val checksum : bytes -> int
(** The per-record FNV-1a checksum (30 bits), exposed so callers can
    frame their own checkpoint payloads. *)

val write : t -> Machine.t -> key:string -> bytes -> bool
(** Atomic checkpoint-style write (blocks for seek + transfer + sync).
    Returns [false] — and counts [writes_dropped] — when the machine
    is dead at the start or dies before the commit point; the old
    value, if any, is left intact. *)

val read : t -> machine_name:string -> key:string -> bytes option
(** Reads survive the owner's crash (the disk is intact). *)

val remove : t -> machine_name:string -> key:string -> unit
(** Instant metadata op (unlink), used when re-initialising a replica's
    durable state. *)

val wal_append :
  t -> Machine.t -> log:string -> ?sync:bool -> index:int -> bytes -> bool
(** Appends one checksummed record.  With [~sync:true] (default
    false) the write cache is flushed too — the record is durable when
    the call returns; otherwise it sits in the cache until a later
    sync and is lost (modulo a torn fragment) to a power failure. *)

val wal_sync : t -> Machine.t -> log:string -> bool
(** Flush the write cache: advances the durable frontier to the
    current end of log. *)

val wal_trim : t -> Machine.t -> log:string -> upto:int -> bool
(** Drops records with [index <= upto] by rewriting the log head (a
    real, costed rewrite — this is why checkpoint-then-trim has a
    crash window, which recovery closes by skipping the
    indices a checkpoint already covers).  The rewrite syncs. *)

val wal_reset : t -> machine_name:string -> log:string -> unit
(** Instant metadata truncate-to-empty, for (re)initialising a log. *)

val wal_size : t -> machine_name:string -> log:string -> int
(** Bytes in the log image, cache included. *)

val wal_durable : t -> machine_name:string -> log:string -> int
(** The durable frontier, in bytes. *)

val wal_replay : t -> Machine.t -> log:string -> replay
(** Recovery scan: costs a sequential read of the whole log on the
    machine's disk, parses it, and accounts what it found in
    {!counters}.  The machine should be alive (it is recovering). *)

val wal_read : t -> machine_name:string -> log:string -> replay
(** The same parse with no simulated cost and no counter traffic: the
    omniscient checker's view, also usable on dead machines. *)

val corrupt_wal : t -> machine_name:string -> log:string -> at:int -> unit
(** Test hook: flip one bit of the log image at byte [at]. *)

val truncate_value : t -> machine_name:string -> key:string -> len:int -> unit
(** Test hook: truncate a checkpoint value to [len] bytes, simulating
    a torn checkpoint file. *)
