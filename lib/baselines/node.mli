(** One member of a comparison protocol's group (paper §6), shared by
    {!Cm}, {!Posack} and {!Migrating} so the three foils charge the
    same costs for the same steps.  The node owns identity, FLIP
    registration, the one protocol process (so a node's messages reach
    the wire in commit order), the wire-size rule, in-order delivery,
    the blocking send and the history-served [Nack] repair; a protocol
    supplies its messages, state and sequencing rule as {!rules}. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_flip

type delivery = {
  seq : int;
  sender : int;
  body : bytes;
}

type entry = int * int * bytes
(** A sequenced message: sender index, the sender's message id, body. *)

type wire = ..
(** Protocol messages; each protocol adds its own constructors. *)

type wire +=
  | Nack of { seq : int; reply_to : Addr.t }
        (** member [seq mod n] answers from its history *)
  | Retrans of { seq : int; sender : int; msgid : int; body : bytes }

type state = ..
(** A protocol's per-node state; each protocol adds one constructor. *)

type submission = {
  msgid : int;
  body : bytes;
  done_ : unit Ivar.t;  (** filled on local delivery *)
}

type t = {
  idx : int;
  n : int;
  flip : Flip.t;
  machine : Machine.t;
  engine : Engine.t;
  cost : Cost_model.t;
  gaddr : Addr.t;
  kaddr : Addr.t;
  mutable peers : Addr.t array;  (** index -> kernel address *)
  rules : rules;
  state : state;
  inbox : (unit -> unit) Channel.t;  (** steps for the protocol process *)
  deliveries : delivery Channel.t;
  mutable nxt : int;  (** next seq to deliver *)
  mutable max_seen : int;  (** highest seq known to be assigned *)
  slots : (int, entry) Hashtbl.t;  (** sequenced, not yet delivered *)
  hist : (int, entry) Hashtbl.t;  (** delivered, for repairs *)
  mutable repair_armed : bool;
  mutable pending : (int * unit Ivar.t) option;  (** the blocked send *)
  mutable msgid_counter : int;
}

and rules = {
  init : unit -> state;
  payload : wire -> bytes option;
      (** A message's user data, if any; its size is the group header,
          plus the user header and the data when there is some. *)
  receive : t -> wire -> unit;  (** one of the protocol's own messages *)
  submit : t -> submission -> unit;  (** until delivered locally *)
  repaired : t -> int -> entry -> unit;  (** a [Retrans] for seq >= [nxt] *)
}

val charge : t -> Time.t -> unit  (** group-layer CPU time *)

val mcast : t -> wire -> unit
val ucast : t -> dst:Addr.t -> wire -> unit

val learn : t -> int -> entry -> unit
(** Stores a sequenced message and delivers what is now in order, a
    user context switch each, completing the pending send. *)

val gap : t -> bool
(** [max_seen >= nxt]: a sequence number is still missing. *)

val arm_repair : t -> (unit -> unit) -> unit
(** Unless already armed: a nack timeout from now, if a gap remains,
    multicasts a [Nack] for [nxt] and then runs the continuation. *)

val retry_later : t -> submission -> unit
(** Submits again after a retransmission timeout. *)

val make_group : rules -> Flip.t list -> t list
(** One node per FLIP stack, member [i] on the [i]th. *)

val send : t -> bytes -> unit
(** Blocking totally-ordered broadcast: returns once the message has
    been sequenced and delivered locally. *)

val events : t -> delivery Channel.t
val delivered : t -> int
