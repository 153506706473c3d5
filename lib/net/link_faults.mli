(** The link fault model, shared by both fabrics.

    The paper's testbed lost frames and crashed hosts; the negative
    acknowledgement and recovery protocols exist to survive exactly
    that.  This module is the one place that decides what the network
    does to a frame beyond the fabric's own physics (collisions on the
    {!Ether}, queue tail drops in the {!Switch}).  A fabric owns one
    [t] and applies it at two points:

    - {!admit} once per frame, where the fabric accepts it (the end of
      a won transmission on the Ether, store-and-forward arrival at the
      switch): whole-frame injected loss;
    - {!deliver} once per receiver, where the frame is handed to a
      station: partitions, one-way cuts, then the directed link's
      conditions — Gilbert–Elliott loss, corruption and jitter, and
      duplication, in that order.

    Every random draw comes from the engine's deterministic RNG, and
    a clean link draws nothing, so adding a fault changes nothing
    before it is installed.  With no partition, directed cut or
    condition installed the net is {!quiet}, and a fabric can skip
    {!deliver} entirely. *)

open Amoeba_sim

type t

val create : Engine.t -> t

(** {1 Fabric side} *)

val admit : t -> Frame.t -> bool
(** [admit t frame] applies whole-frame injected loss ({!set_drop_fun},
    {!set_loss_rate}).  [false] means the frame is lost and counted in
    {!frames_lost}; the sender still observed [`Sent]. *)

val quiet : t -> bool
(** No partition, directed cut or non-clean condition is installed.
    Two cheap reads; the receive loop's fast-path guard. *)

val deliver : t -> src:int -> dst:int -> Frame.t -> (Frame.t -> unit) -> unit
(** [deliver t ~src ~dst frame push] applies the per-receiver faults
    on the directed link [src -> dst] and calls [push] zero, one or
    two times (duplication), possibly later (jitter: scheduled in the
    engine's root group, so a sender's crash does not cancel frames in
    flight) and possibly with a {!Frame.Corrupted} body. *)

(** {1 Whole-frame loss} *)

val set_drop_fun : t -> (Frame.t -> bool) option -> unit
(** [set_drop_fun t (Some f)] silently discards every frame for which
    [f] returns true — the "lost message" case the
    negative-acknowledgement machinery exists for.  [None] disables
    it. *)

val set_loss_rate : t -> float -> unit
(** Random independent frame loss with the given probability.
    Composes with {!set_drop_fun}. *)

val loss_rate : t -> float

val frames_lost : t -> int
(** Frames discarded by {!admit}. *)

(** {1 Partitions}

    A beyond-paper extension: the paper's testbed was one shared
    segment and only crash failures were modelled, but the recovery
    protocol is also exercised by members that are alive yet
    unreachable.  A partition severs a set of station {e pairs};
    transmission succeeds and delivery across a cut is silently
    suppressed. *)

val partition : t -> int list -> int list -> unit
(** [partition t side_a side_b] severs every pair with one station in
    [side_a] and the other in [side_b].  Pairs are symmetric. *)

val partition_pair : t -> int -> int -> unit

val heal_pair : t -> int -> int -> unit

val heal : t -> unit
(** Removes every cut, symmetric and one-way. *)

val partitioned : t -> int -> int -> bool

val partition_drops : t -> int
(** Deliveries suppressed by partitions (counted per receiver, unlike
    {!frames_lost} which counts whole frames). *)

(** {1 One-way cuts}

    A directed partition: frames from [src] never reach [dst] while
    the reverse direction stays up — a failing transceiver or
    asymmetric routing fault.  Nastier than a symmetric cut because
    the deaf side still hears everyone and believes the net healthy. *)

val cut_oneway : t -> src:int -> dst:int -> unit

val heal_oneway : t -> src:int -> dst:int -> unit

val oneway_cut : t -> src:int -> dst:int -> bool

val oneway_drops : t -> int
(** Deliveries suppressed by one-way cuts (counted per receiver). *)

(** {1 Link conditions}

    Adversarial per-link behaviour beyond uniform loss: correlated
    (bursty) loss via a two-state Gilbert–Elliott channel,
    duplication, reordering via per-frame delivery jitter, and payload
    corruption.  Conditions apply per {e directed} link; a default
    applies to every link without an override. *)

type gilbert = {
  p_gb : float;  (** good → bad transition probability, per frame *)
  p_bg : float;  (** bad → good *)
  loss_good : float;  (** loss probability while in the good state *)
  loss_bad : float;  (** loss probability while in the bad state *)
}

type conditions = {
  gilbert : gilbert option;  (** bursty loss; [None] = lossless *)
  dup_prob : float;  (** probability a delivered frame arrives twice *)
  jitter_ns : int;
      (** each delivery is delayed by a uniform draw from
          [0, jitter_ns], so later frames can overtake earlier ones *)
  corrupt_prob : float;
      (** probability a delivered copy has a bit flipped at a random
          byte offset; receivers' checksums must catch it *)
}

val clean : conditions
(** No loss, duplication, jitter or corruption. *)

val set_conditions : t -> conditions -> unit
(** Sets the default conditions for every link without a per-link
    override, and resets the default Gilbert–Elliott channel to the
    good state. *)

val conditions : t -> conditions

val set_link_conditions : t -> src:int -> dst:int -> conditions option -> unit
(** Overrides the conditions on one directed link ([None] removes the
    override, falling back to the default). *)

val link_conditions : t -> src:int -> dst:int -> conditions option

val cond_losses : t -> int
(** Deliveries suppressed by Gilbert–Elliott loss (per receiver). *)

val duplicates_injected : t -> int

val corruptions_injected : t -> int

val frames_jittered : t -> int
