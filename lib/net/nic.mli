(** AMD Lance-style network interface.

    The receive ring buffers a fixed number of frames (32 in the
    paper's testbed); frames arriving while the ring is full are
    dropped silently, exactly the failure mode behind the missing
    large-message data points in Figures 4 and 5.  Every received
    frame costs the host an interrupt, driver work, and one copy out
    of the ring; every transmitted frame costs driver work and one
    copy into the ring. *)

open Amoeba_sim

type t

val create :
  Engine.t ->
  Cost_model.t ->
  Trace.t ->
  Medium.t ->
  group:Engine.group ->
  station:int ->
  host:string ->
  cpu:Resource.t ->
  alive:(unit -> bool) ->
  t
(** [group] is the owning machine's lifecycle group: the NIC's service
    process is spawned into it, so crash-stopping the machine halts
    frame processing (not just the [alive] gate). *)

val station : t -> int

val set_handler : t -> (Frame.t -> unit) -> unit
(** Installs the upper layer's receive function.  It runs in the NIC's
    service process, after the interrupt/driver/copy costs have been
    charged; it may block (and thereby back-pressure the ring). *)

val join_multicast : t -> int -> unit

val leave_multicast : t -> int -> unit

val send : t -> Frame.t -> [ `Sent | `Dropped ]
(** Blocking transmit: charges driver + copy cost to the host CPU,
    then contends for the wire.  Must be called from a process. *)

(** {1 Statistics} *)

val rx_dropped : t -> int
(** Frames lost to receive-ring overflow. *)

val rx_frames : t -> int

val interrupts : t -> int
(** Interrupts taken (one per received frame copied out). *)
