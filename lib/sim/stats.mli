(** Simple descriptive statistics for experiment results. *)

type t
(** A mutable accumulator of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float

val max_value : t -> float
