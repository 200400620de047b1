(** Streaming statistics for simulation measurements. *)

type t
(** A streaming accumulator of a sample's count, mean and maximum. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)
