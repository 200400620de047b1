(** Sets of small non-negative integers as bit masks: the communication
    halves a configuration offers or could offer, the components of a
    state.  A word holds 62 members, so a set over more than 62 ints
    spans several words; two masks combined by one operation must have
    been created for the same size. *)

type t = int array

val create : int -> t
(** [create size]: the empty set over [0 .. size - 1]. *)

val add : t -> int -> unit
val mem : t -> int -> bool

val is_empty : t -> bool

val meets : t -> t -> bool
(** The intersection is not empty. *)

val subset : t -> t -> bool
(** [subset a b]: every member of [a] is in [b]. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst]. *)
