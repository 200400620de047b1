(** Protocol parameters.

    Every accelerated heartbeat protocol is parameterised by the round-time
    bounds [tmin] and [tmax] (ICDCS'98: [0 < tmin <= tmax]; [tmin] is also
    the upper bound on the round-trip channel delay) and, for the
    multi-party variants, the number [n] of participants. *)

type t = private { tmin : int; tmax : int; n : int }

val make : ?n:int -> tmin:int -> tmax:int -> unit -> t
(** [make ~tmin ~tmax ()] with [n] defaulting to 1.
    @raise Invalid_argument unless [0 < tmin <= tmax] and [n >= 1]. *)

val usual : t -> bool
(** The paper's "usual situation": [tmax > 2 * tmin]. *)

val p1_timeout : t -> int
(** [3*tmax - tmin]: the protocols' inactivation bound for participants. *)

val pp : Format.formatter -> t -> unit

val table_datasets : (int * int) list
(** The [(tmin, tmax)] pairs of the paper's Tables 1 and 2:
    [(1,10); (4,10); (5,10); (9,10); (10,10)]. *)
