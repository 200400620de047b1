(** Regular expressions over transition labels, compiled to monitors.

    The paper states requirements R2 and R3 as modal µ-calculus formulae of
    the shape [\[R\]false] where [R] is a regular expression over action
    predicates (e.g. [\[(¬fault)* · inactivate_nv_p1\]false]).  Such a
    formula is violated exactly when some finite run's label word matches
    [R]; this module compiles [R] to a Thompson NFA and exposes it, lazily
    determinised, as a {!Monitor.t} whose accepting states signal a match of
    the word read so far. *)

type 'l t

val empty : 'l t
(** Matches no word. *)

val eps : 'l t
(** Matches the empty word. *)

val atom : string -> ('l -> bool) -> 'l t
(** [atom name pred] matches any single label satisfying [pred]; [name] is
    used only for printing. *)

val any : 'l t
(** Matches any single label. *)

val seq : 'l t -> 'l t -> 'l t
val alt : 'l t -> 'l t -> 'l t
val star : 'l t -> 'l t
val plus : 'l t -> 'l t
val opt : 'l t -> 'l t

val repeat : 'l t -> int -> 'l t
(** [repeat r n] is [r] concatenated [n] times.
    @raise Invalid_argument if [n < 0]. *)

val seq_list : 'l t list -> 'l t

val pp : Format.formatter -> 'l t -> unit
(** Print the expression using atom names. *)

val matches : 'l t -> 'l list -> bool
(** [matches r word] tests whether [word] is in the language of [r]. *)

val compile : 'l t -> 'l Monitor.t
(** Compile to a monitor that accepts exactly the prefixes of the input
    word that match the expression.  Determinisation is lazy and memoised,
    so only monitor states actually reached during exploration are built. *)
