(** CTL model checking over explored state graphs.

    Complements the on-the-fly safety checking of {!Safety} with full
    branching-time logic on an already-built {!Lts.Graph.t} (typically
    from {!Explore.space}).  Used in this project for liveness-flavoured
    sanity properties of the protocol models — e.g. non-zenoness: from
    every reachable configuration a time step remains reachable,
    [AG (EF (Can delay))]. *)

type 'l t =
  | True
  | False
  | Atom of string * (int -> bool)
      (** predicate over state indices of the graph; the name is used for
          printing only *)
  | Can of string * ('l -> bool)
      (** some outgoing transition carries a matching label *)
  | Not of 'l t
  | And of 'l t * 'l t
  | Or of 'l t * 'l t
  | EX of 'l t
  | EF of 'l t
  | EG of 'l t
  | AX of 'l t
  | AF of 'l t
  | AG of 'l t
  | EU of 'l t * 'l t
  | AU of 'l t * 'l t

val atom : string -> (int -> bool) -> 'l t
val can : string -> ('l -> bool) -> 'l t
val implies : 'l t -> 'l t -> 'l t
val pp : Format.formatter -> 'l t -> unit

val eval : 'l Lts.Graph.t -> 'l t -> bool array
(** The set of states satisfying the formula, as a characteristic
    array.

    Path quantifiers use the standard fixpoint characterisations over the
    finite graph.  Deadlocked states have no successors, so [EX f] (and
    hence [EF]-steps, [EG], …) are false there, while [AX f] is
    vacuously true. *)

val holds : 'l Lts.Graph.t -> 'l t -> bool
(** Does the initial state satisfy the formula? *)
