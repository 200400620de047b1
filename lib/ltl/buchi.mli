(** LTL to Büchi automata, via the expand-closure tableau construction.

    The translation is the standard Gerth–Peled–Vardi–Wolper (GPVW)
    on-the-fly tableau: the formula (in negation normal form) is decomposed
    into {e nodes} carrying "now" and "next" obligations, yielding a
    generalized Büchi automaton with one acceptance set per [Until]
    subformula, which is then degeneralized with the usual counter
    construction and pruned to its reachable part.

    Transitions carry {e guards}: conjunctions of positive and negated
    atoms.  A guard is evaluated against the label taken at a step (for
    {!Formula.Lbl} atoms) and the enabled labels of the source state (for
    {!Formula.Enabled} atoms), so the same automaton drives both the
    on-the-fly product ({!Check}) and word-level acceptance tests. *)

type kind = Label | State

type 'l atom = { aname : string; kind : kind; pred : 'l -> bool }

type guard = { pos : int list; neg : int list }
(** Indices into {!t.atoms}: all of [pos] must hold, none of [neg]. *)

type 'l t = {
  atoms : 'l atom array;
  size : int;  (** number of automaton states *)
  initial : int;
      (** the pre-initial state: no letter has been read yet; its outgoing
          guards constrain the first letter *)
  delta : (guard * int) list array;  (** outgoing edges, per state *)
  accepting : bool array;
}

val of_formula : 'l Formula.t -> 'l t
(** [of_formula f] is a Büchi automaton accepting exactly the infinite
    runs satisfying [f].  To check a system against [f], translate the
    {e negation} and test the product for emptiness (see {!Check}).

    Atoms are identified by [(kind, name)]: two atoms with the same name
    and kind are assumed to carry the same predicate (the first one wins).
    The automaton is pruned to the states reachable from [initial]. *)

val guard_holds :
  'l t -> guard -> label:'l option -> can:(('l -> bool) -> bool) -> bool
(** [guard_holds ba g ~label ~can] evaluates a guard at one step of a run:
    [label] is the label taken ([None] on a stutter step, where every
    [Label] atom is false), and [can p] tells whether some enabled label of
    the source state satisfies [p] (evaluates [State] atoms; pass
    [fun _ -> false] for deadlock states). *)

val pp_stats : Format.formatter -> 'l t -> unit
(** One-line [states/edges/accepting/atoms] summary. *)
