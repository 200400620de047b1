(** LTL to Büchi automata, via the expand-closure tableau construction.

    The translation is the standard Gerth–Peled–Vardi–Wolper (GPVW)
    on-the-fly tableau: the formula (in negation normal form) is decomposed
    into {e nodes} carrying "now" and "next" obligations, yielding a
    generalized Büchi automaton with one acceptance set per [Until]
    subformula, which is then degeneralized with the usual counter
    construction and pruned to its reachable part.

    Transitions carry {e guards}: conjunctions of positive and negated
    atoms, compiled once into bit masks.  A step of a run is read as a
    {e valuation}, one bit per atom: the label taken at the step decides
    the {!Formula.Lbl} atoms, the enabled labels of the source state the
    {!Formula.Enabled} atoms.  The on-the-fly product ({!Check})
    evaluates each atom once per step and then tests every guard with
    {!allows}. *)

type kind = Label | State

type 'l atom = { aname : string; kind : kind; pred : 'l -> bool }

type guard = { pos : int array; neg : int array }
(** Masks over {!t.atoms}, of {!t.words} words each: all of [pos] must
    hold, none of [neg].  Atom [a] is bit [a mod Sys.int_size] of word
    [a / Sys.int_size], so no formula has too many atoms. *)

type 'l t = {
  atoms : 'l atom array;
  words : int;
      (** the length of every mask and valuation: [Sys.int_size] atoms
          to a word *)
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

val mark : int array -> int -> unit
(** [mark v a] makes atom [a] true in the valuation [v] (an array of
    {!t.words} words, all false when zero). *)

val allows : guard -> int array -> bool
(** [allows g v]: the valuation [v] satisfies the guard [g].  At a
    stutter step every atom is false, so [v] is all zeros. *)

val pp_stats : Format.formatter -> 'l t -> unit
(** One-line [states/edges/accepting/atoms] summary. *)
