(** Linear temporal logic over transition labels.

    Formulas are interpreted over the {e runs} of a {!Mc.System.S}: infinite
    sequences of transitions.  Position [i] of a run carries both the label
    of the [i]-th transition and the state it was taken from, so two kinds
    of atoms exist:

    - {!Lbl} atoms hold of the label taken at the position — the
      action-based reading used for requirements over message traces
      ("a beat is delivered", "a loss occurs");
    - {!Enabled} atoms hold of the source state, via its enabled labels —
      the state-based reading that connects to {!Mc.Ctl}'s [Can] atoms.

    Finite maximal runs (runs ending in a deadlock) are handled by the
    checker's stutter-extension policy, see {!Check.stutter_policy}.

    {b Atom identity.}  Atoms are identified by their [name] (per kind)
    during the Büchi translation: two atoms of the same kind and name are
    assumed to denote the same predicate.  Give semantically different
    atoms different names. *)

type 'l t =
  | True
  | False
  | Lbl of string * ('l -> bool)
      (** the label at this position satisfies the predicate *)
  | Enabled of string * ('l -> bool)
      (** some enabled transition of the state at this position satisfies
          the predicate (false at deadlock states) *)
  | Not of 'l t
  | And of 'l t * 'l t
  | Or of 'l t * 'l t
  | Next of 'l t
  | Until of 'l t * 'l t  (** strong until *)
  | Release of 'l t * 'l t  (** dual of until *)

(** {2 Constructors} *)

val lbl : string -> ('l -> bool) -> 'l t
val enabled : string -> ('l -> bool) -> 'l t
val conj : 'l t list -> 'l t
val disj : 'l t list -> 'l t
val implies : 'l t -> 'l t -> 'l t
val finally : 'l t -> 'l t  (** [F f = Until (True, f)] *)

val globally : 'l t -> 'l t  (** [G f = Release (False, f)] *)

val infinitely_often : 'l t -> 'l t  (** [G (F f)] *)

val pp : Format.formatter -> 'l t -> unit

(** {2 Normal form} *)

val nnf : 'l t -> 'l t
(** Negation normal form: negations pushed inward until they apply only to
    atoms, using the [Until]/[Release] and De Morgan dualities ([Next] is
    self-dual — runs are infinite, by stutter extension if need be). *)

(** {2 Stutter invariance}

    Support for partial-order reduction: a reduced exploration (see
    [Por]) preserves the verdict of a formula only if the formula
    cannot distinguish runs that differ in the insertion or deletion of
    {e invisible} transitions — transitions whose label name is outside
    the formula's alphabet.

    {b Lbl contract.}  Both functions below assume every [Lbl (name,
    pred)] atom satisfies [pred l => label-name-of l = name]: the atom
    observes only labels carrying its own name.  Under that contract
    every invisible label falsifies every atom, so all invisible labels
    behave as a single stutter letter.  An atom whose predicate accepts
    labels with other names breaks the analysis silently — name atoms
    after the one action they watch. *)

val stutter_invariant : 'l t -> bool
(** Syntactic under-approximation of stutter invariance, computed on
    the NNF: [Next]-free combinations of [Lbl] atoms where every
    [Until (g, f)] has [g] true and [f] false on stutter letters (or
    [f] itself invariant), and dually for [Release].  [Enabled] atoms
    are state predicates, invalidated by reduction itself, so any
    occurrence yields [false].  Sound, not complete: a [false] answer
    only means reduction must stay off. *)

val alphabet : 'l t -> string list option
(** The names of all [Lbl] atoms, sorted and deduplicated — the
    visibility set to hand to the reducer.  [None] if an [Enabled]
    atom occurs anywhere (no label alphabet captures a state
    predicate). *)
