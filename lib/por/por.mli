(** Static dependence analysis and ample-set partial-order reduction.

    The paper's specifications are parallel compositions whose
    components mostly act independently; interleaving all their
    invisible local moves is what makes the full state space large.
    This module (1) statically computes, per component of a
    {!Proc.Spec.t}, which action names it can ever offer and who its
    communication partners are, and (2) uses that dependence
    information to build a {e reduced} {!Mc.System.t} that explores
    only an ample subset of each state's transitions, sound for
    deadlocks, safety monitors over a given alphabet, and
    stutter-invariant LTL over that alphabet (see DESIGN.md for the
    soundness argument and the cycle proviso).

    The ample search at a state reads the masks each memoised
    {!Proc.Semantics} menu carries (the partner halves a component
    offers now, the halves it could ever offer) and one transition
    list, built by the full relation's pairing routine with each
    transition's participants: it closes every seed's group by bit
    operations and filters that list against the group's mask.  So a
    reduced expansion costs about one full expansion, and an ample set
    keeps the full relation's transition order.

    The reduced system is stateful: it memoizes expansions and stamps
    every state with its discovery order to implement the cycle
    proviso, so for a given explorer the reduced graph and its
    statistics are deterministic.  Those tables are unsynchronised: the
    system belongs to the domain that built it, and a call from another
    domain raises [Invalid_argument] instead of racing.  The sequential
    explorers drive it ({!Mc.Explore}, {!Mc.Safety}, the {!Ltl.Check}
    engines); queries that run on several domains build one reduced
    system each. *)

type analysis
(** Result of the static pass over one specification. *)

val analyze : Proc.Spec.t -> analysis
(** Compile the spec and compute per-component statically-reachable
    action alphabets (via the call graph, as in [Lint.Pa]) and the
    offerer table: for each action name, which components can ever
    offer it.
    @raise Invalid_argument if {!Proc.Spec.validate} rejects the spec. *)

val analyze_cached : Proc.Spec.t -> analysis
(** Like {!analyze}, memoised on the spec term (structural equality):
    table sweeps and smoke matrices that revisit the same spec share
    one analysis.  Safe because the analysis is a pure function of the
    spec. *)

val cache_stats : unit -> int * int
(** [(lookups, hits)] of the {!analyze_cached} memo since start-up. *)

val compiled : analysis -> Proc.Semantics.compiled

val zeno_free : analysis -> bool
(** Statically proven: every cycle of the full system performs a tick.
    Since ample sets never contain the tick, a zeno-free spec needs no
    runtime cycle proviso — reduction is then both cheaper and more
    effective.  Conservative: [false] only means the runtime proviso
    stays on. *)

val zeno_suspects : analysis -> int list
(** The component indices the zeno pruning could not discharge —
    the potential movers of a tick-free cycle.  [[]] iff {!zeno_free}. *)

type stats = {
  mutable states : int;
      (** expansions computed: the states whose successors were
          computed *)
  mutable ample_states : int;
      (** of those, states where an ample subset was returned *)
  mutable no_refuser : int;
      (** fully expanded: every candidate group had all members offering
          [tick] (typically a stable state where only time can pass) *)
  mutable proviso_blocked : int;
      (** fully expanded: every otherwise-valid candidate had a
          potential cycle-closing back edge *)
  mutable visible_blocked : int;
      (** fully expanded: every tick-refusing candidate offered a
          visible label (or nothing at all) *)
}

val reduced_system_stats :
  ?alphabet:string list ->
  analysis ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t * stats
(** A reduced system together with its live counters.  [alphabet] is
    the property alphabet: the label names the property being checked
    can observe (a safety monitor's predicate names, or the [Lbl]
    atoms of a stutter-invariant LTL formula).  Every transition label
    whose name is in [alphabet] is treated as visible and never
    reduced past.  The default [[]] (pure reachability / state
    counting) reduces the most.  The system's successor function
    raises [Invalid_argument] when called from a domain other than the
    one that built it. *)

val reduced_system :
  ?alphabet:string list ->
  analysis ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t

val reduction :
  analysis ->
  alphabet:string list ->
  (Proc.Semantics.state, Proc.Semantics.label) Mc.System.t option
(** Adapter with the shape {!Ltl.Check.check}'s [?reduction] callback
    expects: builds a fresh reduced system for the formula's alphabet. *)

val diagnostics : analysis -> Lint_report.diag list
(** The dependence analysis as [hblint] report entries (code [PA-POR],
    severity Info): a summary of ample opportunities, one entry per
    communication pair naming the dependent component groups, and one
    entry per local action naming its offerers.  Deterministic. *)
