(** LTL model checking: Büchi products, emptiness, lasso counterexamples.

    [check sys f] decides whether every run of [sys] satisfies [f], by
    translating [¬f] (conjoined with the fairness premises) to a Büchi
    automaton ({!Buchi}), building the product with [sys] on the fly, and
    testing the product for emptiness.  A non-empty product yields a
    {e lasso} counterexample: a finite prefix followed by a cycle repeated
    forever.

    Two emptiness engines are provided.  {!Ndfs} is the on-the-fly nested
    depth-first search (Courcoubetis–Vardi–Wolper–Yannakakis, with the
    cyan-coloring early-termination improvement): memory-lean, stops at the
    first accepting cycle.  {!Scc} builds the full product graph with
    {!Mc.Explore} and scans its Tarjan components ({!Lts.Graph.scc}) for a
    nontrivial one containing an accepting state: the cross-validation
    engine, and the one that reports shortest-prefix lassos.  Both are
    deterministic; they agree on every verdict (the test suite checks this
    on random models). *)

(** {2 Runs, stuttering, fairness} *)

type 'l step = Step of 'l | Stutter
(** One position of a run: a transition label, or the virtual stutter
    step extending a finite run past a deadlock. *)

type 'l lasso = { prefix : 'l step list; cycle : 'l step list }
(** A counterexample run: [prefix] then [cycle] forever ([cycle] is
    nonempty). *)

type stutter_policy =
  | Extend
      (** deadlock states get a virtual {!Stutter} self-loop: every
          {!Formula.Lbl} atom is false there, every {!Formula.Enabled}
          atom too.  Finite maximal runs thus refute liveness ("nothing
          ever happens again") — the default, matching the view that a
          deadlock is observable. *)
  | Ignore
      (** finite maximal runs are not runs at all: only infinite paths
          can refute a property.  A system whose every run deadlocks
          satisfies every formula vacuously. *)

type 'l fairness = { fname : string; premise : 'l Formula.t }
(** A fairness constraint, as an LTL premise assumed of every run:
    [check] decides [premises -> f], i.e. unfair runs cannot refute. *)

val weakly_fair :
  string -> enabled:('l -> bool) -> taken:('l -> bool) -> 'l fairness
(** Weak fairness (justice): a run that keeps [enabled] continuously
    enabled from some point on must take [taken] infinitely often —
    [GF (¬Enabled(enabled) ∨ Lbl(taken))]. *)

val often : string -> ('l -> bool) -> 'l fairness
(** Unconditional fairness: labels satisfying the predicate occur
    infinitely often — [GF Lbl(p)].  With the global clock tick this is
    time divergence: Zeno runs (and stutter extensions) are unfair. *)

val response :
  string -> trigger:('l -> bool) -> response:('l -> bool) -> 'l fairness
(** Response fairness: infinitely many [trigger] labels imply infinitely
    many [response] labels — [GF trigger → GF response].  The fair-lossy
    channel assumption: a message retransmitted forever is eventually
    delivered, killing the "drop every heartbeat" lasso. *)

(** {2 Checking} *)

type 'l verdict =
  | Holds  (** every (fair) run satisfies the formula *)
  | Refuted of 'l lasso  (** a fair run violating the formula *)
  | Unknown of int  (** product state bound hit before a verdict *)
  | Exhausted of Mc.Explore.exhaustion
      (** the resource budget tripped before a verdict: no accepting
          cycle among the product states actually explored *)

type engine = Ndfs | Scc

type ('s, 'l) product_cursor = ('s * int, 'l step) Mc.Explore.cursor
(** A suspended {!Scc} product-space build: an {!Mc.Explore.cursor}
    over product states (system state × automaton state) and step
    labels.  Marshal it (see {!Mc.Checkpoint}) to resume the check in a
    later process — the resuming call must rebuild the {e same} system
    and formula. *)

type ('s, 'l) run_result =
  | Concluded of 'l verdict
  | Suspended of Mc.Budget.reason * ('s, 'l) product_cursor

val check :
  ?engine:engine ->
  ?stutter:stutter_policy ->
  ?fairness:'l fairness list ->
  ?reduction:(alphabet:string list -> ('s, 'l) Mc.System.t option) ->
  ?max_states:int ->
  ?domains:int ->
  ?budget:Mc.Budget.t ->
  ('s, 'l) Mc.System.t ->
  'l Formula.t ->
  'l verdict
(** [check sys f] — defaults: {!Ndfs}, {!Extend}, no fairness,
    [max_states = Mc.Explore.default_max] (bounding the number of distinct
    product states explored).

    A property-preserving slice (see the [slice] library) is passed as
    [sys] itself; a [reduction] composed with it is built over the
    sliced model.

    [reduction] (default none) offers a partial-order-reduced
    replacement for [sys] — typically [Por.reduction] partially
    applied.  It is consulted only when the checked formula
    ({e including} the fairness premises) passes
    {!Formula.stutter_invariant} and has a pure label alphabet
    ({!Formula.alphabet}); the callback receives that alphabet as the
    visibility set and may itself decline by returning [None].  The
    verdict is unchanged by construction; lassos come from the reduced
    product, so their runs exist in the full system but may schedule
    independent actions in a different order than an unreduced search
    would report.

    [domains] affects the {!Scc} engine only: at more than one domain
    its product graph is built with {!Mc.Pexplore} (byte-identical to
    the sequential graph; the store is always exact), so verdicts and
    lassos are unchanged at any domain count.
    Combining [domains > 1] with [reduction] requires a parallel-safe
    reduction ([Por.reduction ~par:true]).  {!Ndfs} is inherently
    sequential (its stack colouring has no parallel analogue here) and
    ignores it.

    [budget] bounds the check by wall clock / live heap / cancellation
    ({!Mc.Budget}); a trip yields {!Exhausted} with the product-state
    count reached.  Both engines poll it: {!Ndfs} once per product
    state touched, {!Scc} within the underlying space build. *)

val check_run :
  ?engine:engine ->
  ?stutter:stutter_policy ->
  ?fairness:'l fairness list ->
  ?reduction:(alphabet:string list -> ('s, 'l) Mc.System.t option) ->
  ?max_states:int ->
  ?domains:int ->
  ?budget:Mc.Budget.t ->
  ?checkpoint:(int * (('s, 'l) product_cursor -> unit)) ->
  ?resume:('s, 'l) product_cursor ->
  ('s, 'l) Mc.System.t ->
  'l Formula.t ->
  ('s, 'l) run_result
(** The resilient form of {!check} ({!Scc} engine for
    checkpoint/resume).  On a budget trip the product-space build
    suspends into a {!product_cursor} instead of concluding; [resume]
    continues from one.  [checkpoint = (every, f)] additionally calls
    [f] with a consistent snapshot every [every] expanded product
    states on the {e sequential} Scc path (one domain) —
    the parallel path checkpoints only at suspension.  Sequential
    resumed runs are byte-identical to uninterrupted ones (same graph,
    same lasso); parallel ones are verdict-identical.
    @raise Invalid_argument if [checkpoint] or [resume] is given with
    the {!Ndfs} engine (its search state is not checkpointable). *)

val product :
  ('s, 'l) Mc.System.t ->
  'l Buchi.t ->
  stutter:stutter_policy ->
  ('s * int, 'l step) Mc.System.t * (('s * int) -> bool)
(** The Büchi product as an explorable system, paired with its acceptance
    predicate — exposed for the benchmarks and the test suite.  The
    automaton component starts in {!Buchi.t.initial}. *)

(** {2 Verdict utilities} *)

val holds : 'l verdict -> bool

val strip : 'l step list -> 'l list
(** Drop stutter steps, keeping the transition labels. *)

val pp_step :
  pp_label:(Format.formatter -> 'l -> unit) ->
  Format.formatter -> 'l step -> unit

val pp_verdict :
  pp_label:(Format.formatter -> 'l -> unit) ->
  Format.formatter -> 'l verdict -> unit
(** Render a verdict; a lasso prints as the prefix, a [-- cycle --]
    separator, then the cycle. *)
