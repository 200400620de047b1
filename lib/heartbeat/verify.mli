(** The verification driver: model-check a protocol against R1–R3 and
    regenerate the paper's result tables.

    This is the workflow of the paper's §5.4–5.5: build the model for a
    data set [(tmin, tmax)], check each requirement, and tabulate
    satisfied / violated.  Every verdict, {!deadlocks} included, runs
    sequentially on the calling domain with an exact store. *)

type outcome = {
  holds : bool;
  counterexample : Ta.Semantics.label list option;
      (** a shortest violating trace, when [holds] is false; [None] also
          when the budget tripped during {!check}'s discrete witness
          search, after the zone engine had found the violation *)
  states_explored : int option;
      (** when cheaply available: the zones stored by a zone-decided
          [HOLDS], or the states of an exhausted run *)
  exhausted : Mc.Explore.exhaustion option;
      (** set when the resource budget tripped before a full verdict:
          [holds] is then [false] with no counterexample, meaning
          "no violation found in the covered fraction" *)
}

val check :
  ?fixed:bool ->
  ?slice:bool ->
  ?budget:Mc.Budget.t ->
  ?zone:bool ->
  ?lu:Zone.Sym.lu ->
  Ta_models.variant ->
  Params.t ->
  Requirements.requirement ->
  outcome
(** Model-check one requirement, sequentially with exact stores.

    By default the {e zone engine decides} ({!Zone.Reach} over
    {!Zone.Sym}, location LU): states are location/variable vectors
    paired with canonical DBMs, explored with inclusion subsumption.
    A [HOLDS] ends there.  A violation is then {e explained} by
    {!check_discrete}'s search on the same compiled network, which
    returns the shortest timestamped counterexample (unit delays as
    [Delay] labels) and must confirm the zone verdict.  Zone and
    discrete verdicts coincide because every clock atom of these
    models is closed, so digitisation is exact (the test [lubounds
    heartbeat clock atoms closed] checks the premise on every model
    this function and {!worst_detection} build, and the heartbeat
    suite compares both engines on the 180 table cells).
    [zone] (default false) stops after the zone verdict: its
    counterexample is the zone trace, an action sequence modulo time
    that replays discretely ({!Zone.Reach.guided_replay}).
    [slice] (default false) runs the discrete search alone, on the
    model sliced against the requirement's property seed
    ({!Requirements.slice_seed}, the [slice] library): irrelevant
    variables and clocks are projected out, constants folded, and
    per-location inactive clocks zeroed.  The verdict is unchanged (the
    slice is an exact label-preserving projection) and the
    counterexample trace replays in the full model ({!Slice.replay}).
    [budget] bounds the run by wall clock / live heap; a trip is
    reported in [outcome.exhausted] rather than raising (on the default
    path, a trip in the zone search counts zones).  A trip during the
    witness search keeps the zone verdict: [holds] is [false] with no
    counterexample and no exhaustion.  The sequential engines cannot
    degrade their stores, so a memory trip exhausts.
    [lu] selects nothing: location LU is the zone engine's only mode,
    and the argument remains only for callers that still pass
    [~lu:Zone.Sym.Location] (see {!Zone.Sym.lu}).
    @raise Invalid_argument if [zone] is combined with [slice].
    @raise Failure if a state bound is exceeded (no verdict), or if the
    discrete search does not confirm a zone violation. *)

val check_discrete :
  fixed:bool ->
  Ta_models.variant ->
  Params.t ->
  Requirements.requirement ->
  outcome
(** The plain discrete search ({!Mc.Explore.find} over the digitised
    semantics of the unsliced model, no budget): the engine that
    explains {!check}'s violations, and the discrete reference of the
    slice and zone gates and of the cross-engine tests.
    @raise Failure if the state bound is exceeded. *)

val decide_on_zones :
  instance:string ->
  zones:int ->
  ('z, Ta.Semantics.label) Mc.Explore.verdict ->
  (unit -> ('c, Ta.Semantics.label) Mc.Explore.verdict) ->
  outcome
(** [decide_on_zones ~instance ~zones zone explain] is {!check}'s
    default rule on a zone verdict [zone] that stored [zones] states:
    anything but a violation is the outcome as it stands; a violation
    calls [explain] (the discrete search), whose [Reached] supplies the
    counterexample and whose budget trip keeps the verdict without
    one.  Exported so that tests can plant a disagreement.
    @raise Failure naming [instance] if [explain] finds no violation or
    hits its state bound, or if [zone] hit its own. *)

val check_live :
  ?fixed:bool ->
  ?engine:Ltl.Check.engine ->
  ?slice:bool ->
  Ta_models.variant ->
  Params.t ->
  Requirements.requirement ->
  Ta.Semantics.label Ltl.Check.verdict
(** Model-check the liveness formulation of a requirement
    ({!Requirements.live_formula}) under time divergence
    ({!Requirements.live_fairness}).  The watchdog automata are never
    included: R1-live is a pure LTL property.  [slice] checks the
    property-free slice of the model (label-preserving, so the verdict
    is unchanged).  A refutation carries a lasso (render it with
    {!Msc.render_lasso}); [Unknown] is returned when the product state
    bound is hit. *)

val check_live_run :
  ?fixed:bool ->
  ?engine:Ltl.Check.engine ->
  ?slice:bool ->
  ?budget:Mc.Budget.t ->
  ?checkpoint:
    (int
    * ((Ta.Semantics.config, Ta.Semantics.label) Ltl.Check.product_cursor ->
      unit)) ->
  ?resume:(Ta.Semantics.config, Ta.Semantics.label) Ltl.Check.product_cursor ->
  Ta_models.variant ->
  Params.t ->
  Requirements.requirement ->
  (Ta.Semantics.config, Ta.Semantics.label) Ltl.Check.run_result
(** The resilient form of {!check_live} ({!Ltl.Check.check_run}): a
    budget trip with the {!Ltl.Check.Scc} engine suspends into a
    checkpointable product cursor instead of concluding, and [resume]
    continues from one.
    @raise Invalid_argument if [checkpoint]/[resume] is combined with
    the {!Ltl.Check.Ndfs} engine. *)

type row = {
  tmin : int;
  tmax : int;
  r1 : bool;
  r2 : bool;
  r3 : bool;
}

val table : ?fixed:bool -> ?n:int -> Ta_models.variant -> row list
(** One verification row per data set of the paper
    ({!Params.table_datasets}), i.e. Table 1 for the binary family and
    static, Table 2 for expanding/dynamic. *)

val pp_table :
  Format.formatter -> header:string -> row list -> unit
(** Render rows in the layout of the paper's tables ([T]/[F] entries). *)

val worst_detection : ?fixed:bool -> Ta_models.variant -> Params.t -> int
(** The exact worst-case time between the last heartbeat received by
    p\[0\] and p\[0\]'s inactivation, measured {e on the model}: the
    smallest watchdog bound [B] such that the R1 property with bound [B]
    holds.  Cross-validates the §6.2 closed-form analysis
    ({!Bounds.p0_detection_exhaustive}) against the actual state space.
    @raise Failure if even the bound [4*tmax] is violated (p\[0\] can
    starve forever — e.g. the dynamic protocol's leave semantics). *)

val deadlocks :
  ?fixed:bool ->
  ?budget:Mc.Budget.t ->
  Ta_models.variant ->
  Params.t ->
  Ta.Semantics.label Mc.Safety.verdict
(** Deadlock search as a full verdict: {!Mc.Safety.Holds} means no
    configuration without successors (one would indicate a modelling
    artefact such as a blocked urgent location), [Violated] carries a
    shortest trace to one, and a [budget] trip yields [Exhausted]
    instead of raising.  Like every verdict, it runs the sequential
    exact-store engine ({!Mc.Safety.check_state}), so [Holds] is
    exhaustive and a memory trip exhausts. *)
