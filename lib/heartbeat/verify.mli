(** The verification driver: model-check a protocol against R1–R3 and
    regenerate the paper's result tables.

    This is the workflow of the paper's §5.4–5.5: build the model for a
    data set [(tmin, tmax)], check each requirement, and tabulate
    satisfied / violated. *)

type outcome = {
  holds : bool;
  counterexample : Ta.Semantics.label list option;
      (** a shortest violating trace, when [holds] is false *)
  states_explored : int option;  (** when cheaply available *)
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
(** Model-check one requirement with the sequential exact-store
    explorer ({!Mc.Explore.find}).
    [slice] (default false) first slices the model against the
    requirement's property seed ({!Requirements.slice_seed}, the
    [slice] library) and explores the sliced system instead:
    irrelevant variables and clocks are projected out, constants
    folded, and per-location inactive clocks zeroed.
    The verdict is unchanged (the slice is an exact label-preserving
    projection) and the counterexample trace replays in the full model
    ({!Slice.replay}).
    [budget] bounds the run by wall clock / live heap; a trip is
    reported in [outcome.exhausted] rather than raising.  The
    sequential engine cannot degrade its store, so a memory trip
    exhausts.
    [zone] (default false) checks the {e dense-time} semantics instead,
    through the symbolic zone engine ({!Zone.Reach} over {!Zone.Sym}):
    states are location/variable vectors paired with canonical DBMs,
    explored with inclusion subsumption.  For these models (all clock
    constraints closed) the verdict coincides with the discrete one;
    counterexample traces are action sequences modulo time and replay
    discretely ({!Zone.Reach.guided_replay}).
    [lu] (default {!Zone.Sym.Global}) selects the zone engine's
    extrapolation mode; {!Zone.Sym.Location} uses the per-location
    bound tables from the [lubounds] backward fixpoint — same
    verdicts, never more stored zones.
    @raise Invalid_argument if [zone] is combined with [slice], or if
    [lu] is [Location] without [zone].
    @raise Failure if the state bound is exceeded (no verdict). *)

val check_live :
  ?fixed:bool ->
  ?engine:Ltl.Check.engine ->
  ?slice:bool ->
  ?domains:int ->
  Ta_models.variant ->
  Params.t ->
  Requirements.requirement ->
  Ta.Semantics.label Ltl.Check.verdict
(** Model-check the liveness formulation of a requirement
    ({!Requirements.live_formula}) under time divergence
    ({!Requirements.live_fairness}).  The watchdog automata are never
    included: R1-live is a pure LTL property.  [slice] checks the
    property-free slice of the model (label-preserving, so the verdict
    is unchanged).  [domains] builds the {!Ltl.Check.Scc} engine's
    product graph in parallel (same verdict and lasso).  A refutation
    carries a lasso (render it with
    {!Msc.render_lasso}); [Unknown] is returned when the product state
    bound is hit. *)

val check_live_run :
  ?fixed:bool ->
  ?engine:Ltl.Check.engine ->
  ?slice:bool ->
  ?domains:int ->
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
  ?domains:int ->
  ?store:Mc.Store.mode ->
  ?budget:Mc.Budget.t ->
  ?degrade:bool ->
  Ta_models.variant ->
  Params.t ->
  Ta.Semantics.label Mc.Safety.verdict
(** Deadlock search as a full verdict: {!Mc.Safety.Holds} means no
    configuration without successors (one would indicate a modelling
    artefact such as a blocked urgent location), [Violated] carries a
    shortest trace to one, and a [budget] trip yields [Exhausted]
    instead of raising.  One domain with the exact [store] (the
    defaults) runs the sequential engine; more [domains] or a
    compressed [store] run {!Mc.Pexplore}, where [degrade] (default
    [true]) lets a memory trip walk the store down the compression
    ladder.  Under a compressed store [Holds] is probabilistic. *)
