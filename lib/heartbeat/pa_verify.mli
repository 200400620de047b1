(** Verification of the process-algebra models (paper §5.2).

    The paper checks the same requirements on the mCRL2 models with the
    CADP toolset, using µ-calculus safety formulae of the shape
    [\[R\]false] plus watchdog monitor processes.  Here R2 and R3 are the
    corresponding regular safety properties over the action traces, and R1
    is a deadline monitor over [tick]s ({!Mc.Monitor.deadline}) — the
    exact counterpart of the paper's watchdog-with-error-action scheme.

    Every check runs sequentially on the calling domain: the safety
    checks through {!Mc.Safety.check_monitor}, the liveness checks
    through {!Ltl.Check}.  A reduced check builds its own {!Por} system
    per monitor or formula, which belongs to that domain.

    The test suite checks these verdicts against the timed-automata
    verdicts of {!Verify} on common data sets (the paper's claim that
    "both model checkers produced similar results"). *)

val monitors :
  Pa_models.variant ->
  Params.t ->
  Requirements.requirement ->
  (Proc.Semantics.label Mc.Monitor.t * string list) list
(** The safety monitors that check a requirement, one per watched
    participant for R1 and R2 and one for R3, each with its alphabet:
    the action names its predicates observe, plus [tick] for the R1
    deadlines.  The alphabet is what {!Por} keeps visible when a check
    is reduced. *)

val check_verdict :
  ?max_states:int ->
  ?reduce:bool ->
  ?budget:Mc.Budget.t ->
  Pa_models.variant ->
  Params.t ->
  Requirements.requirement ->
  Proc.Semantics.label Mc.Safety.verdict
(** Like {!check} but as a full {!Mc.Safety.verdict}: the first
    non-[Holds] verdict among the requirement's monitors is returned
    (monitors are checked in participant order).  A [budget] trip
    surfaces as [Exhausted] instead of raising. *)

val check :
  ?max_states:int ->
  ?reduce:bool ->
  Pa_models.variant ->
  Params.t ->
  Requirements.requirement ->
  bool
(** [check variant params req] model-checks [req] on the process-algebra
    model; [true] means the requirement holds.  [reduce] (default false)
    explores an ample-set reduced sub-structure instead ({!Por}), with
    each monitor's alphabet kept visible; the verdict is unchanged,
    counterexample traces may schedule independent actions differently.
    @raise Failure if the state bound (default 4 million) is exceeded. *)

type explore_stats = { states : int; transitions : int; complete : bool }

val explore :
  ?max_states:int ->
  ?reduce:bool ->
  Pa_models.variant ->
  Params.t ->
  explore_stats
(** Reachable states and transitions.  With [reduce] the ample-set
    partial-order reduction ({!Por}) with an empty property alphabet is
    applied, so the counts are those of the reduced sub-structure;
    [complete = false] means the bound was hit (the counts are then the
    deterministic truncation of {!Mc.Explore.space}). *)

val check_live :
  ?engine:Ltl.Check.engine ->
  ?reduce:bool ->
  Pa_models.variant ->
  Params.t ->
  Requirements.requirement ->
  Proc.Semantics.label Ltl.Check.verdict
(** The liveness reading of the requirement
    ({!Requirements.live_formula_pa}) under time divergence
    ({!Requirements.live_fairness_pa}).  With [reduce] the check offers
    {!Ltl.Check.check} the partial-order reduction; the formulas pass the stutter-invariance gate, so
    it is actually applied. *)

val check_live_run :
  ?engine:Ltl.Check.engine ->
  ?reduce:bool ->
  ?budget:Mc.Budget.t ->
  ?checkpoint:
    (int
    * ((Proc.Semantics.state, Proc.Semantics.label) Ltl.Check.product_cursor ->
      unit)) ->
  ?resume:
    (Proc.Semantics.state, Proc.Semantics.label) Ltl.Check.product_cursor ->
  Pa_models.variant ->
  Params.t ->
  Requirements.requirement ->
  (Proc.Semantics.state, Proc.Semantics.label) Ltl.Check.run_result
(** The resilient form of {!check_live} ({!Ltl.Check.check_run}): a
    budget trip with the {!Ltl.Check.Scc} engine suspends into a
    checkpointable product cursor instead of concluding, and [resume]
    continues from one.
    @raise Invalid_argument if [checkpoint]/[resume] is combined with
    the {!Ltl.Check.Ndfs} engine. *)
