(** Symbolic (dense-time) semantics of timed-automata networks over
    DBM zones.

    A symbolic state pairs the {e discrete part} of a configuration —
    the location vector and variable values, laid out exactly like
    {!Ta.Semantics}'s cell array with every clock cell zeroed — with a
    canonical DBM over the network's clocks.  Reusing the discrete
    layout means state predicates written against
    {!Ta.Semantics.config} observations ([loc_is], [var], [elem])
    apply unchanged to symbolic states via {!Ta.Semantics.of_cells}.

    Successor states follow the standard zone-graph construction: for
    each macro transition (internal edge, binary handshake, broadcast:
    the candidate moves of {!Ta.Semantics.menu}, committed-location
    rule included) whose data guard holds, conjoin the clock guard
    atoms, apply the resets and variable updates in order, conjoin the
    target invariants, delay ([up], unless a target location is urgent or
    committed), re-conjoin the invariants, and apply Extra_LU
    extrapolation with location-based bounds: {!Lubounds}' backward
    fixpoint, composed as the maximum over the current location
    vector.  A clock nothing reads before its next reset has
    [L = U = -1], which Extra_LU turns into an unconstrained clock.
    Each zone is closed and non-empty by construction, so a state is a
    canonical representative of its region set and states compare by
    plain structural equality (or, better, by zone inclusion — see
    {!Reach}).

    Supported constraint language: {!Lubounds.split}'s fragment,
    conjunctions of clock-free boolean expressions and atomic
    comparisons [c ~ e] between one clock and a clock-free integer
    expression ([~] any of [< <= == >= >]).  Diagonal constraints
    ([c - d ~ e]), clocks under disjunction or [!=], and clocks inside
    other arithmetic raise {!Unsupported} — Extra_LU is only sound for
    diagonal-free automata, and the rest would need zone splitting.  Clock {e reads} in update right-hand sides are
    supported exactly by finite case-split on the integer value read
    (saturated at the clock's declared cap, mirroring the discrete
    semantics' saturation).  Receivers on broadcast channels must have
    data-only guards (the UPPAAL restriction): participation is then a
    function of the discrete part alone. *)

exception Unsupported of string
(** Raised by {!compile} on constraints outside the supported
    fragment; the message names the offending automaton/edge. *)

type t
(** A compiled symbolic network. *)

type state = { disc : int array; dbm : Dbm.t }
(** [disc] is a {!Ta.Semantics} cell array with clock cells zeroed;
    [dbm] is closed, non-empty and extrapolated.  Treat both as
    immutable. *)

type lu = Location
(** Extrapolation modes; location-based Extra_LU is the only one.
    [?lu] selects nothing: it remains on {!compile} only because the
    benchmark harness ([perfbench/hbbench.ml]) still passes
    [~lu:Location], and goes once that caller stops. *)

val compile : ?lu:lu -> Ta.Model.t -> t
(** Compile a network for zone exploration.  [lu] is ignored (see
    {!lu}).
    @raise Unsupported on constraints outside the zone fragment.
    @raise Invalid_argument on the errors {!Ta.Semantics.compile}
    rejects (unknown names, initial invariant violation). *)

val net : t -> Ta.Semantics.t
(** The underlying discrete compilation (same layout). *)

val dim : t -> int
(** DBM dimension: number of clocks + 1. *)

val initial : t -> state

val successors : t -> state -> (Ta.Semantics.label * state) list
(** The macro transitions are the candidate moves of
    {!Ta.Semantics.menu} for the state's location vector, in the menu's
    order, so the pairing and committed-location rules are the
    discrete semantics' own.  A move whose edges' data guards hold and
    whose zone survives the guards, target invariants and case splits
    yields one successor per case, in the menu's order.  Labels are
    always [Act _] (time is inside the zones); the label strings
    coincide with the discrete semantics' labels, so a symbolic trace
    is a candidate discrete trace modulo delays. *)

val system : t -> (state, Ta.Semantics.label) Mc.System.t
(** Package for the generic explorer ({!Mc.Explore}): the
    equality-only zone graph, which [hbexplore stats --zone
    --no-subsume] counts.  {!Reach} explores with inclusion
    instead. *)

val bad_of : t -> (Ta.Semantics.config -> bool) -> state -> bool
(** Lift a discrete state predicate (built from clock-free
    observations) to symbolic states. *)

val lu_bounds : t -> (string * int * int) list
(** Per clock: name, largest lower-bound constant L, largest
    upper-bound constant U over the whole network
    ({!Lubounds.global_bounds}; [-1] = the model never compares the
    clock that way).  For the per-location tables extrapolation uses
    see {!lu_tables}. *)

val lu_tables : t -> (string * (string * (string * int * int) list) list) list
(** The per-location bound tables extrapolation composes: every
    automaton (model order) with every location (model order) and
    every clock (declaration order) as [(clock, L, U)].  Each entry
    never exceeds the {!lu_bounds} pair for its clock. *)

(** {2 Lint support} *)

val diagnostics : Ta.Model.t -> Lint_report.diag list
(** The TA-ZONE lint section: errors for constraints outside the zone
    fragment (diagonal constraints, clocks under disjunction,
    non-integer clock comparisons, clock-guarded broadcast receivers)
    and info lines reporting update clock-read case splits and each
    clock's network-wide LU bounds ({!lu_bounds}).  A bound the
    interval analysis cannot close is reported once, by the TA-LU
    section ({!Lubounds.diagnostics}).  A model with no TA-ZONE errors compiles
    with {!compile}. *)
