(** Location-sensitive LU guard analysis (Behrmann et al.) over
    {!Ta.Model} networks.

    For every (automaton, location, clock) the analysis computes the
    largest lower-bound constant [L] and upper-bound constant [U] the
    clock can still be compared against before it is next reset, by a
    backward fixpoint on each automaton's control graph: guards and
    invariants contribute their constants at their source location,
    resets kill propagation, and variable-valued bounds are closed by
    interval evaluation against the lint fixpoint.  [-1] means "never
    compared that way from here".

    Synchronisation is handled per process, without building the
    product: each component of a macro edge contributes at its own
    source location, and the sound per-state bound is the maximum of
    the per-component bounds over the current location vector
    ({!Zone.Sym} composes it that way at extrapolation time).

    Degenerate cases: a clock in a constraint outside the
    diagonal-free conjunctive fragment is conservatively pinned to its
    global bounds at every location; a bound expression the interval
    analysis cannot close makes the clock's bound diverge and falls
    back to the declared cap (both reported). *)

(** {2 The clock-constraint fragment}

    Conjunctions of clock-free boolean expressions and atoms [c ~ e]
    between one clock and a clock-free integer expression, [~] any of
    [< <= == >= >].  The zone engine compiles exactly this fragment;
    the analysis below pins the clocks of anything outside it. *)

type atom = {
  clock : string;
  lower : bool;  (** [c >(=) e]; otherwise [c <(=) e] *)
  strict : bool;
  bound : Ta.Expr.t;  (** clock-free *)
}

exception Frag of string * string
(** A constraint outside the fragment, as [(code, reason)]: code
    [TA-ZONE-CONVEX] (a clock under a disjunction or [!=]),
    [TA-ZONE-DIAGONAL] ([c ~ d], [c - d ~ e], [c ~ d + e]) or
    [TA-ZONE-ARITH] (a clock inside other arithmetic). *)

val split : Ta.Expr.b -> Ta.Expr.b list * atom list
(** Split a guard or invariant into its clock-free conjuncts and its
    clock atoms, negation pushed inward first ([c == e] gives a lower
    and an upper atom).
    @raise Frag on a constraint outside the fragment. *)

val expr_has_clock : Ta.Expr.t -> bool
(** Whether a clock occurs anywhere in the expression. *)

val update_reads : Ta.Model.update list -> string list
(** Clocks an update sequence reads before (or without) resetting
    them, in first-read order. *)

(** {2 The analysis} *)

type t
(** The per-(automaton, location, clock) bound tables of one model. *)

val analyze : Ta.Model.t -> t

val analyze_cached : Ta.Model.t -> t
(** {!analyze} memoised on the model term ({!Lint_memo}): sweeps
    revisit the same model for several requirements, and the zone
    engine and both lint sections read one result. *)

val cache_stats : unit -> int * int
(** (lookups, hits) of the {!analyze_cached} memo table. *)

val bounds : t -> auto:string -> loc:string -> clock:string -> int * int
(** [(L, U)] at one location; [-1] = never compared that way.
    @raise Invalid_argument on unknown automaton or location names. *)

val global_bounds : t -> string -> int * int
(** The location-insensitive maxima over the whole network, the
    per-clock summary the TA-ZONE lint section reports.  Per-location
    bounds never exceed these. *)

val tables : t -> (string * (string * (string * int * int) list) list) list
(** Every automaton (model order) with every location (model order)
    and every clock (declaration order): [(clock, L, U)]. *)

val pinned : t -> string list
(** Clocks pinned to their global bounds at every location because
    they appear in constraints outside the supported fragment. *)

val clocks : t -> string list
(** Clock names in declaration order. *)

val diagnostics : Ta.Model.t -> Lint_report.diag list
(** The TA-LU lint section: info lines with the per-location bound
    tables (locations with any bound; the rest are -1), info lines for
    pinned clocks, and a warning per diverging bound. *)
