(** Message-sequence-chart rendering of counterexample traces.

    The paper presents its counterexamples as sequence diagrams
    (Figures 10–13): one lifeline for p[0], one per participant, messages
    and timeouts marked along a vertical time axis.  This module renders
    a {!Scenarios.t} in that style as text: one column per process plus a
    channel column, one row per instant at which anything happens. *)

val render : Scenarios.t -> string
(** [render scenario] lays the trace out as a chart with one participant
    column. *)

val render_lasso :
  ?n:int -> header:string -> Ta.Semantics.label Ltl.Check.lasso -> string
(** Render a liveness counterexample ({!Verify.check_live}) in the same
    chart style: the finite prefix, a separator line, then one lap of the
    cycle that repeats forever.  Tick steps are folded into timestamps
    continuing across the boundary. *)

val column_of : string -> int option
(** Which lifeline an action belongs to: [Some 0] for p[0], [Some i] for
    p\[i\], [None] for channel events (deliveries and losses).  Exposed
    for the tests. *)
