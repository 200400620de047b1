(** Safety checking: monitor products and reachability verdicts.

    Combines a {!System.S} with a {!Monitor.t} (or a state predicate) and
    searches for a violation, returning a shortest counterexample trace when
    one exists — the workflow the paper performs with CADP (µ-calculus
    safety formulae on the mCRL2 state space) and with UPPAAL (reachability
    of monitor error locations).  Every check runs the sequential
    exact-store engine ({!Explore.find}) on the calling domain, so
    [Holds] is always exhaustive: a compressed store or several domains
    only ever produce a count ({!Pexplore.count_stats}). *)

type 'l verdict =
  | Holds  (** exhaustive exploration found no violation *)
  | Violated of 'l list  (** shortest counterexample, as a label trace *)
  | Unknown of int  (** state bound hit before a verdict was reached *)
  | Exhausted of Explore.exhaustion
      (** the resource budget tripped before a verdict was reached: no
          violation among the [states_so_far] states actually visited.
          A raising successor function is not caught: only
          {!Pexplore.count_stats} quarantines one and reports a crash. *)

val check_monitor :
  ?max_states:int ->
  ?expected_states:int ->
  ?reduction:('s, 'l) System.t ->
  ?budget:Budget.t ->
  ('s, 'l) System.t ->
  'l Monitor.t ->
  'l verdict
(** [check_monitor sys m] explores the product of [sys] and [m] and reports
    whether an accepting monitor state is reachable, with a shortest
    counterexample when it is.  [expected_states] is forwarded to
    {!Explore.find}, where it may only lower the state index's starting
    size (see {!Explore.count}); it never affects verdicts.

    [budget] bounds the search by wall clock and/or live heap; a trip
    yields the qualified {!Exhausted} verdict instead of running to
    completion.  The exact store cannot degrade, so a memory trip
    exhausts.

    [reduction], when given, is explored {e in place of} [sys].  The
    caller guarantees it is a sound reduction of [sys] for this
    monitor's alphabet (e.g. [Por.reduced_system ~alphabet] over the
    names the monitor's predicates observe, plus ["tick"] for deadline
    monitors).  The verdict is then unchanged, but a [Violated] trace
    may order independent actions differently and, under a tight
    [max_states], an [Unknown] full run may become a conclusive reduced
    one (fewer states to visit).

    A property-preserving slice (see the [slice] library) is passed as
    [sys] itself: it is an ordinary system. *)

val check_forbidden : ('s, 'l) System.t -> 'l Regex.t -> 'l verdict
(** [check_forbidden sys r] decides the µ-calculus safety formula
    [\[r\]false]: [Violated w] means the trace [w] matches [r].
    {!check_monitor} on the compiled regex, under the default state
    bound {!Explore.default_max}. *)

val check_state :
  ?max_states:int ->
  ?expected_states:int ->
  ?budget:Budget.t ->
  ('s, 'l) System.t ->
  ('s -> bool) ->
  'l verdict
(** [check_state sys bad] decides the (negated) reachability property
    [E<> bad]: [Violated w] means [w] leads to a state satisfying [bad].
    This is the UPPAAL-style check used for the timed-automata models.
    [budget] as for {!check_monitor}. *)

val holds : 'l verdict -> bool
(** [holds v] is [true] only for {!Holds}. *)

val pp_verdict :
  pp_label:(Format.formatter -> 'l -> unit) -> Format.formatter -> 'l verdict -> unit
(** Render a verdict, including the counterexample trace if any. *)
