(** Safety checking: monitor products and reachability verdicts.

    Combines a {!System.S} with a {!Monitor.t} (or a state predicate) and
    searches for a violation, returning a shortest counterexample trace when
    one exists — the workflow the paper performs with CADP (µ-calculus
    safety formulae on the mCRL2 state space) and with UPPAAL (reachability
    of monitor error locations). *)

type 'l verdict =
  | Holds  (** exhaustive exploration found no violation *)
  | Violated of 'l list  (** shortest counterexample, as a label trace *)
  | Unknown of int  (** state bound hit before a verdict was reached *)
  | Exhausted of Explore.exhaustion
      (** the resource budget tripped (or a successor function crashed
          in the parallel engine) before a verdict was reached: no
          violation among the [states_so_far] states actually visited,
          with the store's coverage estimate qualifying how much of the
          space that is *)

val check_monitor :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?reduction:('s, 'l) System.t ->
  ?parallel_reduction:bool ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  ('s, 'l) System.t ->
  'l Monitor.t ->
  'l verdict
(** [check_monitor sys m] explores the product of [sys] and [m] and reports
    whether an accepting monitor state is reachable.  [domains] (default 1)
    selects the exploration engine: [1] uses the sequential {!Explore},
    more uses the parallel {!Pexplore} with that many domains; verdicts
    and counterexample lengths are identical either way.  [expected_states]
    is forwarded to the engine, where it may only lower the state
    index's starting size (see {!Explore.count}); it never affects
    verdicts.  The store is always exact; callers that choose a
    compressed store go to {!Pexplore} directly.

    [budget] bounds the search by wall clock and/or live heap; a trip
    yields the qualified {!Exhausted} verdict instead of running to
    completion.  With [degrade = true] (the default when a budget with
    a memory limit is given to the parallel engine) a memory trip first
    walks the store down the compression ladder
    ([Exact -> Hash_compaction -> Bitstate]) and only exhausts once at
    the bottom — the run then completes with a probabilistic verdict
    instead of dying.  The sequential engine cannot degrade: on one
    domain a memory trip exhausts.

    [reduction], when given, is explored {e in place of} [sys].  The
    caller guarantees it is a sound reduction of [sys] for this
    monitor's alphabet (e.g. [Por.reduced_system ~alphabet] over the
    names the monitor's predicates observe, plus ["tick"] for deadline
    monitors).  The verdict is then unchanged, but a [Violated] trace
    may order independent actions differently and, under a tight
    [max_states], an [Unknown] full run may become a conclusive reduced
    one (fewer states to visit).  By default a reduction implies
    [domains = 1]: the sequential cycle proviso's seen-set needs the
    deterministic sequential call order.  Pass
    [~parallel_reduction:true] {e only} when the reduction was built
    with the parallel-safe proviso ([Por.reduced_system ~par:true] /
    [Por.reduction ~par:true]); the requested [domains] then stands and
    the reduced product is explored in parallel.

    A property-preserving slice (see the [slice] library) is passed as
    [sys] itself: it is an ordinary system. *)

val check_forbidden :
  ?max_states:int -> ('s, 'l) System.t -> 'l Regex.t -> 'l verdict
(** [check_forbidden sys r] decides the µ-calculus safety formula
    [\[r\]false]: [Violated w] means the trace [w] matches [r].
    Sequential, exact store. *)

val check_state :
  ?max_states:int ->
  ?expected_states:int ->
  ?domains:int ->
  ?budget:Budget.t ->
  ('s, 'l) System.t ->
  ('s -> bool) ->
  'l verdict
(** [check_state sys bad] decides the (negated) reachability property
    [E<> bad]: [Violated w] means [w] leads to a state satisfying [bad].
    This is the UPPAAL-style check used for the timed-automata models.
    [domains] and [budget] as for {!check_monitor}; a memory trip on
    the parallel engine degrades the store by default. *)

val holds : 'l verdict -> bool
(** [holds v] is [true] only for {!Holds}. *)

val pp_verdict :
  pp_label:(Format.formatter -> 'l -> unit) -> Format.formatter -> 'l verdict -> unit
(** Render a verdict, including the counterexample trace if any. *)
