(** Zone-graph reachability with inclusion subsumption.

    A breadth-first explorer specialised to {!Sym} states: the passed
    list is keyed by the discrete part, and a freshly generated state
    is discarded when an already-stored state with the same discrete
    part has a zone that {e includes} the new one (every behaviour of
    the new state is a behaviour of the stored one, so nothing
    reachable is lost).  This is the classic waiting-list discipline
    that makes zone graphs finite {e and} small.  The equality-only zone
    graph (exact too, since Extra_LU already guarantees finiteness, but
    storing every distinct zone) is {!Sym.system} under the generic
    {!Mc.Explore}; this module has no equality mode.

    Verdicts reuse {!Mc.Explore.verdict}, so callers
    ({!Heartbeat.Verify}) treat the two engines uniformly.  Goal states
    are detected on interning; because goal predicates observe only
    the discrete part, subsuming a state never hides a goal (the
    subsuming state has the same discrete part and was itself
    tested). *)

type stats = {
  mutable states : int;  (** stored (non-subsumed) states *)
  mutable transitions : int;  (** successor edges generated *)
  mutable subsumed : int;
      (** successors discarded by zone inclusion in a stored state *)
}

val new_stats : unit -> stats

val find :
  ?max_states:int ->
  ?budget:Mc.Budget.t ->
  ?stats:stats ->
  Sym.t ->
  goal:(Sym.state -> bool) ->
  (Sym.state, Ta.Semantics.label) Mc.Explore.verdict
(** [find t ~goal] searches breadth-first for a goal state, returning a
    shortest (in macro steps) witness trace of [Act] labels.
    [max_states] defaults to {!Mc.Explore.default_max}.  The budget is polled once per expanded
    state; a trip yields [Exhausted] with the number of stored
    states.  Pass [stats] to observe the subsumption counters
    of the run. *)

val count :
  ?max_states:int ->
  ?budget:Mc.Budget.t ->
  ?stats:stats ->
  Sym.t ->
  int * bool
(** Stored-state count and completeness, mirroring {!Mc.Explore.count}. *)

val guided_replay :
  ('s, Ta.Semantics.label) Mc.System.t ->
  trace:Ta.Semantics.label list ->
  goal:('s -> bool) ->
  bool
(** [guided_replay sys ~trace ~goal]: does some run of [sys] traverse
    exactly the [Act] labels of [trace] (in order, with any number of
    [Delay] steps interleaved) and end in a state satisfying [goal]?
    Used to validate zone counterexamples against the discrete
    semantics: the zone engine abstracts delays away, so its traces
    are action sequences modulo time.  DFS with a per-position visited
    set; terminates on any finite-state system. *)
