(** Parallel reachable-state counting (OCaml 5 domains).

    A work-stealing engine over a lock-striped state table ({!Store},
    64 stripes): every domain owns a chunked deque of work items; owners
    push and pop whole chunks, idle domains steal the oldest half of a
    victim's chunks (the shallowest, hence largest, remaining subtrees).
    Termination is detected with a global pending-item counter.  Each
    state is enqueued once, on its first intern, and only if its dense
    store id is below [max 1 max_states]: every state with a smaller id
    is expanded, so when the reachable space is larger than the bound
    some successor gets an id at or past it.  The count and completeness
    flag at the bound are therefore {!Explore.count}'s for every domain
    count, whichever states were kept.

    The engine only counts: it keeps no state vector, adjacency or
    parent links, so a compressed store ({!Store.Hash_compaction},
    {!Store.Bitstate}) shrinks what a run keeps.  Witnesses, verdicts
    and state graphs come from the sequential {!Explore}, on an exact
    store.  A compressed store makes the count {e probabilistic}:
    distinct states that collide are conflated, which can only
    under-count, never over-count; the coverage estimate in the
    statistics quantifies it.

    The engine's knobs are [domains] and [store].  [domains] defaults
    to [Domain.recommended_domain_count ()]; [1] runs the whole search
    on the calling domain. *)

type stats = {
  states : int;  (** states counted (at most [max_states]) *)
  transitions : int;  (** successor edges of the expanded states *)
  wall_seconds : float;
  states_per_sec : float;
  shard_occupancy : int array;  (** interned states per table stripe *)
  domains_used : int;
  steals : int;  (** successful steal operations *)
  coverage : Store.coverage;  (** store mode and omission estimate *)
  exhausted : Budget.reason option;
      (** why the run fell short of a full count, if it did *)
  degraded : string list;
      (** store modes entered by in-place degradation, in order *)
  retries : int;  (** poisoned items quarantined and retried *)
}

val pp_stats : Format.formatter -> stats -> unit

val count_stats :
  ?max_states:int ->
  ?domains:int ->
  ?store:Store.mode ->
  ?budget:Budget.t ->
  ?degrade:bool ->
  ('s, 'l) System.t ->
  (int * bool) * stats
(** Parallel {!Explore.count}: reachable-state count plus completeness
    flag, without retaining the graph.  Compressed stores under-count
    on collision; bitstate is the intended high-volume counting mode.

    A [budget] trip reports the count so far with [complete = false]
    and the reason in [stats.exhausted].  With [degrade = true]
    (default) a {!Budget.Memory} trip first walks the store down the
    compression ladder in place ([Exact -> Hash_compaction ->
    Bitstate]) and re-arms the budget; the run only stops once the
    ladder is exhausted.  Rungs taken are reported in [stats.degraded].

    A successor function that raises does {e not} take the run down:
    the poisoned item is quarantined and retried once on another domain
    after a backoff ([stats.retries]), and only a second failure ends
    the run with [stats.exhausted = Some (Crashed _)] naming the
    offending state, after the rest of the space was counted.

    The statistics include the store's {!Store.coverage} estimate — the
    way to surface bitstate omission probabilities. *)
