(** The Fontana–Cleaveland benchmark suite, rebuilt as dense-time
    models for the zone engine.

    Five classic timed-automata verification benchmarks (the workload
    of Fontana and Cleaveland's timed-specification survey, all
    originally UPPAAL distributions): Fischer's mutual-exclusion
    protocol, CSMA/CD, an FDDI token ring, the generalized railroad
    crossing, and a timeout-based leader election.  Every model uses
    strict clock comparisons, urgent locations, or broadcast channels —
    the dense-time features the discrete engine cannot express — so
    they check only under [--zone].

    All models stay inside the zone fragment: diagonal-free, integer
    constants, broadcast receivers with data-only guards. *)

type spec = {
  fc_name : string;
  model : Ta.Model.t;
  forbid : (string * string) list list;
      (** safety property as a disjunction of conjunctions: the system
          is bad when, for some inner list, every [(automaton, location)]
          pair is occupied simultaneously *)
  safe : bool;  (** expected verdict: is the bad set unreachable? *)
}

val fischer : ?n:int -> unit -> Ta.Model.t
(** Fischer's protocol with [n] processes (default 2) and delay
    constant [k = 2].  The [Wait -> CS] guard [x > k] is strict —
    correctness depends on it. *)

val fischer_spec : ?n:int -> unit -> spec
(** [fischer] with its mutual-exclusion property (no two processes in
    [CS]), expected safe. *)

val all : spec list
(** The five benchmarks with their properties: [fischer] (safe),
    [fischer-broken] (the same protocol with a non-strict [x >= k]
    guard — the classic bug, expected unsafe), [csma] (safe), [fddi]
    (safe), [grc] (safe), [leader] (safe). *)

val find : string -> spec option
(** Look up a benchmark by [fc_name]. *)

val bad_predicate :
  spec -> Ta.Semantics.t -> Ta.Semantics.config -> bool
(** Compile the [forbid] sets of a spec against a compiled network. *)
