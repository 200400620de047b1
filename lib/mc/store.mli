(** State-storage modes for the exploration engines: exact, SPIN-style
    hash compaction, and bitstate/supertrace hashing.

    The explorers deduplicate visited states in a sharded, lock-striped
    table.  This module abstracts {e what the table stores per state}:

    - {!Exact} keeps the full state as the key — today's behaviour, no
      omissions, byte-identical replay possible;
    - {!Hash_compaction} keeps only a [bits]-bit fingerprint of the
      state (computed from its marshalled representation).  Two distinct
      states with equal fingerprints are conflated, so a vanishingly
      small fraction of the space can be {e omitted} — never
      over-counted;
    - {!Bitstate} (Holzmann's supertrace) keeps [k] bits in a
      [2^log2_bits]-bit array per state and no state identity at all:
      maximal compression, probabilistic coverage, no canonical replay.

    Every mode reports a {!coverage} estimate in the exploration stats:
    for bitstate the SPIN-style omission probability
    [(1 - e^(-kn/m))^k] at the final fill and the implied expected
    coverage; for hash compaction the birthday-bound collision estimate;
    for exact the trivially certain values.

    Fingerprints are computed by {!fingerprint}: a 64-bit FNV-1a hash of
    [Marshal.to_string state [No_sharing]].  This assumes states are
    acyclic, closure-free data whose structural representation is
    canonical with respect to [equal_state] — true of every system in
    this repository.  The compressed modes are therefore {e probabilistic}:
    a "no violation" verdict obtained under {!Hash_compaction} or
    {!Bitstate} only covers the visited (non-omitted) states. *)

type mode =
  | Exact
  | Hash_compaction of { bits : int }
      (** fingerprint width in bits, clamped to [1..62]; the default
          {!hash_compaction} uses the full 62 usable bits of an OCaml
          int.  Small widths are only useful to force collisions in
          tests. *)
  | Bitstate of { log2_bits : int; hashes : int }
      (** a [2^log2_bits]-bit array ([2^(log2_bits-3)] bytes) probed
          with [hashes] independent positions per state (double hashing
          over the 64-bit fingerprint).  [log2_bits] is clamped to
          [10..40], [hashes] to [1..8]. *)

val exact : mode
val hash_compaction : mode
(** {!Hash_compaction} at the default 62-bit width. *)

val bitstate : mode
(** {!Bitstate} with a 2^25-bit (4 MiB) array and 3 hash functions. *)

val mode_name : mode -> string
(** ["exact"], ["hashcompact"] or ["bitstate"] (parameters elided). *)

val of_string : string -> (mode, string) result
(** Parse a CLI spelling: ["exact"], ["hashcompact"], ["bitstate"],
    optionally with parameters as ["hashcompact:BITS"] or
    ["bitstate:LOG2BITS:HASHES"]. *)

type coverage = {
  mode : string;  (** {!mode_name} of the store that produced this *)
  stored : int;  (** states inserted (what the engine counted) *)
  bits : int;  (** fingerprint width, or the bit-array size in bits *)
  hash_factor : float;
      (** bitstate: bit-array size / states stored (SPIN's hash factor);
          [infinity] when nothing was stored, [0.] for exact *)
  omission_prob : float;
      (** estimated probability that at least one reachable state was
          omitted (hash compaction: birthday bound), or the
          per-insertion false-positive rate at the final fill
          (bitstate); exactly [0.] for exact *)
  est_coverage : float;
      (** estimated fraction of the encountered states actually stored
          (and hence expanded); exactly [1.] for exact *)
  exact : bool;  (** [true] iff the store was {!Exact} *)
}

val pp_coverage : Format.formatter -> coverage -> unit

val coverage_of : mode:mode -> stored:int -> coverage
(** The coverage estimate a store in [mode] would report after
    [stored] insertions (what {!Make.coverage} computes). *)

val fingerprint : 'a -> int
(** The 62-bit FNV-1a fingerprint of a value's marshalled bytes
    ([Marshal.No_sharing]).  Deterministic across runs and domains. *)

(** Concurrent lock-striped state tables, functorised over the state
    type.  All operations are thread-safe; [intern] additionally
    maintains a per-state BFS depth stamp used by the work-stealing
    engine's truncation machinery (ignored by {!Bitstate}, which tracks
    no per-state identity). *)
module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) : sig
  type t

  type intern_result =
    | Fresh of int  (** first insertion; the new provisional id *)
    | Known of int
        (** already present and the depth did not improve; the stored
            id, or [-1] if the store tracks no ids ({!Bitstate}) *)
    | Relaxed of int * int
        (** already present but [depth] improved the stamp: the stored
            id and the {e previous} depth *)

  val create :
    ?expected:int -> ?fingerprint:(K.t -> int) -> shards:int -> mode -> t
  (** [shards] is rounded up to a power of two.  [expected] is the
      starting size of the hash shards, which grow as they fill.  [fingerprint] overrides {!fingerprint} (used by
      collision-injection tests). *)

  val intern : t -> K.t -> depth:int -> intern_result
  val find_pid : t -> K.t -> int
  (** [-1] when unknown or when the store tracks no ids. *)

  val total : t -> int
  (** States inserted so far (the provisional-id counter). *)

  val tracks_pids : t -> bool
  (** [false] only for {!Bitstate}: no state -> id lookup, no replay.
      May flip from [true] to [false] mid-run via {!degrade}. *)

  val occupancy : t -> int array
  (** Insertions per lock stripe; sums to {!total}. *)

  val coverage : t -> coverage

  val current_mode : t -> mode
  (** The mode the table is operating in {e now} — the creation mode
      until the first {!degrade}. *)

  val degrade : t -> mode option
  (** Swap the table one rung down the compression ladder, in place:
      [Exact -> Hash_compaction {bits = 62} -> Bitstate] (2^25 bits,
      3 hashes).  Returns the new mode, or [None] when already at the
      bottom.  Safe to call concurrently with [intern]/[find_pid]: the
      swap happens under every stripe lock and racing operations retry
      against the new representation.  Provisional ids survive the
      swap (colliding fingerprints conflate to the smaller pid), so
      engine-side vectors indexed by pid remain valid; the freed exact
      keys become garbage for the next GC.

      Caveat: degrading a {!Hash_compaction} table created with a
      non-default [bits < 62] re-probes by the {e masked} fingerprints,
      while subsequent live interns probe by full-width ones — only the
      default width round-trips exactly.  Narrow widths exist solely
      for collision-injection tests. *)

  val depths : t -> int array
  (** Snapshot of the BFS depth stamp per provisional id (index = pid),
      for checkpointing.  Ids conflated away by a fingerprint collision
      or untracked by {!Bitstate} report depth 0. *)
end
