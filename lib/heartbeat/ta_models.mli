(** Timed-automata models of the accelerated heartbeat protocols
    (paper §4, Figures 3–9).

    Each protocol is a network of automata:

    - [P0] — the coordinator.  Locations [Alive] (invariant
      [w0 <= t]), [TimeOut] (urgent: the round boundary is processed
      without time passing), [VInact] (voluntary crash) and [NVInact].
      At a timeout it recomputes every waiting time
      [tm_i := rcvd_i ? tmax : tm_i/2] (two-phase: drop to [tmin]),
      broadcasts its heartbeat, and inactivates itself when the new round
      time falls below [tmin].
    - [P{i}] — participants.  Reply immediately to each received beat
      (urgent location [Rcvd]); inactivate after [3*tmax - tmin] without
      one.  In the expanding/dynamic variants they start in a joining
      phase, re-sending their beat every [tmin]; in the dynamic variant a
      reply can carry [false], which leaves the protocol (location
      [Left]).
    - [Ch0_{i}] / [Ch1_{i}] — one-place channels.  A message in flight is
      delivered or lost; the shared budget [spent_i] enforces the paper's
      round-trip bound [tmin].  Any loss sets the sticky flag [lost]
      (the paper's [lostMsg]).  Deliveries are broadcast syncs guarded by
      the destination being ready, so a beat arriving while the receiver
      is processing a simultaneous event waits for that instant to
      resolve instead of vanishing — reproducing the simultaneity races
      of §5.5.
    - [M{i}] — optional requirement-R1 watchdogs (Figure 9): reset by
      each beat of p\[i\] delivered to p[0], they raise [errorR1_{i}] when
      more than the claimed detection bound passes while p[0] is still
      alive.  In the expanding/dynamic variants they arm at the first
      delivered beat and disarm on a leave beat.

    The [fixed] flag applies the §6 corrections: receive-priority
    (timeout edges are guarded on no message being in flight to the
    timing-out process) and the corrected time bounds ({!Bounds}). *)

type variant =
  | Binary
  | Revised  (** MG04: p\[0\] sends its first beat immediately *)
  | Two_phase
      (** on a missed reply the waiting time drops straight to [tmin];
          the paper leaves p\[0\]'s inactivation condition unspecified
          (its footnote 2) — we inactivate on a missed reply when [t] is
          already [tmin] *)
  | Static
  | Expanding
  | Dynamic

(** The six protocol variants, shared by both encodings: {!Pa_models}
    re-exports this type, so a variant names the same design decision
    in the timed-automata and the process-algebra model. *)

val all_variants : variant list
val variant_name : variant -> string

val is_multi : variant -> bool
(** [true] for the variants honouring [Params.n] (Static, Expanding,
    Dynamic); the binary family always has one participant. *)

val has_join : variant -> bool
(** [true] for the variants with a joining phase (Expanding, Dynamic). *)

val participants : variant -> Params.t -> int list
(** The participant numbers [1..n] of a model: [Params.n] of them for
    the multi-party variants, one otherwise. *)

val build :
  ?fixed:bool ->
  ?with_r1_monitors:bool ->
  ?r1_bound:int ->
  variant ->
  Params.t ->
  Ta.Model.t
(** Build the network.  [fixed] (default false) applies the §6
    corrections; [with_r1_monitors] (default false) adds the watchdog
    automata [M{i}] needed for checking R1 (left out otherwise to keep
    the state space smaller); [r1_bound] overrides the watchdogs'
    detection bound (used to measure the exact worst case, see
    {!Verify.worst_detection}). *)

(** {2 Naming conventions} (for building state predicates)

    Participants are numbered [1..n].  Automata: ["P0"], ["P1"]…,
    ["Ch0_1"]…, ["Ch1_1"]…, ["M1"]….  Key variables: ["active0"],
    ["active1"]…, ["lost"], ["rcvd1"]…, ["tm1"]…, ["jnd1"]…, ["leave1"]….
    Locations: ["Alive"], ["TimeOut"], ["Rcvd"], ["VInact"], ["NVInact"],
    ["Waiting"], ["Left"], monitor ["Watch"]/["Error"]. *)

val p0_name : string
val p_name : int -> string
val monitor_name : int -> string
