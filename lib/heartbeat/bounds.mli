(** Worst-case detection-delay bounds (paper §6.2).

    The ICDCS'98 protocols claim that p[0] becomes inactive within
    [2*tmax] of the last received heartbeat, and participants within
    [3*tmax - tmin] of the last heartbeat of p[0].  The analysis shows both
    bounds are wrong or imprecise; this module provides the corrected
    closed forms together with an exhaustive computation of the actual
    worst case of the halving schedule, used by the property tests to check
    the closed forms. *)

val p0_detection : Params.t -> int
(** Corrected maximal time between p[0]'s last received heartbeat and its
    non-voluntary inactivation: [3*tmax - tmin] when [2*tmin <= tmax],
    [2*tmax] otherwise. *)

val p0_detection_exhaustive : Params.t -> int
(** The same worst case computed by direct simulation of the halving
    schedule over all adversarial receipt times of the last heartbeat:
    p[1] crashes right after replying in some round; p[0] then sets
    [t = tmax] once more and halves until [t/2 < tmin].  Agrees with
    {!p0_detection} (property-tested). *)

val pi_waiting : Params.t -> int
(** Corrected (tight) bound on a joined participant's wait between
    consecutive heartbeats from a live p[0]: [2*tmax] — tighter than the
    protocols' [3*tmax - tmin]. *)

val pi_join_waiting : Params.t -> int
(** Corrected bound for the joining phase of the expanding/dynamic
    protocols: a join request may be acknowledged only after
    [2*tmax + tmin] (the paper's Figure 13), so the joining timeout must be
    at least that. *)

val original_p0_claim : Params.t -> int
(** The protocols' original claim for p[0], [2*tmax]. *)

val halving_schedule : Params.t -> int list
(** The successive waiting times of p[0] after replies stop arriving,
    starting from [tmax]: [tmax; tmax/2; ...] down to (and excluding) the
    first value below [tmin]. *)
