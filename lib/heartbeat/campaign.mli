(** Adversarial fault-injection campaigns over the {!Runtime}
    simulations.

    A campaign sweeps a grid of fault {e scenarios} (crashes, coordinator
    loss, crash-then-recover, partitions, burst loss, duplication /
    reordering / jitter) across the three coordinator disciplines and the
    paper's [(tmin, tmax)] table points, runs every point under the
    {!Monitors} for R1–R3, and — when a requirement is refuted — shrinks
    the fault schedule to a minimal reproduction by greedy re-execution
    under the same seed.

    Monitored bounds follow the paper's argument: unfixed runs are held
    to the {e claimed} [2*tmax] detection bound (which the accelerated
    schedules genuinely exceed at the table points marked F), fixed runs
    to the corrected §6.2 worst case of their discipline, so a default
    campaign over the fixed variants passes with zero violations while
    the unfixed one reproduces the paper's refutations. *)

type point = {
  kind : Runtime.kind;
  params : Params.t;
  fixed : bool;  (** monitor against the corrected §6.2 bounds *)
  scenario : string;
  faults : Sim.Fault.schedule;
  seed : int64;
  duration : float;
}

type outcome = {
  point : point;
  verdict : Monitors.verdict;
  shrunk : Sim.Fault.schedule option;
      (** minimal failing schedule, present iff the verdict is [Fail]
          and shrinking was requested *)
  sent : int;
  lost : int;
  dropped : int;
  detected_at : float option;
  inactivations : int;
}

type t = {
  fixed : bool;
  seed : int64;
  outcomes : outcome list;
  interrupted : Mc.Budget.reason option;
      (** set when a [budget] stopped the sweep early; [outcomes] is
          then a prefix of the full campaign in sweep order *)
}

val claimed_r1_bound : Params.t -> float
(** The paper's claimed detection bound, [2 * tmax]. *)

val exact_r1_bound : Runtime.kind -> Params.t -> float
(** The §6.2 worst-case detection delay of a discipline measured from
    the last heartbeat delivery, over the float recurrence the runtime
    executes (e.g. halving at (1,10): [28.75], not the integer-halving
    [28]). *)

val default_scenarios : Params.t -> (string * Sim.Fault.schedule) list
(** The built-in adversary, scaled to the parameter point. *)

val run_point : point -> Monitors.verdict * Runtime.result
(** Run a single point under fresh monitors. *)

val shrink : point -> Sim.Fault.schedule
(** Greedy 1-minimal shrink of the point's (violating) schedule: drops
    single events, then halves window durations, keeping each change
    that still yields a violation under the same seed. *)

val run :
  ?n:int ->
  ?fixed:bool ->
  ?seed:int64 ->
  ?duration_factor:float ->
  ?shrink_failures:bool ->
  ?budget:Mc.Budget.t ->
  unit ->
  t
(** Sweep the paper's table points ({!Params.table_datasets}) × the
    halving, two-phase and fixed-rate (k = 2) disciplines ×
    {!default_scenarios}.  Each point gets an independent sub-seed
    drawn from [seed] (default 7) in sweep order and runs for
    [duration_factor * tmax] (default 10).  Deterministic: equal
    arguments give equal outcomes, including the shrunk schedules.
    [budget] is polled between points (a point is the unit of work): a
    trip or a signal stops the sweep after the current point, recording
    the reason in {!t.interrupted} — the completed prefix is identical
    to the uninterrupted campaign's. *)

val violations : t -> outcome list

val to_json : t -> string
(** Deterministic report — equal campaigns render byte-identically. *)

val pp : Format.formatter -> t -> unit
