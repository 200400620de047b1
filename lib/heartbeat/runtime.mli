(** Executable, event-driven implementations of the heartbeat protocols,
    for quantitative simulation on {!Sim}.

    These complement the formal models: where {!Ta_models}/{!Pa_models}
    answer "can this requirement ever be violated", the runtime measures
    the quantities the ICDCS'98 paper motivates its design with — the
    steady-state message rate, the failure-detection delay, and the
    probability of a false (loss-induced) deactivation.

    Three coordinator disciplines are provided: the accelerated halving
    schedule of the binary/static protocols, the two-phase drop to
    [tmin], and a classic fixed-rate heartbeat (period [tmax/k], declare
    failure after [k] misses) as the baseline the accelerated design is
    compared against. *)

type kind =
  | Halving  (** accelerated: waiting time halves on each miss *)
  | Two_phase  (** accelerated: waiting time drops to [tmin] on a miss *)
  | Fixed_rate of int
      (** [Fixed_rate k]: send every [tmax / k], declare failure after
          [k] consecutive misses — matches the accelerated protocols'
          worst-case detection of roughly [2 * tmax] while sending [k]
          times as often.
          @raise Invalid_argument unless [k >= 1]. *)

val kind_name : kind -> string

type config = {
  params : Params.t;
  kind : kind;
  loss : Sim.Loss.t;
      (** the links' loss model: [Sim.Loss.bernoulli p] for a fixed
          per-message probability, or bursty Gilbert–Elliott *)
  duration : float;  (** simulated time horizon *)
  faults : Sim.Fault.schedule;
      (** declarative fault schedule: crashes ([Sim.Fault.crash ~at who],
          [who = 0] for the coordinator), crash-then-recover,
          partitions, burst loss, duplication, reordering, delay
          jitter *)
  fixed_bounds : bool;
      (** use the corrected (§6.2) participant bounds instead of
          [3*tmax - tmin] *)
  seed : int64;
}

val config :
  ?kind:kind ->
  ?loss:Sim.Loss.t ->
  ?faults:Sim.Fault.schedule ->
  ?fixed_bounds:bool ->
  ?seed:int64 ->
  duration:float ->
  Params.t ->
  config
(** @raise Invalid_argument on a bad [kind] or an invalid fault
    schedule. *)

type result = {
  messages_sent : int;  (** heartbeats handed to the network, both ways *)
  messages_lost : int;  (** stochastic channel loss (model or burst) *)
  messages_dropped : int;
      (** partition / down-link drops, counted separately from loss *)
  p0_detected_at : float option;
      (** when p[0] concluded a failure (accelerated: self-inactivated;
          fixed-rate: declared a participant dead) *)
  pi_inactivated_at : (int * float) list;
      (** non-voluntary participant inactivations *)
  false_detection : bool;
      (** [p0_detected_at] fired although nothing had crashed *)
  fault_log : (float * Sim.Fault.action) list;
      (** every injected fault event with its firing timestamp, in
          order *)
}

val run : ?on_event:(Monitors.event -> unit) -> config -> result
(** Run one simulation.  Deterministic for a given [seed]; [on_event]
    receives the full protocol/channel trace in time order (sends,
    deliveries, drops, crashes, recoveries, detection, inactivations) —
    attach {!Monitors.feed} to check requirements online. *)

val detection_delay : config -> result -> float option
(** Time from the earliest scheduled crash to p[0]'s
    detection, when both happened. *)
