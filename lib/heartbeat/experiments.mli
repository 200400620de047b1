(** Quantitative experiments over the {!Runtime} simulations.

    These regenerate the trade-offs the ICDCS'98 paper motivates the
    accelerated design with: steady-state heartbeat rate, crash-detection
    delay, and robustness of each discipline to message loss.  Absolute
    numbers depend on the simulated network; the shapes — acceleration
    sends at the slow rate [1/tmax] yet detects within a small multiple
    of [tmax], a fixed-rate protocol with equal detection delay sends
    [k] times as often, and the false-detection probability decays
    geometrically with the number of accelerated retries — are the
    paper's claims. *)

type rate_row = {
  kind : Runtime.kind;
  msgs_per_time : float;  (** steady-state heartbeats per unit time *)
}

val steady_rate : ?seed:int64 -> Runtime.kind -> Params.t -> rate_row
(** Message rate with no crashes and no loss, over 10 000 time units. *)

type detection_row = {
  d_kind : Runtime.kind;
  runs : int;
  detected : int;  (** runs in which p\[0\] detected the crash *)
  mean_delay : float;
  max_delay : float;
  analytic_bound : float;  (** the §6.2 worst case for this discipline *)
}

val detection :
  ?runs:int -> ?seed:int64 -> Runtime.kind -> Params.t -> detection_row
(** Crash participant 1 at a random phase, measure p\[0\]'s detection
    delay. *)

type reliability_row = {
  r_kind : Runtime.kind;
  loss : float;
  r_runs : int;
  false_detections : int;
  false_rate : float;  (** false detections per run *)
}

val reliability :
  ?runs:int ->
  ?duration:float ->
  ?seed:int64 ->
  Runtime.kind ->
  Params.t ->
  loss:float ->
  reliability_row
(** Loss-injection runs with no crash: how often does each discipline
    falsely deactivate? *)

val default_kinds : Params.t -> Runtime.kind list
(** Halving, two-phase, and the fixed-rate baseline matched to the
    accelerated detection bound ([k = 2]). *)

val pp_rate : Format.formatter -> rate_row -> unit
val pp_detection : Format.formatter -> detection_row -> unit
val pp_reliability : Format.formatter -> reliability_row -> unit

val reliability_model :
  ?runs:int ->
  ?duration:float ->
  ?seed:int64 ->
  Runtime.kind ->
  Params.t ->
  model:Sim.Loss.t ->
  reliability_row
(** {!reliability} with an explicit loss model — used to compare bursty
    (Gilbert–Elliott) loss against Bernoulli loss of the same average
    rate: bursts correlate consecutive losses, which is exactly what the
    accelerated schedule's robustness argument assumes away. *)

type join_row = {
  j_runs : int;
  joined : int;  (** runs in which the joiner was acknowledged *)
  mean_latency : float;
  max_latency : float;
  join_bound : float;  (** the corrected bound [2*tmax + tmin] *)
}

val join_latency : ?runs:int -> ?seed:int64 -> Params.t -> join_row
(** Simulate the expanding protocol's joining phase: a participant starts
    at a random phase of p\[0\]'s round schedule and sends join requests
    every [tmin] over the slow pre-join channel (delay up to [tmax]); the
    latency is the time until p\[0\]'s first beat reaches it.  The
    maximum approaches the Figure-13 bound [2*tmax + tmin]. *)

val pp_join : Format.formatter -> join_row -> unit
