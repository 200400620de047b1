(** An eventually-perfect-style heartbeat failure detector, simulated.

    The analysis paper closes by turning to failure detectors — the layer
    the heartbeat protocols exist to support.  This module implements a
    monitor in the style of Chen, Toueg & Aguilera: each monitored
    process sends heartbeats every [period]; the monitor derives a
    freshness deadline from an {!Estimator} and emits [Suspect] when it
    passes and [Trust] when a late heartbeat proves the suspicion wrong.

    The [probes] option adds the ICDCS'98 acceleration idea: instead of
    suspecting at the first missed deadline, the monitor sends up to [k]
    quick ping probes (answered immediately by a live process within the
    round-trip bound) and suspects only after all fail — trading a small
    amount of detection time for a large reduction in false
    suspicions. *)

type event = Suspect of { who : int; at : float } | Trust of { who : int; at : float }

type config = {
  estimator : Estimator.t;
  probes : int;  (** 0 = classic; k > 0 = accelerated confirmation *)
  loss : Sim.Loss.t;  (** the links' loss model *)
  duration : float;
  crash : (int * float) option;  (** crash one process at a time *)
  seed : int64;
}

val config :
  ?estimator:Estimator.t ->
  ?probes:int ->
  ?loss:Sim.Loss.t ->
  ?crash:int * float ->
  ?seed:int64 ->
  duration:float ->
  unit ->
  config
(** One monitored process (numbered 1) sending a heartbeat every 10
    time units over links with one-way delays in [\[0, 1\]]; a probe
    reply is awaited for a round-trip bound of 2.  Defaults: fixed
    margin 2, no probes, lossless, no crash.
    @raise Invalid_argument on negative [probes], an invalid estimator,
    or a [crash] naming another process or a negative time. *)

type result = {
  events : event list;  (** in time order *)
  messages : int;  (** heartbeats + probes + probe replies sent *)
}

val run : config -> result
(** Deterministic for a given seed. *)

val suspected_forever : result -> who:int -> after:float -> float option
(** The time of the suspicion of [who] that is never revoked later (the
    detection event for a crash at [after]), if any. *)
