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
  n : int;  (** monitored processes, numbered 1..n *)
  period : float;  (** heartbeat sending period *)
  estimator : Estimator.t;
  probes : int;  (** 0 = classic; k > 0 = accelerated confirmation *)
  rtt_bound : float;  (** round-trip bound used by probe confirmation *)
  loss : Sim.Loss.t;  (** the links' loss model *)
  delay_lo : float;
  delay_hi : float;  (** one-way heartbeat delay range *)
  duration : float;
  crash : (int * float) option;  (** crash one process at a time *)
  seed : int64;
}

val config :
  ?n:int ->
  ?period:float ->
  ?estimator:Estimator.t ->
  ?probes:int ->
  ?rtt_bound:float ->
  ?loss:Sim.Loss.t ->
  ?delay_lo:float ->
  ?delay_hi:float ->
  ?crash:int * float ->
  ?seed:int64 ->
  duration:float ->
  unit ->
  config
(** Defaults: one process, period 10, fixed margin 2, no probes,
    rtt bound 2, lossless, delays in [\[0, 1\]]. *)

type result = {
  events : event list;  (** in time order *)
  messages : int;  (** heartbeats + probes + probe replies sent *)
}

val run : config -> result
(** Deterministic for a given seed. *)

val suspected_forever : result -> who:int -> after:float -> float option
(** The time of the suspicion of [who] that is never revoked later (the
    detection event for a crash at [after]), if any. *)
