(** Online runtime monitors for the paper's requirements R1–R3, checked
    against simulation traces.

    {!Requirements} expresses R1–R3 as bad-state predicates over the
    timed-automata models, decided offline by the model checker.  This
    module is the runtime half of the same loop: a monitor consumes the
    event trace of a {!Runtime} simulation online and reports the first
    event at which a requirement is refuted, with the trace prefix that
    led there (rendered MSC-style, like the paper's Figures 10–13).

    The monitored clauses, in requirement terms:

    - {b R1} (bounded detection): if p[0] receives no heartbeat from a
      participant for [r1_bound], p[0] must have inactivated itself; and
      a participant that receives no beat for [pi_bound] must have
      inactivated — unless the process in question is itself crashed by
      a fault.  The bounds are supplied by the caller: the paper's
      claimed [2*tmax] refutes the unfixed protocols at the parameter
      points the tables mark [F]; the corrected §6.2 bounds hold.
    - {b R2} (no false inactivation of participants): a participant is
      never non-voluntarily inactivated while p[0] is up unless a
      message on one of its links was lost or dropped.
    - {b R3} (no false inactivation of p[0], and quiescence): p[0] never
      self-inactivates unless some process crashed or a message was
      lost; and after p[0]'s inactivation the system goes quiet — no
      message is sent more than [quiescence_after] past it. *)

type event =
  | Send of { src : int; dst : int; at : float }
  | Deliver of { src : int; dst : int; at : float }
  | Drop of { src : int; dst : int; at : float; kind : Sim.Net.drop_kind }
  | Late of { src : int; dst : int; at : float }
      (** delivered past the channel's nominal delay bound (reordering /
          jitter faults) — excuses R2/R3 like a loss does *)
  | Crash of { node : int; at : float }
  | Recover of { node : int; at : float }
  | Detect of { at : float }  (** p[0] concluded a failure *)
  | Inactivate of { node : int; at : float }
      (** non-voluntary participant inactivation *)

val pp_event : Format.formatter -> event -> unit

type violation = {
  req : Requirements.requirement;
  at : float;  (** when the requirement became refuted *)
  reason : string;
  prefix : event list;  (** the trace up to and including discovery *)
}

type verdict = Pass | Fail of violation

type t

val create :
  ?grace:float ->
  ?quiescence_after:float ->
  n:int ->
  r1_bound:float ->
  pi_bound:float ->
  Requirements.requirement list ->
  t
(** [create ~n ~r1_bound ~pi_bound reqs] monitors the given requirements
    over a run with participants [1..n].  A deadline is missed only
    when it is passed by more than [1e-6], which absorbs floating-point
    ties; [quiescence_after] (default [2 * pi_bound]) is how long after
    p[0]'s inactivation residual in-flight traffic may still cause
    sends.

    [grace] (default 0) holds an R2/R3 candidate violation open for that
    long before latching it: under reordering or jitter the delivery that
    excuses a false-looking inactivation (the late message the protocol
    timed out on) can land {e after} the inactivation itself.  Callers
    injecting such faults should set it to at least the worst-case
    lateness still in flight (e.g. [tmin + 2 * jitter]); a candidate
    still inside its grace window when {!finish} is called is dropped as
    inconclusive rather than latched. *)

val feed : t -> event -> unit
(** Consume the next trace event (events must arrive in time order).
    After the first violation the monitor latches and further events are
    ignored. *)

val finish : t -> now:float -> unit
(** Declare the end of the run at time [now], checking deadlines that
    expired after the last event. *)

val verdict : t -> verdict

val trace : t -> event list
(** Everything fed so far, in order (capped at the violation if any). *)

val pp_violation : Format.formatter -> violation -> unit

val render_prefix : ?n:int -> violation -> string
(** The violation's trace prefix as an MSC-style chart: one column per
    process plus a channel column, one row per event ([n] participant
    columns, default 1). *)
