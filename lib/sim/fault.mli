(** Declarative, seed-reproducible fault schedules for simulations.

    A schedule is a list of timed fault events — node crashes and
    recoveries, link partitions with an explicit in-flight-message
    policy, burst-loss windows, duplication / reordering / delay-jitter
    windows — applied to a harness through a small injection hook API:
    the harness exposes its nodes, a link lookup returning {!Net.ctl}
    handles, and crash/recover callbacks, and {!apply} schedules the
    corresponding engine events.  All randomness comes from the engine's
    RNG, so a (schedule, seed) pair replays byte-identically. *)

type action =
  | Crash of int  (** node stops participating *)
  | Recover of int  (** a previously crashed node resumes *)
  | Partition of { isolated : int list; duration : float; drop_inflight : bool }
      (** every link between [isolated] and the rest goes down both ways
          for [duration]; [drop_inflight] flushes messages already in
          the air (otherwise they still arrive — the default channel
          assumption) *)
  | Burst of { duration : float; loss : float }
      (** all links drop each message with probability [loss] instead of
          consulting their loss model, for [duration] *)
  | Duplicate of { duration : float; prob : float }
      (** all links duplicate deliveries with probability [prob] *)
  | Reorder of { duration : float; prob : float }
      (** all links hold back messages past the delay window with
          probability [prob], letting later sends overtake *)
  | Jitter of { duration : float; extra : float }
      (** all links add uniform extra delay in [\[0, extra\]] —
          deliberately violating the round-trip bound *)

type event = { at : float; action : action }

type schedule = event list
(** Events need not be sorted; windows of the same kind should not
    overlap (the later window's end resets the knob for all). *)

val validate : schedule -> unit
(** @raise Invalid_argument on a negative time, non-positive duration,
    probability outside [\[0,1\]], negative jitter, or an empty
    partition. *)

val crash : at:float -> int -> event
val recover : at:float -> int -> event

val partition :
  at:float -> ?drop_inflight:bool -> duration:float -> int list -> event

val burst : at:float -> duration:float -> float -> event
val duplicate : at:float -> duration:float -> float -> event
val reorder : at:float -> duration:float -> float -> event
val jitter : at:float -> duration:float -> float -> event

val apply :
  Engine.t ->
  nodes:int list ->
  link:(src:int -> dst:int -> Net.ctl option) ->
  on_crash:(int -> unit) ->
  on_recover:(int -> unit) ->
  ?on_apply:(float -> action -> unit) ->
  schedule ->
  unit
(** Arm every event of the schedule on the engine.  [link ~src ~dst]
    returns the control handle of the directed link from [src] to [dst]
    ([None] if the harness has no such link); partitions and windows
    steer links through it, crashes and recoveries call the harness
    callbacks.  [on_apply] is invoked as each scheduled event fires
    (window ends are not reported).  Validates the schedule first.
    @raise Invalid_argument on an invalid schedule or an event naming a
    node outside [nodes]. *)

val pp_action : Format.formatter -> action -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> schedule -> unit

val to_json : schedule -> string
(** Deterministic single-line JSON rendering (used for campaign
    reports; equal schedules give byte-identical strings). *)
