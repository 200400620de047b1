(** Lossy, delaying point-to-point links for simulations.

    Matches the paper's channel assumptions: a message is either lost or
    delivered within a bounded delay; the bound [tmin] of the protocols is
    an upper bound on the *round-trip* delay, so each direction of a link
    is given half the budget by the callers.

    Beyond the stochastic loss model, a link exposes fault-injection
    knobs ({!ctl_set_up}, {!ctl_burst}, {!ctl_duplicate},
    {!ctl_reorder}, {!ctl_jitter}) that deliberately break those
    assumptions — the adversarial schedules under which the paper's
    requirements fail.
    Two kinds of non-delivery are accounted separately: {!lost} counts
    stochastic channel loss (the loss model, or a burst window), while
    {!dropped} counts messages swallowed by a down link or flushed while
    in flight, so reliability experiments do not over-count channel loss
    during partitions. *)

type 'a t

type drop_kind =
  | Stochastic  (** loss model or burst window — counted by {!lost} *)
  | Down  (** down link or in-flight flush — counted by {!dropped} *)

val create :
  Engine.t ->
  ?loss:Loss.t ->
  ?on_drop:(drop_kind -> 'a -> unit) ->
  ?on_late:('a -> unit) ->
  delay_lo:float ->
  delay_hi:float ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [create engine ~loss ~delay_lo ~delay_hi ~deliver ()] builds a
    unidirectional link.  Each sent message is dropped according to the
    loss model [loss] (default [Loss.bernoulli 0.0], lossless; a fixed
    rate [p] is [Loss.bernoulli p]) and otherwise delivered after a
    uniform random delay in [\[delay_lo, delay_hi\]].  [on_drop] is called (with the
    kind) whenever a message is lost or dropped; [on_late] is called
    just before delivering a message whose drawn delay exceeded
    [delay_hi] — possible only under {!ctl_reorder} / {!ctl_jitter},
    i.e. when the channel's delay assumption was deliberately broken.
    @raise Invalid_argument on a negative delay, [delay_hi < delay_lo], or
    an invalid loss model ({!Loss.validate}). *)

val send : 'a t -> 'a -> unit

val up : 'a t -> bool

val sent : 'a t -> int
(** Messages handed to the link. *)

val delivered : 'a t -> int
(** Messages actually delivered so far (duplicate copies included). *)

val lost : 'a t -> int
(** Messages dropped stochastically — by the loss model or a burst
    window.  Down-link drops are {e not} counted here; see {!dropped}. *)

val dropped : 'a t -> int
(** Messages swallowed because the link was down, or flushed in flight
    by [ctl_set_up ~drop_inflight:true].  A flushed message is counted
    when its delivery would have fired. *)

val duplicates : 'a t -> int
(** Extra copies injected by {!ctl_duplicate}. *)

val late : 'a t -> int
(** Deliveries whose delay exceeded the nominal [delay_hi] bound (due to
    reordering or jitter). *)

(** {2 Fault-control handles}

    A type-erased view of a link's fault knobs, so a fault injector can
    steer links of any message type (see {!Fault}).  A link starts up,
    with every other knob off. *)

type ctl

val ctl : 'a t -> ctl

val ctl_set_up : ctl -> drop_inflight:bool -> bool -> unit
(** Taking a link down silently drops everything sent afterwards; with
    [~drop_inflight:true] messages already in flight are flushed too
    (both are counted by {!dropped}, not {!lost}).  With
    [~drop_inflight:false] in-flight messages still arrive — the
    paper's channel-crash model. *)

val ctl_burst : ctl -> float option -> unit
(** [ctl_burst c (Some p)] opens a burst-loss window: until the next
    [ctl_burst c None], each sent message is dropped with probability
    [p] {e instead of} consulting the loss model (the model's channel
    state is left untouched).  Burst drops count as {!lost}.
    @raise Invalid_argument if [p] is outside [\[0,1\]]. *)

val ctl_duplicate : ctl -> float -> unit
(** Probability that a delivered message is delivered twice, the copy
    with an independently drawn delay (initially 0).
    @raise Invalid_argument outside [\[0,1\]]. *)

val ctl_reorder : ctl -> float -> unit
(** Probability that a message is held back past the nominal delay
    window — its delay is drawn from [\[delay_hi, 2*delay_hi\]] — so
    later sends can overtake it (initially 0).
    @raise Invalid_argument outside [\[0,1\]]. *)

val ctl_jitter : ctl -> float -> unit
(** Extra delay jitter: each delivery gets an additional uniform delay
    in [\[0, jitter\]] on top of its drawn delay (initially 0).
    Deliberately violates the [delay_hi] bound — an adversarial fault.
    @raise Invalid_argument on a negative bound. *)
