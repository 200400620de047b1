(** Packet-loss models for simulated links.

    Besides independent (Bernoulli) loss, provides the Gilbert–Elliott
    two-state Markov model: the link alternates between a Good and a Bad
    state with given transition probabilities (evaluated per message) and
    state-dependent loss rates.  Bursty loss is the interesting adversary
    for accelerated heartbeats — their reliability argument counts
    {e consecutive} losses, which bursts correlate. *)

type t =
  | Bernoulli of float  (** i.i.d. loss probability *)
  | Gilbert of {
      p_gb : float;  (** P(Good -> Bad), per message *)
      p_bg : float;  (** P(Bad -> Good), per message *)
      loss_good : float;
      loss_bad : float;
    }

val bernoulli : float -> t

val gilbert : p_gb:float -> p_bg:float -> unit -> t
(** The classic Gilbert channel: [loss_good = 0.0], [loss_bad = 1.0]
    (the bad state swallows everything). *)

val validate : t -> unit
(** @raise Invalid_argument if any probability is outside [\[0,1\]]. *)

val expected_loss : t -> float
(** Stationary loss probability of the model (for matching a bursty model
    against a Bernoulli one of equal average loss). *)

type state
(** Mutable per-link channel state. *)

val start : t -> state
val drops : t -> state -> Rng.t -> bool
(** Advance the channel state and decide the fate of one message. *)
