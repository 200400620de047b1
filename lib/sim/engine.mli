(** Discrete-event simulation engine.

    Events are closures scheduled at absolute simulated times; running the
    engine executes them in time order.  Timers can be cancelled (needed by
    heartbeat processes, which constantly re-arm timeouts). *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0; the seed (default 1) drives {!rng}. *)

val now : t -> float
(** Current simulated time. *)

val rng : t -> Rng.t
(** The engine's random stream. *)

type timer

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at time [now t +. delay].
    @raise Invalid_argument if [delay < 0]. *)

val at : t -> time:float -> (unit -> unit) -> timer
(** Schedule at an absolute time (not before [now]). *)

val cancel : timer -> unit
(** Cancelling a fired or already-cancelled timer is a no-op. *)

val run : ?until:float -> t -> unit
(** Execute events in time order until the queue drains or simulated
    time would exceed [until].  Events at the simulation horizon [until]
    itself still execute. *)
