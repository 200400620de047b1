(** The paper's counterexample figures (10–13), regenerated.

    Each scenario runs the model checker on the configuration the paper
    uses for that figure, extracts the shortest violating trace, and
    summarises it (events with their occurrence times).  The test suite
    asserts structural properties of each trace — e.g. that the Figure 11
    trace contains no message loss and no voluntary crash, and that p[1]
    is non-voluntarily inactivated at time [3*tmax - tmin]. *)

type event = { time : int; action : string }

type t = {
  figure : string;  (** e.g. ["Fig10a"] *)
  description : string;
  variant : Ta_models.variant;
  params : Params.t;
  requirement : Requirements.requirement;
  events : event list;  (** the violating trace, ticks folded into times *)
}

val timeline : Ta.Semantics.label list -> event list
(** Fold delay steps into integer timestamps. *)

val fig10a : unit -> t
(** R1 counterexample for [2*tmin < tmax] (tmin=4): p\[1\] replies once and
    crashes; p\[0\]'s halving schedule keeps it alive past [2*tmax]. *)

val fig10b : unit -> t
(** R1 counterexample for [2*tmin <= tmax] (tmin=5). *)

val fig11 : unit -> t
(** R2 counterexample for [tmin = tmax]: a beat reaches p\[1\] at the same
    instant as its timeout, and the timeout is processed first. *)

val fig12 : unit -> t
(** R3 counterexample for [tmin = tmax]: the reply reaches p\[0\] at the
    same instant as p\[0\]'s timeout. *)

val fig13 : unit -> t
(** R2 counterexample for the expanding protocol, [2*tmin >= tmax]: a join
    request is acknowledged only after [2*tmax + tmin], past the joining
    timeout [3*tmax - tmin]. *)

val all : unit -> t list

val last_event : t -> event
(** The final (violating) event.
    @raise Invalid_argument on an empty trace. *)

val pp : Format.formatter -> t -> unit
