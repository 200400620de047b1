(** Process-algebra models of the heartbeat protocols (paper §3).

    This is the paper's second, independent encoding: each protocol is an
    mCRL2-style parallel composition of sequential processes

    - [P0] / [P1_{i}] — the protocol participants;
    - [SW0] — p[0]'s round stopwatch, armed with the current waiting time
      at each beat ([arm(t)]); at its limit it refuses to tick, forcing
      the timeout to be delivered before time can pass;
    - [SW1_{i}] — p\[i\]'s inactivation watchdog, reset by each beat
      p\[i\] replies to; the reset summand stays enabled at the limit, so
      the timeout/receive race of §5.5 is present, exactly as in the
      paper's model;
    - [Ch0] — the forward channel; for the static protocol it contains
      the paper's {e Broadcaster} loop, delivering or losing the beat per
      recipient; the joining variants use one forward channel per
      participant instead, since p\[0\] addresses only the joined ones;
    - [Ch1_{i}] — reply channels, which lose or forward (in the dynamic
      variant they carry true and leave beats separately);
    - [SWCH_{i}] — the channel stopwatch: carries an in-flight beat,
      enforces the round-trip bound [tmin] by refusing to tick at the
      deadline, and remembers the spent forward delay for the reply leg;
    - [JCh_{i}] — the joining variants' pre-join channel (the paper's
      "extra channel"): join requests may take up to [tmax] and a newer
      request silently supersedes a pending one;
    - [PJInit_{i}] / [PJWait_{i}] — the joining phase: a join request at
      start-up and every [tmin] after, until p[0]'s first beat arrives.

    Time is the global [tick] action ({!Proc.Spec.tick_name}).

    All six protocol variants are encoded; the test suite checks that
    this encoding and the timed-automata encoding ({!Ta_models}) give
    identical verdicts — the paper's CADP/UPPAAL cross-validation. *)

type variant = Ta_models.variant =
  | Binary
  | Revised
  | Two_phase
  | Static
  | Expanding
  | Dynamic
(** {!Ta_models.variant}, re-exported with its constructors. *)

val variant_name : variant -> string
(** {!Ta_models.variant_name}. *)

val has_join : variant -> bool
(** {!Ta_models.has_join}. *)

val build : variant -> Params.t -> Proc.Spec.t
(** Build the specification ([Params.n] participants for the multi-party
    variants, one otherwise). *)

(** {2 Visible action names} (for monitors and properties) *)

val act_beat_delivered_to_p0 : int -> string
(** ["dlv1_i"]: a (true) beat of p\[i\] reaching p[0]. *)

val act_join_delivered_to_p0 : int -> string
(** ["jdlv_i"]: a join request reaching p[0] (joining variants). *)

val act_leave_delivered_to_p0 : int -> string
(** ["dlv1f_i"]: a leave beat reaching p[0] (dynamic). *)

val act_beat_delivered_to_pi : int -> string
val act_inactivate_nv_p0 : string
val act_inactivate_nv_pi : int -> string
val act_crash_p0 : string
val act_crash_pi : int -> string

val act_leave_pi : int -> string
(** ["left_i"]: p\[i\] left the protocol voluntarily (dynamic). *)

val act_lose : variant -> int -> string list
(** The loss actions of participant [i]'s channels (including the
    pre-join channel for the joining variants). *)

(** {2 Building blocks} (exposed for the component figures of
    {!Figures}) *)

module For_figures : sig
  val p0_def : variant -> Params.t -> int -> Proc.Term.def
  val sw0_defs : Params.t -> Proc.Term.def list
  val p1_defs : Params.t -> int -> Proc.Term.def list
  val tick_dead : Proc.Term.def list
end
