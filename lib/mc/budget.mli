(** Resource budgets with cooperative cancellation.

    A budget bounds a verification run by wall-clock time and/or live
    heap size, and doubles as the cancellation token for signal
    handling.  Exploration engines poll {!check} at chunk granularity;
    the first limit to trip is recorded {e stickily} and every
    subsequent poll returns it, so all domains of a parallel run
    converge on the same reason.

    Budgets are cheap to poll: the sticky trip state and the
    cancellation flag are single atomic reads, and the expensive
    probes (gettimeofday, GC stats, user probe) only run every
    [check_every] calls. *)

type reason =
  | Wall_clock of float  (** wall-clock budget (seconds) exhausted *)
  | Memory of int  (** live-heap budget (megabytes) exhausted *)
  | Cancelled  (** {!cancel} was called (signal or user request) *)
  | Crashed of string
      (** a successor function raised and could not be retried; the
          payload names the exception and the offending state *)

type t

val make :
  ?wall_secs:float ->
  ?mem_mb:int ->
  ?probe:(unit -> reason option) ->
  ?check_every:int ->
  unit ->
  t
(** [make ()] starts the wall clock immediately.  [probe] is an extra
    user-supplied limit evaluated alongside the built-in ones (used by
    the test suite to trip deterministically at a chosen state count).
    [check_every] rate-limits the expensive probes to one in every
    [check_every] calls to {!check} (rounded up to a power of two;
    default 64).  Cancellation is checked on {e every} call. *)

val check : t -> reason option
(** Poll the budget.  Returns [Some r] once tripped (sticky until
    {!rearm}).  Thread-safe; callable from any domain. *)

val tripped : t -> reason option
(** The sticky trip state, without probing.  One atomic read. *)

val cancel : t -> unit
(** Request cooperative cancellation; the next {!check} from any
    domain trips with {!Cancelled}.  Async-signal-safe. *)

val trip : t -> reason -> unit
(** Force a trip with an explicit reason (used to surface successor
    crashes as {!Crashed}).  The first trip wins; later ones are
    ignored. *)

val rearm : t -> unit
(** Clear a {!Memory} trip after the store has been degraded, so the
    run can continue under the smaller footprint.  Because the OCaml 5
    major heap does not shrink in place, the memory limit re-arms with
    headroom above the {e current} heap size — a later trip then means
    the degraded run itself is outgrowing memory, not that the old
    high-water mark lingers.  Trips for any other reason are
    permanent. *)

val elapsed : t -> float
(** Seconds since [make]. *)

val install_signal_handlers : t -> unit
(** Route SIGINT/SIGTERM to {!cancel} so a run checkpoints and reports
    partial results instead of dying.  A {e second} signal exits with
    code 130, for users who really mean it.  No-op on platforms without
    those signals. *)

val reason_name : reason -> string
(** Short stable tag: ["wall-clock"], ["memory"], ["interrupted"],
    ["crashed"] — used in JSON output. *)

val pp_reason : Format.formatter -> reason -> unit
