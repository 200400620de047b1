(** Discrete-time operational semantics of timed-automata networks.

    Time is modelled by explicit unit-delay steps ({!Delay} labels): all
    clocks advance by one together, and a delay is enabled only when no
    urgent or committed location is occupied and every location invariant
    still holds afterwards.  Clock values saturate at their declared cap,
    which keeps the state space finite; the saturation is sound as long as
    each cap exceeds every constant its clock is compared against.  For the
    closed (non-strict) constraints used by the paper's models, this
    digitised semantics reaches the same locations as UPPAAL's dense-time
    semantics.

    Action steps follow UPPAAL's rules: internal edges, binary handshake
    (sender updates applied before receiver updates), broadcast (all
    enabled receivers participate), and committed-location priority. *)

type config
(** A network configuration: locations, clock values and variable values. *)

type label = Delay | Act of string

type t
(** A compiled network: name resolution and guard/update compilation are
    done once, up front. *)

val compile : Model.t -> t
(** Compile a network.
    @raise Invalid_argument on unknown names, duplicate declarations, or an
    initial configuration violating an invariant. *)

val system : t -> (config, label) Mc.System.t
(** Package the compiled network for the explorer. *)

val initial : t -> config

val successors : t -> config -> (label * config) list
(** The successors of a configuration, in this order: internal edges
    (automaton by automaton, each location's edges in model order); then,
    channel by channel, binary handshakes (sender automaton, sender edge,
    receiver automaton, receiver edge) and broadcast sends (sender
    automaton, sender edge; the receiving edges chosen per participant,
    first participant outermost); then the unit delay.  Guards, updates
    and invariants are evaluated in that order too, so one that raises
    (a division by zero, an index out of range) raises the first such
    exception.  The list is a pure function of the configuration: the
    move menu of each location vector is built on its first visit and
    memoised on the compiled network, and [successors] may be called on
    one network from several domains at once. *)

val deadlocked : t -> config -> bool
(** [deadlocked t c] is [successors t c = []] wherever [successors]
    does not raise, but stops at the first enabled move whose target
    invariants hold. *)

(** {2 Move menus}

    The candidate moves of a location vector, built on its first visit
    and memoised on the compiled network (safe from several domains).
    {!successors} walks them, and so does [Zone.Sym.successors], which
    adds only each edge's symbolic half (keyed by the edges of
    {!loc_edges}): the pairing and committed-location rules exist once,
    here.  Moves come in {!successors}' order, so discrete graphs and
    traces and zone counts all depend on it.  The committed-location rule is
    already applied ([alone] / [g_allowed]: the broadcast may fire with
    no allowed receiver / thanks to this one); guards are left to the
    walker.  [delay] is [None] when an urgent or committed location is
    occupied.  Treat menus as read-only. *)

type edge

val loc_edges : t -> auto:int -> loc:int -> edge list
(** The compiled edges leaving a location: its internal, then its
    sending, then its receiving edges, each in model order.  Menus hold
    these very values, so they can key a reader's data physically. *)

val edge_dst : edge -> int
(** The target location's position in its automaton's location list. *)

val edge_label : edge -> string

type invariants
type receiver = private { r_auto : int; r_edge : edge; r_invs : invariants }
type group = private { g_auto : int; g_allowed : bool; g_edges : edge array }

type move = private
  | Tau of { auto : int; edge : edge; invs : invariants }
  | Binary of { auto : int; send : edge; recvs : receiver array }
  | Broadcast of { auto : int; send : edge; alone : bool; groups : group array }

type menu = private { moves : move array; delay : invariants option }

val menu : t -> config -> menu

(** {2 Observations on configurations} (for state predicates) *)

val loc_is : t -> auto:string -> loc:string -> config -> bool
(** Is the given automaton in the given location? *)

val var : t -> string -> config -> int
val clock : t -> string -> config -> int

(** {2 Zone-engine support}

    The symbolic zone engine ({!Zone.Sym} in the [zone] library) reuses
    the discrete configuration layout for the discrete part of its
    states — locations and variables, with every clock cell zeroed — so
    that state predicates built from {!loc_is} / {!var} apply
    unchanged to symbolic states.  These accessors expose the layout
    and the compiled evaluators it needs; [of_cells] / [cells] convert
    (for free — a configuration {e is} its cell array) between the two
    views. *)

val of_cells : int array -> config
val cells : config -> int array

val num_clocks : t -> int

val clock_offset : t -> int
(** Clock cells occupy [clock_offset t .. clock_offset t + num_clocks t - 1]. *)

val clock_caps : t -> int array
(** Saturation cap per clock, in declaration order (shared, do not
    mutate). *)

val lookup_var : t -> string -> int * int
(** Cell offset and size of a variable.  @raise Invalid_argument on
    unknown names. *)

val lookup_clock : t -> string -> int
(** Cell offset of a clock.  @raise Invalid_argument on unknown names. *)

val loc_name_at : t -> int -> int -> string
val auto_name_at : t -> int -> string

val compile_expr_fn : t -> Expr.t -> config -> int
val compile_bexpr_fn : t -> Expr.b -> config -> bool
(** Compile an expression against this network's layout (the same
    compilation the successor relation uses).  A clock read evaluates
    the clock {e cell} — callers that zero clock cells must only pass
    clock-free expressions. *)

val canonicalizer :
  t -> inactive:(string * (string * string list) list) list -> config -> config
(** [canonicalizer t ~inactive] builds a projection that zeroes, for each
    automaton currently at a listed location, the clocks declared inactive
    there ([inactive] is per automaton, per location, a list of clock
    names).  Used by the slicer's clock-activity reduction: states that
    differ only in inactive clocks collapse to one representative.
    @raise Invalid_argument on unknown automaton/location/clock names. *)

val hash_config : config -> int
val equal_config : config -> config -> bool
(** The hash and equality of {!system}, also the zone engine's on the
    discrete part. *)

val pp_config : t -> Format.formatter -> config -> unit
val pp_label : Format.formatter -> label -> unit
