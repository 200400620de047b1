(** Operational semantics of parallel specifications.

    Builds, from a {!Spec.t}, a {!Mc.System.t} whose states are vectors of
    sequential-component configurations and whose labels are either the
    global clock step {!Tick} or a (possibly hidden) action occurrence.
    This is the role the mCRL2 linearisation + state-space generation
    pipeline plays in the paper. *)

type component
(** A sequential component configuration: a process term plus an
    environment for its data parameters, with a structural hash of
    both computed once when the configuration is built. *)

type state = component array

type label =
  | Tick  (** global clock step: every component ticks together *)
  | Act of string * Value.t list
      (** action occurrence; hidden actions appear as [Act ("tau", [])] *)

val tau : label

val label_name : label -> string
(** ["tick"] for {!Tick}, the action name otherwise. *)

val pp_label : Format.formatter -> label -> unit

exception Unguarded_recursion of string
(** Raised during exploration if unfolding a definition never reaches an
    action prefix (the specification is not guarded). *)

val system : Spec.t -> (state, label) Mc.System.t
(** Compile a (validated) specification into an explorable system.
    @raise Invalid_argument if {!Spec.validate} rejects the spec. *)

(** {2 Compiled specifications}

    The step relation of {!system}, split into a compile step and
    introspection accessors.  Each distinct component configuration is
    interned once per compiled spec and its step menu is built on its
    first expansion, every action pre-classified (tick offer,
    independent action with its label, blocked, or communication half
    with its partners and result labels); later states that contain
    the configuration reuse the menu.  The communication-half names
    are interned as small ints at compile time, and each menu also
    carries {!Mask.t}s over them: the halves the configuration offers
    now (pairing skips component pairs whose offers cannot meet), their
    partners, and every half it could ever offer again.  The ample-set
    reducer in [lib/por] builds on these: it reads the last two masks
    to decide which components depend on which, and takes the full
    transition list from {!transitions}, the same pairing routine as
    {!successors_of}, with each transition's participants, so the
    reduced system explores a sub-structure of the full one. *)

type compiled
(** A validated specification with its lookup tables (definitions,
    allow/hide sets, communication pairs), initial state, and the
    memoised menus of the configurations seen so far (guarded by a
    mutex: one compiled spec may be expanded from several domains). *)

val compile : Spec.t -> compiled
(** @raise Invalid_argument if {!Spec.validate} rejects the spec. *)

val spec_of : compiled -> Spec.t
val initial_of : compiled -> state

val component_term : component -> Term.t
(** The process term of a configuration (top-level calls are unfolded
    in every successor configuration). *)

val component_env : component -> Pexpr.env
(** The data environment of a configuration. *)

val is_visible : compiled -> string -> bool
(** The name is in the spec's [allow] list. *)

val is_hidden : compiled -> string -> bool
(** The name is in the spec's [hide] list. *)

val is_comm : compiled -> string -> bool
(** The name is a send or receive half of some communication pair. *)

val comm_partners : compiled -> string -> (string * string) list
(** [(partner, result)] pairs for a communication half, both directions;
    [[]] for non-communication names. *)

type menu
(** The pre-resolved step menu of one configuration. *)

val menus : compiled -> state -> menu array
(** The menus of a state's components, [menus.(i)] for [s.(i)]; built
    on a configuration's first expansion and memoised from then on.
    @raise Unguarded_recursion as {!system}'s successors do. *)

val offers_tick : menu -> bool
(** The configuration offers at least one [tick]. *)

val partner_mask : menu -> Mask.t
(** The partner halves of the communication halves the configuration
    offers now, whatever their result (visible, hidden or blocked). *)

val future_mask : menu -> Mask.t
(** Every communication half the configuration could ever offer again:
    the halves its term offers syntactically (both branches of a
    condition, every value of a sum) and those of every definition
    reachable from its calls.  A successor's mask is a subset of its
    source's, so a component whose mask misses a half can move freely
    without ever enabling that handshake. *)

val transitions : menu array -> state -> (label * state) list * int list
(** {!successors_of}'s list, built by the same routine, together with
    each transition's participants in the same order: [i * n + j] for a
    communication of components [i < j], [i * n + i] for an independent
    action of [i], [-1] for a tick ([n] is the state's length). *)

val successors_of : compiled -> state -> (label * state) list
(** The full successor list of a state: independent actions in
    component order, then communications for [i < j], then the global
    tick.  This is the step relation of {!system}. *)

val system_of : compiled -> (state, label) Mc.System.t
(** The system of {!compile}d spec; [system spec] is
    [system_of (compile spec)]. *)

val pp_state : Format.formatter -> state -> unit
val equal_state : state -> state -> bool
(** Physical equality, then per component: physical equality, the
    cached keys, then structural equality (what states reloaded by
    [Marshal] need). *)

val hash_state : state -> int
(** Combines the components' cached keys: a pure function of the
    state's data, stable across [Marshal] round trips and processes. *)

val lts : Spec.t -> label Lts.Graph.t
(** Convenience: the reachable labelled transition system of the spec,
    built by {!Mc.Explore.space}.
    @raise Failure if {!Mc.Explore.default_max} states are exceeded. *)
