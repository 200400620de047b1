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
    the configuration reuse the menu.  This is what alternative
    successor functions (the ample-set reducer in [lib/por]) build on:
    they read each component's menu and compute successors restricted
    to a set of components through the same pairing routine, so the
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
    in every successor configuration).  Lets static analyses compute,
    per configuration, which actions it could ever offer again. *)

val component_env : component -> Pexpr.env
(** The data environment of a configuration. *)

module Table : Hashtbl.S with type key = component
(** Hash tables keyed by configuration: hashing reads the cached
    structural key; equality tries physical equality, then the key,
    then structural equality of term and environment. *)

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

val partners : menu -> string list
(** The partner names of the configuration's communication halves, each
    once. *)

val successors_among : menu array -> state -> bool array -> (label * state) list
(** [successors_among menus s members]: the transitions of [s] among
    the components with [members.(i)] — their independent actions in
    component order, then their communications for [i < j].  No tick.
    [menus] must be [menus c s]. *)

val successors_with : menu array -> state -> (label * state) list
(** The full successor list of a state given its menus: independent
    actions in component order, then communications for [i < j], then
    the global tick.  This is the step relation of {!system}. *)

val successors_of : compiled -> state -> (label * state) list

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
