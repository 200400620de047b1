(** Finite labelled transition systems.

    A labelled transition system (LTS) is a finite graph whose nodes are
    states (numbered [0 .. num_states - 1]) and whose edges carry labels of
    an arbitrary type ['l].  LTSs are the common output format of the
    process-algebra semantics ({!Proc.Semantics}) and the timed-automata
    semantics ({!Ta.Semantics}), and the common input format of the
    minimisation and export utilities. *)

type 'l t
(** An immutable LTS with labels of type ['l]. *)

val make : num_states:int -> initial:int -> (int * 'l * int) list -> 'l t
(** [make ~num_states ~initial transitions] builds an LTS.  Every state
    index occurring in [transitions] and [initial] must lie in
    [0 .. num_states - 1].
    @raise Invalid_argument on an out-of-range state index. *)

val num_states : 'l t -> int
(** Number of states. *)

val num_transitions : 'l t -> int
(** Number of transitions. *)

val initial : 'l t -> int
(** The initial state. *)

val successors : 'l t -> int -> ('l * int) list
(** [successors lts s] lists the outgoing transitions of state [s], in the
    order they were given to {!make}. *)

val transitions : 'l t -> (int * 'l * int) list
(** All transitions as [(source, label, target)] triples. *)

val fold_transitions : (int -> 'l -> int -> 'a -> 'a) -> 'l t -> 'a -> 'a
(** Fold over all transitions. *)

val labels : 'l t -> 'l list
(** The distinct labels occurring in the LTS (using structural equality),
    in first-occurrence order. *)

val deadlocks : 'l t -> int list
(** States with no outgoing transition, in increasing order. *)

val reachable : 'l t -> bool array
(** [reachable lts] marks the states reachable from the initial state. *)

val predecessors : 'l t -> int list array
(** [predecessors lts] is the reverse-edge table: entry [s'] lists the
    sources of transitions into [s'] (one entry per transition, so a state
    with two edges into [s'] appears twice), in transition order. *)

val scc : 'l t -> int * int array
(** [scc lts] computes the strongly connected components (Tarjan's
    algorithm, iterative).  Returns [(count, comp)] where [comp.(s)] is the
    component index of state [s], in [0 .. count - 1].  Components are
    numbered in completion order, which is reverse topological: for every
    transition [s -> s'] with [comp.(s) <> comp.(s')], [comp.(s') <
    comp.(s)].  All states are covered, reachable from the initial state or
    not. *)

val trace_to : 'l t -> (int -> bool) -> 'l list option
(** [trace_to lts goal] returns the labels of a shortest path from the
    initial state to some state satisfying [goal], or [None] if no such
    state is reachable. *)

val pp_stats : Format.formatter -> 'l t -> unit
(** Print a one-line [states/transitions/deadlocks] summary. *)
