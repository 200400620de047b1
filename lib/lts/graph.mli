(** Finite labelled transition systems.

    A labelled transition system (LTS) is a finite graph whose nodes are
    states (numbered [0 .. num_states - 1]) and whose edges carry labels of
    an arbitrary type ['l].  LTSs are the common output format of the
    process-algebra semantics ({!Proc.Semantics}) and the timed-automata
    semantics ({!Ta.Semantics}), and the common input format of the
    minimisation and export utilities. *)

type 'l t
(** An immutable LTS with labels of type ['l], stored as compressed
    sparse rows: one row of (label, target) pairs per source state, the
    rows in source order.  A transition costs two words. *)

val make : num_states:int -> initial:int -> (int * 'l * int) list -> 'l t
(** [make ~num_states ~initial transitions] builds an LTS.  Every state
    index occurring in [transitions] and [initial] must lie in
    [0 .. num_states - 1].  The list need not be grouped by source: it
    is sorted by source stably, so each state's transitions keep the
    order they have in the list.
    @raise Invalid_argument on an out-of-range state index. *)

val of_rows :
  initial:int -> offsets:int array -> targets:int array -> labels:'l array -> 'l t
(** [of_rows ~initial ~offsets ~targets ~labels] takes the rows as they
    are, without copying: state [s]'s transitions are the entries
    [offsets.(s)] to [offsets.(s + 1) - 1] of [targets] and [labels], so
    there are [Array.length offsets - 1] states.  The arrays must not be
    mutated afterwards.
    @raise Invalid_argument unless [offsets] starts at 0, never
    decreases and ends at the length of [targets] and of [labels], and
    every target and [initial] is a state. *)

val num_states : 'l t -> int
(** Number of states. *)

val num_transitions : 'l t -> int
(** Number of transitions. *)

val initial : 'l t -> int
(** The initial state. *)

val successors : 'l t -> int -> ('l * int) list
(** [successors lts s] lists the outgoing transitions of state [s], in the
    order they were given to {!make} (or in their row). *)

val transitions : 'l t -> (int * 'l * int) list
(** All transitions as [(source, label, target)] triples, in source
    order: state 0's row, then state 1's, and so on, each row in
    {!successors} order.  For a list grouped by ascending source, this
    is the list given to {!make}. *)

val fold_transitions : (int -> 'l -> int -> 'a -> 'a) -> 'l t -> 'a -> 'a
(** Fold over all transitions, in the order of {!transitions}. *)

val labels : 'l t -> 'l list
(** The distinct labels occurring in the LTS (using structural equality),
    in first-occurrence order of {!transitions}. *)

val deadlocks : 'l t -> int list
(** States with no outgoing transition, in increasing order. *)

val reachable : 'l t -> bool array
(** [reachable lts] marks the states reachable from the initial state. *)

val predecessors : 'l t -> int list array
(** [predecessors lts] is the reverse-edge table: entry [s'] lists the
    sources of transitions into [s'] (one entry per transition, so a state
    with two edges into [s'] appears twice), in the order of
    {!transitions}. *)

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
