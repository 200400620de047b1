(** Minimum-priority queue (pairing heap) keyed by float priorities.

    The event queue of the discrete-event engine.  A pairing heap gives
    O(1) insert and amortised O(log n) delete-min without any external
    dependency. *)

type 'a t

val empty : 'a t
val insert : float -> 'a -> 'a t -> 'a t

val pop : 'a t -> ((float * 'a) * 'a t) option
(** The minimum-priority element and the rest of the heap; [None] when
    empty. *)
