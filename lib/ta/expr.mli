(** Integer and boolean expressions for timed-automata guards, invariants
    and updates.

    Expressions refer to scalar variables, array elements and clocks by
    name; names are resolved to indices when a network is compiled
    ({!Semantics.compile}).  The language is deliberately small — exactly
    what the UPPAAL models in the paper use: arithmetic, comparisons,
    boolean connectives, and [min]/[max] (for the waiting-time lists of the
    static protocol). *)

type t =
  | Int of int
  | Var of string  (** scalar state variable *)
  | Elem of string * t  (** array element [a\[e\]] *)
  | Clock of string  (** current clock value *)
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** integer division, rounding toward zero *)
  | Min of t * t
  | Max of t * t

type cmp = Lt | Le | Eq | Ge | Gt | Ne

type b =
  | True
  | False
  | Cmp of cmp * t * t
  | Not of b
  | And of b * b
  | Or of b * b

(** {2 Construction helpers} *)

val i : int -> t
val v : string -> t
val clk : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( < ) : t -> t -> b
val ( <= ) : t -> t -> b
val ( = ) : t -> t -> b
val ( >= ) : t -> t -> b
val ( > ) : t -> t -> b
val ( <> ) : t -> t -> b
val ( && ) : b -> b -> b
val ( || ) : b -> b -> b
val not_ : b -> b
val conj : b list -> b

(** {2 Traversal} *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** [fold f acc e] calls [f] on every [Int], [Var] and [Clock] leaf and
    on every [Elem] node (before its index), left to right. *)

val fold_b : ('a -> t -> 'a) -> 'a -> b -> 'a
(** {!fold} over every integer expression of a boolean one, left to
    right. *)

val map : (t -> t) -> t -> t
(** [map f e] replaces every [Int], [Var] and [Clock] leaf [l] by
    [f l]; an [Elem] keeps its array name and has its index mapped. *)

val map_b : (t -> t) -> b -> b
(** {!map} over every integer expression of a boolean one. *)

val pp : Format.formatter -> t -> unit
val pp_b : Format.formatter -> b -> unit
