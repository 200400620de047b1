(** First-order data expressions of the process algebra.

    The language is deliberately closed (no embedded OCaml functions), so
    process terms — and hence explorer states — can be compared and hashed
    structurally.  It covers what the paper's mCRL2 specifications use:
    arithmetic, comparisons, boolean connectives, conditionals, and the
    list operations of the static/expanding/dynamic protocols ([update],
    [minimum], element access). *)

type t =
  | Const of Value.t
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | If of t * t * t
  | Nth of t * t  (** [Nth (list, index)], 0-based *)
  | Set_nth of t * t * t  (** [Set_nth (list, index, value)] *)
  | Min_list of t  (** minimum of a non-empty integer list *)
  | Len of t
  | Repl of t * t  (** [Repl (n, v)]: list of [n] copies of [v] *)

type env = (string * Value.t) list
(** Evaluation environment, most recent binding first. *)

val eval : env -> t -> Value.t
(** Evaluate an expression.
    @raise Invalid_argument on unbound variables or type errors. *)

val eval_bool : env -> t -> bool

(** {2 Construction helpers} *)

val tt : t
val ff : t
val int : int -> t
val v : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t

val pp : Format.formatter -> t -> unit
