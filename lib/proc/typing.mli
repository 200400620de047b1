(** Sort inference for specifications.

    A proper Hindley–Milner-style pass over a {!Spec.t}: every definition
    parameter and every action argument position gets a unification
    variable, expression shapes and occurrences constrain them, and the
    result is one signature per definition and per action that is
    consistent across {e all} occurrences — or a list of typing errors
    when no such signature exists.

    This replaces (and is consumed by) {!Mcrl2}'s former per-occurrence
    sort guessing: an action used with an [Int] argument in one process
    and a [Bool] argument in another is a reported conflict here, where
    the old exporter silently joined the sorts to [Int]. *)

type sort = Int | Bool | Int_list

val sort_name : sort -> string
(** mCRL2 spelling: ["Int"], ["Bool"], ["List(Int)"]. *)

type signatures = {
  def_params : (string * sort option array) list;
      (** Parameter sorts per definition, in specification order.  [None]
          means the position is unconstrained (no occurrence fixed it). *)
  actions : (string * sort option array) list;
      (** Argument sorts per action name, sorted by name.  Zero-arity
          actions appear with an empty array. *)
}

type error_kind =
  | Sort_clash  (** two occurrences demand incompatible sorts *)
  | Arity_conflict  (** an action used with differing argument counts *)
  | Unbound_var  (** a variable not bound by parameters or a sum *)

type error = {
  err_kind : error_kind;
  err_context : string;  (** e.g. ["definition P0"] or ["action arm"] *)
  err_message : string;
}

val infer : Spec.t -> signatures * error list
(** [infer spec] walks every definition body once, unifying:
    - call-site argument sorts with callee parameter sorts,
    - action-occurrence argument sorts with the action's global signature,
    - expression operand sorts with the operators' requirements
      (arithmetic is [Int]; [&&]/[||]/[!] are [Bool]; conditions of
      conditionals are [Bool]; both branches of [If] agree; list
      primitives are over [Int_list] with [Int] elements), and
    - initial-component argument values with the root definitions.

    Errors do not abort the pass: the offending constraint is skipped
    (first binding wins) and recorded, so [signatures] is always total
    and the error list enumerates every conflict deterministically (in
    specification walk order). *)

val dominant : sort option -> sort
(** Resolution used by the exporter: unconstrained positions print as
    [Int]. *)
