type t =
  | Int of int
  | Var of string
  | Elem of string * t
  | Clock of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
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

let i n = Int n
let v name = Var name
let clk name = Clock name
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( = ) a b = Cmp (Eq, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( <> ) a b = Cmp (Ne, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not_ b = Not b
let conj = List.fold_left ( && ) True

(* The one traversal of the leaf-level walkers (clock and variable
   collectors, substitutions): [fold] visits leaves and array nodes left
   to right, each [Elem] before its index; [map] rewrites leaves and
   keeps array names. *)
let rec fold f acc e =
  match e with
  | Int _ | Var _ | Clock _ -> f acc e
  | Elem (_, i) -> fold f (f acc e) i
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Min (a, b) | Max (a, b)
    ->
      fold f (fold f acc a) b

let rec fold_b f acc = function
  | True | False -> acc
  | Cmp (_, a, b) -> fold f (fold f acc a) b
  | Not b -> fold_b f acc b
  | And (a, b) | Or (a, b) -> fold_b f (fold_b f acc a) b

let rec map f e =
  match e with
  | Int _ | Var _ | Clock _ -> f e
  | Elem (x, i) -> Elem (x, map f i)
  | Add (a, b) -> Add (map f a, map f b)
  | Sub (a, b) -> Sub (map f a, map f b)
  | Mul (a, b) -> Mul (map f a, map f b)
  | Div (a, b) -> Div (map f a, map f b)
  | Min (a, b) -> Min (map f a, map f b)
  | Max (a, b) -> Max (map f a, map f b)

let rec map_b f = function
  | (True | False) as b -> b
  | Cmp (c, a, b) -> Cmp (c, map f a, map f b)
  | Not b -> Not (map_b f b)
  | And (a, b) -> And (map_b f a, map_b f b)
  | Or (a, b) -> Or (map_b f a, map_b f b)

let rec pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Var name -> Format.pp_print_string ppf name
  | Elem (name, e) -> Format.fprintf ppf "%s[%a]" name pp e
  | Clock name -> Format.pp_print_string ppf name
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Min (a, b) -> Format.fprintf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Format.fprintf ppf "max(%a, %a)" pp a pp b

let pp_cmp ppf c =
  Format.pp_print_string ppf
    (match c with
    | Lt -> "<"
    | Le -> "<="
    | Eq -> "=="
    | Ge -> ">="
    | Gt -> ">"
    | Ne -> "!=")

let rec pp_b ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (c, a, b) -> Format.fprintf ppf "%a %a %a" pp a pp_cmp c pp b
  | Not b -> Format.fprintf ppf "!(%a)" pp_b b
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp_b a pp_b b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_b a pp_b b
