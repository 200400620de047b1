(* Interval domain for the static analyses.

   Closed integer intervals [lo, hi] with [min_int]/[max_int] as minus
   and plus infinity.  All arithmetic saturates at the sentinels, so the
   domain is safe for the usual abstract-interpretation transfer
   functions; widening is threshold-based (the thresholds are the integer
   constants of the analysed model), which keeps loop counters guarded by
   [c < k] / [c = k] exits finite instead of blowing straight to
   infinity. *)

type t = { lo : int; hi : int }

let neg_inf = min_int
let pos_inf = max_int
let top = { lo = neg_inf; hi = pos_inf }
let const n = { lo = n; hi = n }
let of_bounds lo hi = { lo; hi }
let bool_top = { lo = 0; hi = 1 }
let of_bool b = const (if b then 1 else 0)
let is_singleton i = i.lo = i.hi
let contains i n = i.lo <= n && n <= i.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

(* --- saturating bound arithmetic --- *)

let is_inf x = x = neg_inf || x = pos_inf

let badd a b =
  if a = neg_inf || b = neg_inf then neg_inf
  else if a = pos_inf || b = pos_inf then pos_inf
  else
    let s = a + b in
    if a > 0 && b > 0 && s < 0 then pos_inf
    else if a < 0 && b < 0 && s >= 0 then neg_inf
    else s

let bneg x = if x = neg_inf then pos_inf else if x = pos_inf then neg_inf else -x
let bsub a b = badd a (bneg b)

let bmul a b =
  if a = 0 || b = 0 then 0
  else
    let sign = (if a < 0 then -1 else 1) * (if b < 0 then -1 else 1) in
    if is_inf a || is_inf b then if sign > 0 then pos_inf else neg_inf
    else if abs a > max_int / abs b then if sign > 0 then pos_inf else neg_inf
    else a * b

(* OCaml integer division (truncation toward zero) on bounds; the
   divisor is known to be finite and nonzero when this is called. *)
let bdiv a b = if is_inf a then if (a > 0) = (b > 0) then pos_inf else neg_inf else a / b

(* --- lattice --- *)

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

(* Threshold widening: a bound that grew jumps to the nearest threshold
   beyond it (or to infinity when none is left).  [thresholds] must be
   sorted ascending. *)
let widen ~thresholds ~old cur =
  let lo =
    if cur.lo >= old.lo then old.lo
    else
      List.fold_left
        (fun acc th -> if th <= cur.lo && th > acc then th else acc)
        neg_inf thresholds
  in
  let hi =
    if cur.hi <= old.hi then old.hi
    else
      List.fold_right
        (fun th acc -> if th >= cur.hi && th < acc then th else acc)
        thresholds pos_inf
  in
  { lo; hi }

(* --- arithmetic transfer functions --- *)

let add a b = { lo = badd a.lo b.lo; hi = badd a.hi b.hi }
let sub a b = { lo = bsub a.lo b.hi; hi = bsub a.hi b.lo }
let neg a = { lo = bneg a.hi; hi = bneg a.lo }

let spread l =
  List.fold_left
    (fun acc x -> { lo = min acc.lo x; hi = max acc.hi x })
    { lo = pos_inf; hi = neg_inf } l

let mul a b =
  spread [ bmul a.lo b.lo; bmul a.lo b.hi; bmul a.hi b.lo; bmul a.hi b.hi ]

let div a b =
  if b.lo <= 0 && b.hi >= 0 then top (* divisor may be zero: give up *)
  else spread [ bdiv a.lo b.lo; bdiv a.lo b.hi; bdiv a.hi b.lo; bdiv a.hi b.hi ]

let min_ a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let max_ a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

(* --- three-valued comparison --- *)

type cmp = Lt | Le | Eq | Ge | Gt | Ne

(* [sat c a b] is [Some true] when [a c b] holds for every pair of
   values, [Some false] when it holds for none, [None] otherwise. *)
let rec sat cmp a b =
  match cmp with
  | Lt ->
      if a.hi < b.lo then Some true
      else if a.lo >= b.hi then Some false
      else None
  | Le ->
      if a.hi <= b.lo then Some true
      else if a.lo > b.hi then Some false
      else None
  | Eq ->
      if is_singleton a && is_singleton b && a.lo = b.lo then Some true
      else if a.hi < b.lo || b.hi < a.lo then Some false
      else None
  | Ne -> Option.map not (sat Eq a b)
  | Ge -> sat Le b a
  | Gt -> sat Lt b a

let negate_cmp = function
  | Lt -> Ge
  | Le -> Gt
  | Eq -> Ne
  | Ne -> Eq
  | Ge -> Lt
  | Gt -> Le

(* [refine c a b] assumes [a c b] holds and returns the narrowed pair,
   or [None] when the assumption is contradictory. *)
let rec refine cmp a b =
  match cmp with
  | Le ->
      let a' = { a with hi = min a.hi b.hi }
      and b' = { b with lo = max b.lo a.lo } in
      if a'.lo > a'.hi || b'.lo > b'.hi then None else Some (a', b')
  | Lt ->
      let a' = { a with hi = min a.hi (bsub b.hi 1) }
      and b' = { b with lo = max b.lo (badd a.lo 1) } in
      if a'.lo > a'.hi || b'.lo > b'.hi then None else Some (a', b')
  | Eq -> (
      match meet a b with None -> None | Some m -> Some (m, m))
  | Ne ->
      (* Only endpoint clipping against a singleton is exact. *)
      let clip x k =
        if not (contains x k) then Some x
        else if is_singleton x then None
        else if x.lo = k then Some { x with lo = k + 1 }
        else if x.hi = k then Some { x with hi = k - 1 }
        else Some x
      in
      let a' = if is_singleton b then clip a b.lo else Some a in
      let b' = if is_singleton a then clip b a.lo else Some b in
      Option.bind a' (fun a' -> Option.map (fun b' -> (a', b')) b')
  | Ge -> Option.map (fun (b', a') -> (a', b')) (refine Le b a)
  | Gt -> Option.map (fun (b', a') -> (a', b')) (refine Lt b a)

(* --- cardinalities --- *)

type card = Finite of int | Unbounded

(* Cardinalities saturate to [Unbounded] beyond 10^18: no explicit
   state space comes near that, and staying clear of [max_int] keeps
   the JSON report platform-independent. *)
let card_cap = 1_000_000_000_000_000_000

let width i =
  if is_inf i.lo || is_inf i.hi then Unbounded
  else
    let w = i.hi - i.lo + 1 in
    if w < 0 || w > card_cap then Unbounded else Finite w

let card_mul a b =
  match (a, b) with
  | Finite 0, _ | _, Finite 0 -> Finite 0
  | Unbounded, _ | _, Unbounded -> Unbounded
  | Finite x, Finite y -> if x > card_cap / y then Unbounded else Finite (x * y)

let card_add a b =
  match (a, b) with
  | Unbounded, _ | _, Unbounded -> Unbounded
  | Finite x, Finite y ->
      let s = x + y in
      if s < 0 || s > card_cap then Unbounded else Finite s

let card_pow a n =
  let rec go acc n = if n <= 0 then acc else go (card_mul acc a) (n - 1) in
  go (Finite 1) n

let pp_card ppf = function
  | Finite n -> Format.pp_print_int ppf n
  | Unbounded -> Format.pp_print_string ppf "unbounded"

let pp ppf i =
  let b ppf x =
    if x = neg_inf then Format.pp_print_string ppf "-inf"
    else if x = pos_inf then Format.pp_print_string ppf "+inf"
    else Format.pp_print_int ppf x
  in
  Format.fprintf ppf "[%a, %a]" b i.lo b i.hi
