type 'l t =
  | True
  | False
  | Lbl of string * ('l -> bool)
  | Enabled of string * ('l -> bool)
  | Not of 'l t
  | And of 'l t * 'l t
  | Or of 'l t * 'l t
  | Next of 'l t
  | Until of 'l t * 'l t
  | Release of 'l t * 'l t

let lbl name pred = Lbl (name, pred)
let enabled name pred = Enabled (name, pred)

let conj = function
  | [] -> True
  | f :: fs -> List.fold_left (fun a b -> And (a, b)) f fs

let disj = function
  | [] -> False
  | f :: fs -> List.fold_left (fun a b -> Or (a, b)) f fs

let implies a b = Or (Not a, b)
let finally f = Until (True, f)
let globally f = Release (False, f)
let infinitely_often f = globally (finally f)

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Lbl (name, _) -> Format.pp_print_string ppf name
  | Enabled (name, _) -> Format.fprintf ppf "enabled(%s)" name
  | Not f -> Format.fprintf ppf "!(%a)" pp f
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | Next f -> Format.fprintf ppf "X (%a)" pp f
  | Until (True, f) -> Format.fprintf ppf "F (%a)" pp f
  | Until (a, b) -> Format.fprintf ppf "(%a U %a)" pp a pp b
  | Release (False, f) -> Format.fprintf ppf "G (%a)" pp f
  | Release (a, b) -> Format.fprintf ppf "(%a R %a)" pp a pp b

let rec nnf = function
  | (True | False | Lbl _ | Enabled _) as f -> f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Next f -> Next (nnf f)
  | Until (a, b) -> Until (nnf a, nnf b)
  | Release (a, b) -> Release (nnf a, nnf b)
  | Not f -> (
      match f with
      | True -> False
      | False -> True
      | Lbl _ | Enabled _ -> Not (nnf f)
      | Not g -> nnf g
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b))
      | Next g -> Next (nnf (Not g))
      | Until (a, b) -> Release (nnf (Not a), nnf (Not b))
      | Release (a, b) -> Until (nnf (Not a), nnf (Not b)))

(* --- stutter invariance ------------------------------------------------ *)

(* Syntactic under-approximation of invariance under insertion/deletion
   of "invisible" letters — letters whose name is outside the formula's
   alphabet, which (by the Lbl contract, see the .mli) falsify every
   atom and so all behave as the one stutter letter.  Per NNF subformula:

   - [ltr]: truth depends only on the first letter (True, False, Lbl,
     negated Lbl, and their And/Or combinations);
   - [at_stutter]: for an [ltr] formula, its truth on a stutter letter;
   - [inv]: invariant under stutter insertion/deletion.

   The interesting rules: [g U f] is invariant when g is
   letter-determined and true at stutter letters (inserted positions
   neither block the prefix condition nor add witnesses) and f is
   either invariant or letter-determined-and-false-at-stutter (witness
   positions correspond 1-1 to original positions); [g R f] dually
   needs g false at stutter (inserted positions cannot release) and f
   invariant or true at stutter (inserted positions cannot violate).
   [Next] kills invariance; [Enabled] atoms are state predicates, not
   letter predicates, so they kill it too. *)

type stutter = { ltr : bool; at_stutter : bool; inv : bool }

let stutter_invariant f =
  let none = { ltr = false; at_stutter = false; inv = false } in
  let rec go = function
    | True -> { ltr = true; at_stutter = true; inv = true }
    | False -> { ltr = true; at_stutter = false; inv = true }
    | Lbl _ -> { ltr = true; at_stutter = false; inv = false }
    | Not (Lbl _) -> { ltr = true; at_stutter = true; inv = false }
    | Enabled _ | Not _ -> none
    | And (a, b) ->
        let ca = go a and cb = go b in
        {
          ltr = ca.ltr && cb.ltr;
          at_stutter = ca.at_stutter && cb.at_stutter;
          inv = ca.inv && cb.inv;
        }
    | Or (a, b) ->
        let ca = go a and cb = go b in
        {
          ltr = ca.ltr && cb.ltr;
          at_stutter = ca.at_stutter || cb.at_stutter;
          inv = ca.inv && cb.inv;
        }
    | Next _ -> none
    | Until (g, f) ->
        let cg = go g and cf = go f in
        let inv =
          cg.ltr && cg.at_stutter && (cf.inv || (cf.ltr && not cf.at_stutter))
        in
        { none with inv }
    | Release (g, f) ->
        let cg = go g and cf = go f in
        let inv =
          cg.ltr && (not cg.at_stutter) && (cf.inv || (cf.ltr && cf.at_stutter))
        in
        { none with inv }
  in
  (go (nnf f)).inv

let alphabet f =
  let exception Has_enabled in
  let rec collect acc = function
    | True | False -> acc
    | Lbl (name, _) -> name :: acc
    | Enabled _ -> raise Has_enabled
    | Not g | Next g -> collect acc g
    | And (a, b) | Or (a, b) | Until (a, b) | Release (a, b) ->
        collect (collect acc a) b
  in
  match collect [] f with
  | names -> Some (List.sort_uniq String.compare names)
  | exception Has_enabled -> None
