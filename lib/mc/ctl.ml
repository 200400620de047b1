type 'l t =
  | True
  | False
  | Atom of string * (int -> bool)
  | Can of string * ('l -> bool)
  | Not of 'l t
  | And of 'l t * 'l t
  | Or of 'l t * 'l t
  | EX of 'l t
  | EF of 'l t
  | EG of 'l t
  | AX of 'l t
  | AF of 'l t
  | AG of 'l t
  | EU of 'l t * 'l t
  | AU of 'l t * 'l t

let atom name pred = Atom (name, pred)
let can name pred = Can (name, pred)
let implies a b = Or (Not a, b)

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Atom (name, _) | Can (name, _) -> Format.pp_print_string ppf name
  | Not f -> Format.fprintf ppf "!(%a)" pp f
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | EX f -> Format.fprintf ppf "EX (%a)" pp f
  | EF f -> Format.fprintf ppf "EF (%a)" pp f
  | EG f -> Format.fprintf ppf "EG (%a)" pp f
  | AX f -> Format.fprintf ppf "AX (%a)" pp f
  | AF f -> Format.fprintf ppf "AF (%a)" pp f
  | AG f -> Format.fprintf ppf "AG (%a)" pp f
  | EU (a, b) -> Format.fprintf ppf "E[%a U %a]" pp a pp b
  | AU (a, b) -> Format.fprintf ppf "A[%a U %a]" pp a pp b

let eval g formula =
  let n = Lts.Graph.num_states g in
  (* Reverse-edge table, shared across the recursive evaluation. *)
  let pred = lazy (Lts.Graph.predecessors g) in
  (* EX over a set: states with some successor in the set. *)
  let ex set =
    let out = Array.make n false in
    for s = 0 to n - 1 do
      if
        (not out.(s))
        && List.exists (fun (_, s') -> set.(s')) (Lts.Graph.successors g s)
      then out.(s) <- true
    done;
    out
  in
  (* least fixpoint of  b ∨ (a ∧ EX ·)  — E[a U b], backward worklist. *)
  let eu a b =
    let sat = Array.copy b in
    let queue = Queue.create () in
    Array.iteri (fun s v -> if v then Queue.add s queue) b;
    while not (Queue.is_empty queue) do
      let s' = Queue.pop queue in
      List.iter
        (fun s ->
          if (not sat.(s)) && a.(s) then begin
            sat.(s) <- true;
            Queue.add s queue
          end)
        (Lazy.force pred).(s')
    done;
    sat
  in
  (* greatest fixpoint of  a ∧ EX ·  — EG a, by pruning states that lose
     all successors inside the candidate set. *)
  let eg a =
    let sat = Array.copy a in
    (* successors-in-set counters *)
    let count = Array.make n 0 in
    Lts.Graph.fold_transitions
      (fun s _ s' () -> if sat.(s') then count.(s) <- count.(s) + 1)
      g ();
    let queue = Queue.create () in
    for s = 0 to n - 1 do
      if sat.(s) && count.(s) = 0 then Queue.add s queue
    done;
    while not (Queue.is_empty queue) do
      let s' = Queue.pop queue in
      if sat.(s') then begin
        sat.(s') <- false;
        List.iter
          (fun s ->
            if sat.(s) then begin
              count.(s) <- count.(s) - 1;
              if count.(s) = 0 then Queue.add s queue
            end)
          (Lazy.force pred).(s')
      end
    done;
    sat
  in
  let const v = Array.make n v in
  let lift2 f a b = Array.init n (fun s -> f a.(s) b.(s)) in
  let neg a = Array.map not a in
  let rec go = function
    | True -> const true
    | False -> const false
    | Atom (_, p) -> Array.init n p
    | Can (_, p) ->
        Array.init n (fun s ->
            List.exists (fun (l, _) -> p l) (Lts.Graph.successors g s))
    | Not f -> neg (go f)
    | And (a, b) -> lift2 ( && ) (go a) (go b)
    | Or (a, b) -> lift2 ( || ) (go a) (go b)
    | EX f -> ex (go f)
    | AX f ->
        (* all successors satisfy f; vacuously true in deadlocks *)
        let sat = go f in
        Array.init n (fun s ->
            List.for_all (fun (_, s') -> sat.(s')) (Lts.Graph.successors g s))
    | EF f -> eu (const true) (go f)
    | EU (a, b) -> eu (go a) (go b)
    | EG f -> eg (go f)
    | AF f -> neg (eg (neg (go f)))
    | AG f -> neg (eu (const true) (neg (go f)))
    | AU (a, b) ->
        (* A[a U b] = ¬(E[¬b U ¬a∧¬b] ∨ EG ¬b) *)
        let na = neg (go a) and nb = neg (go b) in
        neg (lift2 ( || ) (eu nb (lift2 ( && ) na nb)) (eg nb))
  in
  go formula

let holds g formula = (eval g formula).(Lts.Graph.initial g)
