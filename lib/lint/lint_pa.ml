(* Static analysis of process-algebra specifications.

   Three layers on top of {!Lint_types}' sort inference:

   - structural lints: duplicate/unknown definitions, call arities, empty
     sum ranges, self-communications, hidden tick (mirrors
     [Proc.Spec.validate] without raising), plus call-graph reachability
     (dead definitions), offered-action analysis (communication halves
     that are never offered, allow-set entries nothing can produce, hide
     names outside the allow set) and a may-tick check (a component that
     can never offer [tick] blocks the global clock forever);

   - interval abstract interpretation over definition parameters: a
     worklist fixpoint flowing call-site argument intervals into callee
     parameters, with guard refinement on conditionals, threshold
     widening (thresholds = the model's integer constants), and a sound
     "unit counter" invariant rule for counters guarded by
     [c == lim] exits where [lim] is itself a parameter (see below);

   - a static state-count upper bound derived from the ranges: per
     component, the sum over call-graph-reachable definitions of the
     number of control positions times the product of in-scope variable
     widths; the product over components bounds the interleaved state
     space.

   The unit-counter rule: if every self-call of a definition either
   passes a parameter pair [(c, e)] through unchanged or increments [c]
   by one inside the else-branch of a condition [c == e], then [c <= e]
   is inductive provided every remaining call site establishes it
   ([hi(c-arg) <= lo(e-arg)] under the computed intervals).  Candidates
   are detected syntactically, assumed during the fixpoint (clamping
   [hi(c)] to [hi(e)]), and verified afterwards; failed candidates are
   dropped and the fixpoint rerun without them. *)

module P = Proc.Pexpr
module T = Proc.Term
module S = Proc.Spec
module I = Lint_interval
module R = Lint_report

module SSet = Set.Make (String)
module SMap = Map.Make (String)

let where_def name = "definition " ^ name
let where_init name = "initial component " ^ name

(* --- model constants (widening thresholds) -------------------------- *)

let rec expr_consts acc (e : P.t) =
  match e with
  | P.Const (Proc.Value.Int n) -> n :: acc
  | P.Const (Proc.Value.Bool _) -> acc
  | P.Const (Proc.Value.List l) ->
      List.fold_left
        (fun acc v ->
          match v with Proc.Value.Int n -> n :: acc | _ -> acc)
        acc l
  | P.Var _ -> acc
  | P.Add (a, b) | P.Sub (a, b) | P.Mul (a, b) | P.Div (a, b)
  | P.Eq (a, b) | P.Lt (a, b) | P.Le (a, b) | P.And (a, b) | P.Or (a, b)
  | P.Nth (a, b) | P.Repl (a, b) ->
      expr_consts (expr_consts acc a) b
  | P.Not a | P.Min_list a | P.Len a -> expr_consts acc a
  | P.If (a, b, c) | P.Set_nth (a, b, c) ->
      expr_consts (expr_consts (expr_consts acc a) b) c

let rec term_consts acc (t : T.t) =
  match t with
  | T.Nil -> acc
  | T.Prefix (a, p) ->
      term_consts (List.fold_left expr_consts acc a.T.act_args) p
  | T.Choice ps -> List.fold_left term_consts acc ps
  | T.Sum (_, lo, hi, p) -> term_consts (lo :: hi :: acc) p
  | T.Cond (c, p, q) -> term_consts (term_consts (expr_consts acc c) p) q
  | T.Call (_, args) -> List.fold_left expr_consts acc args

let thresholds_of (spec : S.t) =
  let acc =
    List.fold_left (fun acc (d : T.def) -> term_consts acc d.T.body) [ 0; 1 ]
      spec.S.defs
  in
  let acc =
    List.fold_left
      (fun acc (_, vs) ->
        List.fold_left
          (fun acc v ->
            match v with Proc.Value.Int n -> n :: acc | _ -> acc)
          acc vs)
      acc spec.S.init
  in
  List.sort_uniq compare acc

(* --- structural lints ----------------------------------------------- *)

let structural (spec : S.t) : R.diag list =
  let diags = ref [] in
  let err ~code ~where fmt =
    Format.kasprintf
      (fun m -> diags := R.diag ~severity:R.Error ~code ~where "%s" m :: !diags)
      fmt
  in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (d : T.def) ->
      if Hashtbl.mem table d.T.def_name then
        err ~code:"PA-DUP-DEF" ~where:(where_def d.T.def_name)
          "definition %s is declared more than once" d.T.def_name
      else Hashtbl.add table d.T.def_name (List.length d.T.params))
    spec.S.defs;
  let check_call where name arity =
    match Hashtbl.find_opt table name with
    | None ->
        err ~code:"PA-UNDEF" ~where "call of unknown definition %s" name
    | Some n ->
        if n <> arity then
          err ~code:"PA-ARITY" ~where "%s expects %d argument(s), got %d" name
            n arity
  in
  List.iter
    (fun (name, args) ->
      check_call (where_init name) name (List.length args))
    spec.S.init;
  let rec check_term where (t : T.t) =
    match t with
    | T.Nil -> ()
    | T.Prefix (_, p) -> check_term where p
    | T.Choice ps -> List.iter (check_term where) ps
    | T.Sum (x, lo, hi, p) ->
        if lo > hi then
          err ~code:"PA-SUM-EMPTY" ~where "sum over %s has empty range [%d..%d]"
            x lo hi;
        check_term where p
    | T.Cond (_, p, q) ->
        check_term where p;
        check_term where q
    | T.Call (name, args) -> check_call where name (List.length args)
  in
  List.iter
    (fun (d : T.def) -> check_term (where_def d.T.def_name) d.T.body)
    spec.S.defs;
  List.iter
    (fun (s, r, c) ->
      if s = r then
        err ~code:"PA-COMM-SELF"
          ~where:(Printf.sprintf "communication %s" c)
          "action %s communicates with itself" s)
    spec.S.comms;
  if List.mem S.tick_name spec.S.hide then
    err ~code:"PA-HIDE-TICK" ~where:"hide set"
      "the global clock action %s cannot be hidden" S.tick_name;
  List.rev !diags

(* --- call graph ------------------------------------------------------ *)

let def_table (spec : S.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : T.def) ->
      if not (Hashtbl.mem tbl d.T.def_name) then
        Hashtbl.add tbl d.T.def_name d)
    spec.S.defs;
  tbl

let rec callees acc (t : T.t) =
  match t with
  | T.Nil -> acc
  | T.Prefix (_, p) -> callees acc p
  | T.Choice ps -> List.fold_left callees acc ps
  | T.Sum (_, _, _, p) -> callees acc p
  | T.Cond (_, p, q) -> callees (callees acc p) q
  | T.Call (name, _) -> SSet.add name acc

let reachable_from defs roots =
  let seen = ref SSet.empty in
  let rec go name =
    if not (SSet.mem name !seen) then begin
      seen := SSet.add name !seen;
      match Hashtbl.find_opt defs name with
      | None -> ()
      | Some (d : T.def) -> SSet.iter go (callees SSet.empty d.T.body)
    end
  in
  List.iter go roots;
  !seen

(* --- offered actions -------------------------------------------------- *)

let rec offered acc (t : T.t) =
  match t with
  | T.Nil | T.Call _ -> acc
  | T.Prefix (a, p) -> offered (SSet.add a.T.act_name acc) p
  | T.Choice ps -> List.fold_left offered acc ps
  | T.Sum (_, _, _, p) | T.Cond (_, p, T.Nil) -> offered acc p
  | T.Cond (_, p, q) -> offered (offered acc p) q

let offered_by defs names =
  SSet.fold
    (fun name acc ->
      match Hashtbl.find_opt defs name with
      | None -> acc
      | Some (d : T.def) -> offered acc d.T.body)
    names SSet.empty

let liveness (spec : S.t) defs : R.diag list =
  let diags = ref [] in
  let warn ~code ~where fmt =
    Format.kasprintf
      (fun m -> diags := R.diag ~severity:R.Warning ~code ~where "%s" m :: !diags)
      fmt
  in
  let roots = List.map fst spec.S.init in
  let reach = reachable_from defs roots in
  List.iter
    (fun (d : T.def) ->
      if not (SSet.mem d.T.def_name reach) then
        warn ~code:"PA-DEAD-DEF" ~where:(where_def d.T.def_name)
          "definition %s is not reachable from any initial component"
          d.T.def_name)
    spec.S.defs;
  let offers = offered_by defs reach in
  let has = Fun.flip SSet.mem offers in
  List.iter
    (fun (s, r, c) ->
      if not (has s) then
        warn ~code:"PA-COMM-DEAD"
          ~where:(Printf.sprintf "communication %s" c)
          "send half %s is never offered by a reachable process" s;
      if not (has r) then
        warn ~code:"PA-COMM-DEAD"
          ~where:(Printf.sprintf "communication %s" c)
          "receive half %s is never offered by a reachable process" r)
    spec.S.comms;
  (* Communication halves never fire on their own (the allow set blocks
     them), so an allow entry is producible either as the result of a
     communication whose halves are both offered, or as a directly
     offered action that is not a communication half. *)
  let halves =
    List.fold_left
      (fun acc (s, r, _) -> SSet.add s (SSet.add r acc))
      SSet.empty spec.S.comms
  in
  let producible a =
    List.exists (fun (s, r, c) -> c = a && has s && has r) spec.S.comms
    || (has a && not (SSet.mem a halves))
  in
  List.iter
    (fun a ->
      if not (producible a) then
        warn ~code:"PA-ALLOW-DEAD"
          ~where:(Printf.sprintf "allow entry %s" a)
          "allowed action %s can never be produced" a)
    spec.S.allow;
  List.iter
    (fun h ->
      if not (List.mem h spec.S.allow) then
        warn ~code:"PA-HIDE-DEAD"
          ~where:(Printf.sprintf "hide entry %s" h)
          "hidden action %s is not in the allow set" h
      else if not (producible h) then
        warn ~code:"PA-HIDE-DEAD"
          ~where:(Printf.sprintf "hide entry %s" h)
          "hidden action %s can never be produced" h)
    spec.S.hide;
  (* A component whose reachable definitions never offer tick blocks the
     globally synchronised clock forever. *)
  let global_ticks = SSet.mem S.tick_name offers in
  if global_ticks then
    List.iter
      (fun (name, _) ->
        let mine = offered_by defs (reachable_from defs [ name ]) in
        if not (SSet.mem S.tick_name mine) then
          warn ~code:"PA-NO-TICK" ~where:(where_init name)
            "component %s can never offer %s; the global clock is blocked \
             once its alternatives run out"
            name S.tick_name)
      spec.S.init;
  List.rev !diags

(* --- interval analysis ----------------------------------------------- *)

type aval = Num of I.t | Lst

let to_num = function Num i -> i | Lst -> I.top

let join_aval a b =
  match (a, b) with
  | Num x, Num y -> Num (I.join x y)
  | Lst, _ | _, Lst -> Lst

let widen_aval ~thresholds ~old cur =
  match (old, cur) with
  | Num o, Num c -> Num (I.widen ~thresholds ~old:o c)
  | _ -> Lst

let equal_aval a b =
  match (a, b) with
  | Num x, Num y -> I.equal x y
  | Lst, Lst -> true
  | _ -> false

let aval_of_value = function
  | Proc.Value.Int n -> Num (I.const n)
  | Proc.Value.Bool b -> Num (I.of_bool b)
  | Proc.Value.List _ -> Lst

type env = aval SMap.t

let lookup env x =
  match SMap.find_opt x env with Some v -> v | None -> Num I.top

let rec eval (env : env) (e : P.t) : aval =
  let num e = to_num (eval env e) in
  match e with
  | P.Const v -> aval_of_value v
  | P.Var x -> lookup env x
  | P.Add (a, b) -> Num (I.add (num a) (num b))
  | P.Sub (a, b) -> Num (I.sub (num a) (num b))
  | P.Mul (a, b) -> Num (I.mul (num a) (num b))
  | P.Div (a, b) -> Num (I.div (num a) (num b))
  | P.Eq _ | P.Lt _ | P.Le _ | P.And _ | P.Or _ | P.Not _ -> (
      match bool_eval env e with
      | Some b -> Num (I.of_bool b)
      | None -> Num I.bool_top)
  | P.If (c, a, b) -> (
      match bool_eval env c with
      | Some true -> eval_refined env c true a
      | Some false -> eval_refined env c false b
      | None -> (
          let va = Option.map (fun env -> eval env a) (refine env c true) in
          let vb = Option.map (fun env -> eval env b) (refine env c false) in
          match (va, vb) with
          | Some x, Some y -> join_aval x y
          | Some x, None | None, Some x -> x
          | None, None -> Num I.top))
  | P.Nth _ | P.Min_list _ -> Num I.top
  | P.Len _ -> Num (I.of_bounds 0 I.pos_inf)
  | P.Set_nth _ | P.Repl _ -> Lst

and eval_refined env c truth e =
  match refine env c truth with
  | Some env' -> eval env' e
  | None -> eval env e

and bool_eval (env : env) (e : P.t) : bool option =
  match e with
  | P.Const (Proc.Value.Bool b) -> Some b
  | P.Var _ -> (
      match eval env e with
      | Num i ->
          if I.equal i (I.of_bool true) then Some true
          else if I.equal i (I.of_bool false) then Some false
          else None
      | Lst -> None)
  | P.Eq (a, b) -> cmp_eval env I.Eq a b
  | P.Lt (a, b) -> cmp_eval env I.Lt a b
  | P.Le (a, b) -> cmp_eval env I.Le a b
  | P.And (a, b) -> (
      match (bool_eval env a, bool_eval env b) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | P.Or (a, b) -> (
      match (bool_eval env a, bool_eval env b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | P.Not a -> Option.map not (bool_eval env a)
  | P.If (c, a, b) -> (
      match bool_eval env c with
      | Some true -> bool_eval env a
      | Some false -> bool_eval env b
      | None -> (
          match (bool_eval env a, bool_eval env b) with
          | Some x, Some y when x = y -> Some x
          | _ -> None))
  | _ -> None

and cmp_eval env cmp a b =
  match (eval env a, eval env b) with
  | Num ia, Num ib -> I.sat cmp ia ib
  | _ -> None

(* [refine env c truth] narrows variable intervals assuming the condition
   [c] has truth value [truth]; [None] means the assumption is
   contradictory (the branch is unreachable). *)
and refine (env : env) (c : P.t) (truth : bool) : env option =
  let refine_cmp cmp a b =
    match (eval env a, eval env b) with
    | Num ia, Num ib -> (
        let cmp = if truth then cmp else I.negate_cmp cmp in
        match I.refine cmp ia ib with
        | None -> None
        | Some (ia', ib') ->
            let set e v env =
              match e with P.Var x -> SMap.add x (Num v) env | _ -> env
            in
            Some (set a ia' (set b ib' env)))
    | _ -> Some env
  in
  match c with
  | P.Const (Proc.Value.Bool b) -> if b = truth then Some env else None
  | P.Var x -> (
      match lookup env x with
      | Num i -> (
          match I.meet i (I.of_bool truth) with
          | None -> None
          | Some i' -> Some (SMap.add x (Num i') env))
      | Lst -> Some env)
  | P.Eq (a, b) -> refine_cmp I.Eq a b
  | P.Lt (a, b) -> refine_cmp I.Lt a b
  | P.Le (a, b) -> refine_cmp I.Le a b
  | P.And (a, b) when truth ->
      Option.bind (refine env a true) (fun env -> refine env b true)
  | P.Or (a, b) when not truth ->
      Option.bind (refine env a false) (fun env -> refine env b false)
  | P.Not a -> refine env a (not truth)
  | _ -> Some env

(* --- unit-counter candidates ------------------------------------------ *)

type candidate = { cand_def : string; ic : int; ie : int }

let index_of x params =
  let rec go k = function
    | [] -> None
    | p :: _ when p = x -> Some k
    | _ :: rest -> go (k + 1) rest
  in
  go 0 params

let is_increment_of c (e : P.t) =
  match e with
  | P.Add (P.Var x, P.Const (Proc.Value.Int 1))
  | P.Add (P.Const (Proc.Value.Int 1), P.Var x) ->
      x = c
  | _ -> false

(* Does [t] contain a self-call of [d] incrementing [c] and passing [e]
   through?  (No deeper [Cond] may rebind anything — params can't be
   rebound, only [Sum] shadows, which disqualifies.) *)
let rec has_increment_call dname c e shadowed (t : T.t) =
  match t with
  | T.Nil -> false
  | T.Prefix (_, p) -> has_increment_call dname c e shadowed p
  | T.Choice ps -> List.exists (has_increment_call dname c e shadowed) ps
  | T.Sum (x, _, _, p) ->
      has_increment_call dname c e (SSet.add x shadowed) p
  | T.Cond (_, p, q) ->
      has_increment_call dname c e shadowed p
      || has_increment_call dname c e shadowed q
  | T.Call (name, args) ->
      name = dname
      && (not (SSet.mem c shadowed))
      && (not (SSet.mem e shadowed))
      && List.exists (is_increment_of c) args

let candidates_of (d : T.def) : candidate list =
  let try_pair c e =
    match (index_of c d.T.params, index_of e d.T.params) with
    | Some ic, Some ie when ic <> ie ->
        let rec scan (t : T.t) =
          match t with
          | T.Nil | T.Call _ -> false
          | T.Prefix (_, p) -> scan p
          | T.Choice ps -> List.exists scan ps
          | T.Sum (_, _, _, p) -> scan p
          | T.Cond (P.Eq (P.Var a, P.Var b), p, q)
            when (a = c && b = e) || (a = e && b = c) ->
              has_increment_call d.T.def_name c e SSet.empty q || scan p
          | T.Cond (_, p, q) -> scan p || scan q
        in
        if scan d.T.body then Some { cand_def = d.T.def_name; ic; ie }
        else None
    | _ -> None
  in
  List.concat_map
    (fun c ->
      List.filter_map
        (fun e -> if c = e then None else try_pair c e)
        d.T.params)
    d.T.params

(* --- the fixpoint ----------------------------------------------------- *)

(* Plain joins for the first few updates of a definition, threshold
   widening afterwards: precise on shallow chains, terminating on
   counters. *)
let widen_delay = 3

type fix_state = {
  mutable params : aval array SMap.t;  (* absent = unreached *)
  mutable updates : int SMap.t;
}

let clamp_for candidates dname (avals : aval array) =
  List.iter
    (fun cand ->
      if cand.cand_def = dname then
        match (avals.(cand.ic), avals.(cand.ie)) with
        | Num c, Num e ->
            let c' = { c with I.hi = min c.I.hi e.I.hi } in
            if c'.I.lo <= c'.I.hi then avals.(cand.ic) <- Num c'
        | _ -> ())
    candidates

(* Walk a definition body under [env], invoking [on_call] at every call
   site with the callee, evaluated arguments, and whether the site is an
   exempt unit-counter increment (inside the else of its [c == e]).
   [exempt] maps def name -> (c, e) pairs currently justified. *)
let walk_body defs candidates ~on_call (d : T.def) (env0 : env) =
  let my_cands =
    List.filter_map
      (fun cand ->
        if cand.cand_def = d.T.def_name then
          Some
            ( List.nth d.T.params cand.ic,
              List.nth d.T.params cand.ie,
              cand )
        else None)
      candidates
  in
  let rec walk env active (t : T.t) =
    match t with
    | T.Nil -> ()
    | T.Prefix (a, p) ->
        List.iter (fun e -> ignore (eval env e)) a.T.act_args;
        walk env active p
    | T.Choice ps -> List.iter (walk env active) ps
    | T.Sum (x, lo, hi, p) ->
        if lo <= hi then
          let active =
            List.filter (fun (c, e, _) -> c <> x && e <> x) active
          in
          walk (SMap.add x (Num (I.of_bounds lo hi)) env) active p
    | T.Cond (c, p, q) ->
        (match refine env c true with
        | Some env' -> walk env' active p
        | None -> ());
        (match refine env c false with
        | Some env' ->
            let active' =
              match c with
              | P.Eq (P.Var a, P.Var b) ->
                  List.fold_left
                    (fun acc (cn, en, cand) ->
                      if (a = cn && b = en) || (a = en && b = cn) then
                        (cn, en, cand) :: acc
                      else acc)
                    active my_cands
              | _ -> active
            in
            walk env' active' q
        | None -> ())
    | T.Call (name, args) ->
        if Hashtbl.mem defs name then begin
          let avals = List.map (eval env) args in
          let exempt =
            name = d.T.def_name
            && List.exists
                 (fun (cn, en, cand) ->
                   (match List.nth_opt args cand.ic with
                   | Some a -> is_increment_of cn a
                   | None -> false)
                   && match List.nth_opt args cand.ie with
                      | Some (P.Var y) -> y = en
                      | _ -> false)
                 active
          in
          let identity =
            name = d.T.def_name
            && List.length args = List.length d.T.params
            && List.for_all2
                 (fun p a -> match a with P.Var x -> x = p | _ -> false)
                 d.T.params args
          in
          on_call ~callee:name ~avals ~exempt ~identity
        end
  in
  walk env0 [] d.T.body

let fixpoint (spec : S.t) defs candidates thresholds : aval array SMap.t =
  let st = { params = SMap.empty; updates = SMap.empty } in
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue name =
    if not (Hashtbl.mem queued name) then begin
      Hashtbl.add queued name ();
      Queue.add name queue
    end
  in
  let flow name (avals : aval list) =
    match Hashtbl.find_opt defs name with
    | None -> ()
    | Some (d : T.def) ->
        let arity = List.length d.T.params in
        let incoming = Array.make arity (Num I.top) in
        List.iteri (fun k v -> if k < arity then incoming.(k) <- v) avals;
        (* Arity mismatches are structural errors; missing positions
           default to top so the analysis stays sound. *)
        if List.length avals < arity then
          for k = List.length avals to arity - 1 do
            incoming.(k) <- Num I.top
          done;
        clamp_for candidates name incoming;
        (match SMap.find_opt name st.params with
        | None ->
            st.params <- SMap.add name incoming st.params;
            enqueue name
        | Some cur ->
            let n = match SMap.find_opt name st.updates with
              | Some n -> n
              | None -> 0
            in
            let joined = Array.map2 join_aval cur incoming in
            let next =
              if n < widen_delay then joined
              else
                Array.map2
                  (fun old j -> widen_aval ~thresholds ~old j)
                  cur joined
            in
            clamp_for candidates name next;
            if not (Array.for_all2 equal_aval cur next) then begin
              st.params <- SMap.add name next st.params;
              st.updates <- SMap.add name (n + 1) st.updates;
              enqueue name
            end)
  in
  List.iter
    (fun (name, values) -> flow name (List.map aval_of_value values))
    spec.S.init;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    Hashtbl.remove queued name;
    match (Hashtbl.find_opt defs name, SMap.find_opt name st.params) with
    | Some d, Some avals ->
        let env0 =
          List.fold_left
            (fun (env, k) p -> (SMap.add p avals.(k) env, k + 1))
            (SMap.empty, 0) d.T.params
          |> fst
        in
        walk_body defs candidates d env0
          ~on_call:(fun ~callee ~avals ~exempt:_ ~identity:_ ->
            flow callee avals)
    | _ -> ()
  done;
  st.params

(* Post-fixpoint check of the unit-counter invariants: every call site
   that is neither an exempt increment nor a parameter-identity self-call
   must establish [hi(c-arg) <= lo(e-arg)]. *)
let verify_candidates (spec : S.t) defs candidates thresholds state =
  let ok = Hashtbl.create 4 in
  List.iter (fun c -> Hashtbl.replace ok c true) candidates;
  let check_site callee (avals : aval list) ~exempt ~identity =
    List.iter
      (fun cand ->
        if cand.cand_def = callee && not (exempt || identity) then
          let get k =
            match List.nth_opt avals k with
            | Some v -> to_num v
            | None -> I.top
          in
          let c = get cand.ic and e = get cand.ie in
          if c.I.hi > e.I.lo then Hashtbl.replace ok cand false)
      candidates
  in
  List.iter
    (fun (name, values) ->
      check_site name
        (List.map aval_of_value values)
        ~exempt:false ~identity:false)
    spec.S.init;
  SMap.iter
    (fun name avals ->
      match Hashtbl.find_opt defs name with
      | None -> ()
      | Some (d : T.def) ->
          let env0 =
            List.fold_left
              (fun (env, k) p -> (SMap.add p avals.(k) env, k + 1))
              (SMap.empty, 0) d.T.params
            |> fst
          in
          walk_body defs candidates d env0
            ~on_call:(fun ~callee ~avals ~exempt ~identity ->
              check_site callee avals ~exempt ~identity))
    state;
  ignore thresholds;
  List.filter (fun c -> Hashtbl.find ok c) candidates

let analyze_intervals (spec : S.t) defs thresholds =
  let all_candidates =
    List.concat_map
      (fun (d : T.def) ->
        if Hashtbl.mem defs d.T.def_name then candidates_of d else [])
      spec.S.defs
  in
  let rec stable candidates =
    let state = fixpoint spec defs candidates thresholds in
    let kept = verify_candidates spec defs candidates thresholds state in
    if List.length kept = List.length candidates then (state, candidates)
    else stable kept
  in
  stable all_candidates

(* --- state bound ------------------------------------------------------ *)

(* Control positions of a definition body: the entry point plus every
   prefix continuation that is not a call (calls normalise away to the
   callee's entry).  A position's environment is the definition's
   parameters plus the sum variables in scope, so each position
   contributes the product of their widths. *)
let def_card (d : T.def) (avals : aval array) : I.card =
  let param_product =
    Array.fold_left
      (fun acc v -> I.card_mul acc (I.width (to_num v)))
      (I.Finite 1) avals
  in
  let rec positions mult (t : T.t) : I.card =
    match t with
    | T.Nil | T.Call _ -> I.Finite 0
    | T.Prefix (_, p) ->
        let rest = positions mult p in
        let here =
          match p with T.Call _ -> I.Finite 0 | _ -> mult
        in
        I.card_add here rest
    | T.Choice ps ->
        List.fold_left
          (fun acc p -> I.card_add acc (positions mult p))
          (I.Finite 0) ps
    | T.Sum (_, lo, hi, p) ->
        if lo > hi then I.Finite 0
        else positions (I.card_mul mult (I.Finite (hi - lo + 1))) p
    | T.Cond (_, p, q) -> I.card_add (positions mult p) (positions mult q)
  in
  I.card_mul param_product
    (I.card_add (I.Finite 1) (positions (I.Finite 1) d.T.body))

let state_bound (spec : S.t) defs state : I.card =
  List.fold_left
    (fun acc (name, _) ->
      let reach = reachable_from defs [ name ] in
      let component =
        SSet.fold
          (fun dname acc ->
            match
              (Hashtbl.find_opt defs dname, SMap.find_opt dname state)
            with
            | Some d, Some avals -> I.card_add acc (def_card d avals)
            | Some _, None -> acc (* abstractly unreachable *)
            | None, _ -> acc)
          reach (I.Finite 0)
      in
      I.card_mul acc component)
    (I.Finite 1) spec.S.init

(* --- entry points ----------------------------------------------------- *)

(* Range analysis + state bound only, without paying for diagnostics. *)
let static_bound (spec : S.t) : I.card =
  let defs = def_table spec in
  let thresholds = thresholds_of spec in
  let state, _ = analyze_intervals spec defs thresholds in
  state_bound spec defs state

(* Sweeps that want the bound per table cell build the same spec for
   all three requirements of the cell (and often for several cells):
   memoised on the spec term. *)
let bound_memo : (S.t, I.card) Lint_memo.t = Lint_memo.create ()
let static_bound_cached spec = Lint_memo.find bound_memo spec static_bound
let cache_stats () = Lint_memo.stats bound_memo

(* The final parameter intervals alone (no diagnostics, no bound): what
   the slicer's constant-propagation pass consumes. *)
let intervals_of (spec : S.t) : aval array SMap.t =
  let defs = def_table spec in
  let state, _ = analyze_intervals spec defs (thresholds_of spec) in
  state

let analyze ~model (spec : S.t) : R.t =
  let _sigs, type_diags = Lint_types.check spec in
  let structural_diags = structural spec in
  let defs = def_table spec in
  let live_diags = liveness spec defs in
  let thresholds = thresholds_of spec in
  let state, _candidates = analyze_intervals spec defs thresholds in
  let ranges =
    SMap.fold
      (fun name avals acc ->
        match Hashtbl.find_opt defs name with
        | None -> acc
        | Some (d : T.def) ->
            List.fold_left
              (fun (acc, k) p ->
                let acc =
                  match avals.(k) with
                  | Num i -> ((name ^ "." ^ p, i) :: acc, k + 1) |> fst
                  | Lst -> acc
                in
                (acc, k + 1))
              (acc, 0) d.T.params
            |> fst)
      state []
  in
  let bound = state_bound spec defs state in
  R.make ~model
    ~diags:(type_diags @ structural_diags @ live_diags)
    ~stats:{ R.ranges; state_bound = bound }
