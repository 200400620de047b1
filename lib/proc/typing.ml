(* Unification-based sort inference over specifications.

   Three ground sorts (Int, Bool, List(Int)) and a standard union-find
   over type variables.  Every definition parameter and every action
   argument position owns one variable; walking the bodies adds equality
   constraints.  Conflicts are recorded (with the first binding kept)
   instead of raised, so the pass always produces a total signature
   table, plus the deterministic list of everything that went wrong. *)

type sort = Int | Bool | Int_list

let sort_name = function
  | Int -> "Int"
  | Bool -> "Bool"
  | Int_list -> "List(Int)"

type ty = ty_desc ref
and ty_desc = Known of sort | Link of ty | Free of int

type signatures = {
  def_params : (string * sort option array) list;
  actions : (string * sort option array) list;
}

type error_kind = Sort_clash | Arity_conflict | Unbound_var

type error = {
  err_kind : error_kind;
  err_context : string;
  err_message : string;
}

(* --- the unifier ---------------------------------------------------- *)

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    ref (Free !n)

let rec repr (t : ty) =
  match !t with
  | Link u ->
      let r = repr u in
      t := Link r;
      r
  | Known _ | Free _ -> t

(* [unify] returns [Some (s1, s2)] on a clash, leaving the first binding
   in place. *)
let unify a b =
  let a = repr a and b = repr b in
  if a == b then None
  else
    match (!a, !b) with
    | Known s1, Known s2 -> if s1 = s2 then None else Some (s1, s2)
    | Free _, _ ->
        a := Link b;
        None
    | _, Free _ ->
        b := Link a;
        None
    | Link _, _ | _, Link _ -> assert false (* reprs are not links *)

let known s : ty = ref (Known s)

let resolve t =
  match !(repr t) with
  | Known s -> Some s
  | Free _ -> None
  | Link _ -> assert false

let dominant = function Some s -> s | None -> Int

(* --- inference ------------------------------------------------------ *)

let sort_of_value = function
  | Value.Bool _ -> Bool
  | Value.Int _ -> Int
  | Value.List _ -> Int_list

type state = {
  defs : (string, ty array) Hashtbl.t;
  acts : (string, ty array) Hashtbl.t;
  mutable errors : error list;  (* reversed *)
}

let report st kind context fmt =
  Format.kasprintf
    (fun msg ->
      st.errors <-
        { err_kind = kind; err_context = context; err_message = msg }
        :: st.errors)
    fmt

let constrain st context what t sort =
  match unify t (known sort) with
  | None -> ()
  | Some (s1, s2) ->
      report st Sort_clash context "%s: %s is not compatible with %s" what
        (sort_name s1) (sort_name s2)

let equate st context what t1 t2 =
  match unify t1 t2 with
  | None -> ()
  | Some (s1, s2) ->
      report st Sort_clash context "%s: %s is not compatible with %s" what
        (sort_name s1) (sort_name s2)

(* Expression typing: returns the expression's sort variable under an
   environment mapping bound names to variables. *)
let rec infer_expr st context env (e : Pexpr.t) : ty =
  let sub = infer_expr st context env in
  let describe sub_e = Format.asprintf "in %a" Pexpr.pp sub_e in
  let want sort sub_e =
    constrain st context (describe sub_e) (sub sub_e) sort
  in
  match e with
  | Pexpr.Const v -> known (sort_of_value v)
  | Pexpr.Var x -> (
      match List.assoc_opt x env with
      | Some t -> t
      | None ->
          report st Unbound_var context "unbound variable %s" x;
          fresh ())
  | Pexpr.Add (a, b) | Pexpr.Sub (a, b) | Pexpr.Mul (a, b) | Pexpr.Div (a, b)
    ->
      want Int a;
      want Int b;
      known Int
  | Pexpr.Eq (a, b) ->
      equate st context (describe e) (sub a) (sub b);
      known Bool
  | Pexpr.Lt (a, b) | Pexpr.Le (a, b) ->
      want Int a;
      want Int b;
      known Bool
  | Pexpr.And (a, b) | Pexpr.Or (a, b) ->
      want Bool a;
      want Bool b;
      known Bool
  | Pexpr.Not a ->
      want Bool a;
      known Bool
  | Pexpr.If (c, a, b) ->
      want Bool c;
      let ta = sub a and tb = sub b in
      equate st context (describe e) ta tb;
      ta
  | Pexpr.Nth (l, i) ->
      want Int_list l;
      want Int i;
      known Int
  | Pexpr.Set_nth (l, i, x) ->
      want Int_list l;
      want Int i;
      want Int x;
      known Int_list
  | Pexpr.Min_list l | Pexpr.Len l ->
      want Int_list l;
      known Int
  | Pexpr.Repl (n, x) ->
      want Int n;
      want Int x;
      known Int_list

let infer (spec : Spec.t) : signatures * error list =
  let st =
    { defs = Hashtbl.create 16; acts = Hashtbl.create 32; errors = [] }
  in
  (* One variable per definition parameter.  Duplicate definitions keep
     the first variable set (the duplicate itself is a structural error
     reported by the lint pass, not here). *)
  List.iter
    (fun (d : Term.def) ->
      if not (Hashtbl.mem st.defs d.Term.def_name) then
        Hashtbl.add st.defs d.Term.def_name
          (Array.init (List.length d.Term.params) (fun _ -> fresh ())))
    spec.Spec.defs;
  let act_tys context name arity =
    match Hashtbl.find_opt st.acts name with
    | Some tys when Array.length tys = arity -> Some tys
    | Some tys ->
        report st Arity_conflict context
          "action %s used with %d arguments, elsewhere %d" name arity
          (Array.length tys);
        None
    | None ->
        let tys = Array.init arity (fun _ -> fresh ()) in
        Hashtbl.add st.acts name tys;
        Some tys
  in
  (* Seed parameter sorts from the initial components. *)
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt st.defs name with
      | None -> () (* unknown root: structural error elsewhere *)
      | Some tys ->
          let context = Printf.sprintf "initial component %s" name in
          List.iteri
            (fun k v ->
              if k < Array.length tys then
                constrain st context
                  (Printf.sprintf "argument %d" (k + 1))
                  tys.(k) (sort_of_value v))
            values)
    spec.Spec.init;
  (* Walk every definition body. *)
  let walk_def (d : Term.def) =
    let context = Printf.sprintf "definition %s" d.Term.def_name in
    let own = Hashtbl.find st.defs d.Term.def_name in
    let env0 = List.mapi (fun k x -> (x, own.(k))) d.Term.params in
    let rec walk env (t : Term.t) =
      match t with
      | Term.Nil -> ()
      | Term.Prefix (a, p) ->
          let arity = List.length a.Term.act_args in
          (match act_tys context a.Term.act_name arity with
          | None -> List.iter (fun e -> ignore (infer_expr st context env e)) a.Term.act_args
          | Some tys ->
              List.iteri
                (fun k e ->
                  equate st context
                    (Printf.sprintf "action %s, argument %d" a.Term.act_name
                       (k + 1))
                    tys.(k)
                    (infer_expr st context env e))
                a.Term.act_args);
          walk env p
      | Term.Choice ps -> List.iter (walk env) ps
      | Term.Sum (x, _, _, p) -> walk ((x, known Int) :: env) p
      | Term.Cond (c, p, q) ->
          constrain st context
            (Format.asprintf "condition %a" Pexpr.pp c)
            (infer_expr st context env c)
            Bool;
          walk env p;
          walk env q
      | Term.Call (name, args) -> (
          match Hashtbl.find_opt st.defs name with
          | None ->
              (* unknown callee: structural error elsewhere; still type
                 the arguments for unbound-variable reporting *)
              List.iter (fun e -> ignore (infer_expr st context env e)) args
          | Some tys ->
              List.iteri
                (fun k e ->
                  let te = infer_expr st context env e in
                  if k < Array.length tys then
                    equate st context
                      (Printf.sprintf "call of %s, argument %d" name (k + 1))
                      tys.(k) te)
                args)
    in
    walk env0 d.Term.body
  in
  List.iter walk_def spec.Spec.defs;
  (* Tick never carries data; give it an explicit empty signature if some
     component offers it, so exporters can declare it. *)
  let def_params =
    List.map
      (fun (d : Term.def) ->
        ( d.Term.def_name,
          Array.map resolve (Hashtbl.find st.defs d.Term.def_name) ))
      spec.Spec.defs
  in
  let actions =
    Hashtbl.fold (fun name tys acc -> (name, Array.map resolve tys) :: acc)
      st.acts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  ({ def_params; actions }, List.rev st.errors)
