(* Property-driven slicing of timed-automata networks.

   Given a network and a seed (the variables, clocks and locations a
   property observes), produce a smaller network with the same label
   traces.  The pass is an {e exact label-preserving projection}: every
   guard and invariant of the kept part is preserved verbatim (modulo
   constant folding, which never changes a value), so the sliced and
   full systems are trace-equivalent for any observer over action
   labels and over the seeded state atoms.  Counterexamples from the
   sliced model therefore replay in the full model by guided replay of
   their label trace (see {!Slice.replay}); the certificate in {!t}
   records what was folded or removed so the replay and the reports can
   name full-model entities.

   Pipeline:
   1. constant folding — variables whose flow-insensitive interval
      ({!Lint_ta.intervals_of}) is a singleton are provably constant;
      substitute the constant, drop their (dead) writes;
   2. expression simplification — fold closed arithmetic and boolean
      subterms; edges whose guard folds to [False] are dropped;
   3. location pruning — locations unreachable in the edge graph after
      folding are dropped (seeded locations are kept so property
      observers still resolve);
   4. dead-write elimination — a backward relevance fixpoint from the
      seed and from every kept guard/invariant; writes to irrelevant
      variables are dropped, then unread variables and clocks are
      projected out of the declarations;
   5. clock-activity reduction (Daws–Yovine) — for clocks used by a
      single automaton, per-location active sets are computed by
      backward propagation over non-resetting edges; inactive clocks
      stay in the vector but are zeroed by a canonicalizer
      ({!Ta.Semantics.canonicalizer}), collapsing states that differ
      only in clock values nothing will read before resetting.

   Step 4 keeps every guard and invariant of the kept part, which is
   what makes the projection exact rather than merely conservative:
   slicing never adds behaviours, so verdict parity holds in both
   directions.  Seeded entities are exempt from folding and removal. *)

module E = Ta.Expr
module M = Ta.Model
module I = Lint_interval
module R = Lint_report
module SSet = Set.Make (String)
module SMap = Map.Make (String)

type seed = {
  seed_vars : string list;
  seed_clocks : string list;
  seed_locs : (string * string) list; (* automaton, location *)
}

let empty_seed = { seed_vars = []; seed_clocks = []; seed_locs = [] }

type t = {
  model : M.t;
  folded : (string * int) list; (* variable, proven constant value *)
  removed_vars : string list;
  removed_clocks : string list;
  removed_locs : (string * string) list; (* automaton, location *)
  inactive : (string * (string * string list) list) list;
      (* automaton -> location -> inactive owned clocks *)
}

(* --- expression helpers ------------------------------------------------- *)

let rec subst_expr env (e : E.t) : E.t =
  match e with
  | E.Int _ | E.Clock _ -> e
  | E.Var x -> (
      match SMap.find_opt x env with Some n -> E.Int n | None -> e)
  | E.Elem (x, i) -> E.Elem (x, subst_expr env i)
  | E.Add (a, b) -> E.Add (subst_expr env a, subst_expr env b)
  | E.Sub (a, b) -> E.Sub (subst_expr env a, subst_expr env b)
  | E.Mul (a, b) -> E.Mul (subst_expr env a, subst_expr env b)
  | E.Div (a, b) -> E.Div (subst_expr env a, subst_expr env b)
  | E.Min (a, b) -> E.Min (subst_expr env a, subst_expr env b)
  | E.Max (a, b) -> E.Max (subst_expr env a, subst_expr env b)

let rec subst_bexpr env (b : E.b) : E.b =
  match b with
  | E.True | E.False -> b
  | E.Cmp (c, a, b') -> E.Cmp (c, subst_expr env a, subst_expr env b')
  | E.Not b -> E.Not (subst_bexpr env b)
  | E.And (a, b) -> E.And (subst_bexpr env a, subst_bexpr env b)
  | E.Or (a, b) -> E.Or (subst_bexpr env a, subst_bexpr env b)

let rec fold_expr (e : E.t) : E.t =
  match e with
  | E.Int _ | E.Var _ | E.Clock _ -> e
  | E.Elem (x, i) -> E.Elem (x, fold_expr i)
  | E.Add (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y -> E.Int (x + y)
      | a, b -> E.Add (a, b))
  | E.Sub (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y -> E.Int (x - y)
      | a, b -> E.Sub (a, b))
  | E.Mul (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y -> E.Int (x * y)
      | a, b -> E.Mul (a, b))
  | E.Div (a, b) -> (
      (* x/0 must keep raising at run time, so only fold nonzero
         divisors *)
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y when y <> 0 -> E.Int (x / y)
      | a, b -> E.Div (a, b))
  | E.Min (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y -> E.Int (min x y)
      | a, b -> E.Min (a, b))
  | E.Max (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | E.Int x, E.Int y -> E.Int (max x y)
      | a, b -> E.Max (a, b))

let cmp_op : E.cmp -> int -> int -> bool = function
  | E.Lt -> ( < )
  | E.Le -> ( <= )
  | E.Eq -> ( = )
  | E.Ge -> ( >= )
  | E.Gt -> ( > )
  | E.Ne -> ( <> )

let rec fold_bexpr (b : E.b) : E.b =
  match b with
  | E.True | E.False -> b
  | E.Cmp (c, a, b') -> (
      match (fold_expr a, fold_expr b') with
      | E.Int x, E.Int y -> if cmp_op c x y then E.True else E.False
      | a, b' -> E.Cmp (c, a, b'))
  | E.Not b -> (
      match fold_bexpr b with
      | E.True -> E.False
      | E.False -> E.True
      | b -> E.Not b)
  | E.And (a, b) -> (
      match (fold_bexpr a, fold_bexpr b) with
      | E.False, _ | _, E.False -> E.False
      | E.True, x | x, E.True -> x
      | a, b -> E.And (a, b))
  | E.Or (a, b) -> (
      match (fold_bexpr a, fold_bexpr b) with
      | E.True, _ | _, E.True -> E.True
      | E.False, x | x, E.False -> x
      | a, b -> E.Or (a, b))

let rec expr_vars acc (e : E.t) =
  match e with
  | E.Int _ | E.Clock _ -> acc
  | E.Var x -> SSet.add x acc
  | E.Elem (x, i) -> expr_vars (SSet.add x acc) i
  | E.Add (a, b) | E.Sub (a, b) | E.Mul (a, b) | E.Div (a, b)
  | E.Min (a, b) | E.Max (a, b) ->
      expr_vars (expr_vars acc a) b

let rec bexpr_vars acc (b : E.b) =
  match b with
  | E.True | E.False -> acc
  | E.Cmp (_, a, b') -> expr_vars (expr_vars acc a) b'
  | E.Not b -> bexpr_vars acc b
  | E.And (a, b) | E.Or (a, b) -> bexpr_vars (bexpr_vars acc a) b

let rec expr_clocks acc (e : E.t) =
  match e with
  | E.Int _ | E.Var _ -> acc
  | E.Clock c -> SSet.add c acc
  | E.Elem (_, i) -> expr_clocks acc i
  | E.Add (a, b) | E.Sub (a, b) | E.Mul (a, b) | E.Div (a, b)
  | E.Min (a, b) | E.Max (a, b) ->
      expr_clocks (expr_clocks acc a) b

let rec bexpr_clocks acc (b : E.b) =
  match b with
  | E.True | E.False -> acc
  | E.Cmp (_, a, b') -> expr_clocks (expr_clocks acc a) b'
  | E.Not b -> bexpr_clocks acc b
  | E.And (a, b) | E.Or (a, b) -> bexpr_clocks (bexpr_clocks acc a) b

let lhs_var = function M.Scalar x -> x | M.Element (x, _) -> x

(* --- clock activity (Daws-Yovine) ---------------------------------------

   A clock is owned by automaton A when every read and reset of it sits
   in A (and it is not seeded, so property observers keep exact values).
   active(l) = reads local to l (its invariant, plus guards and update
   expressions of edges out of l) joined with active(l') over
   non-resetting edges l -> l'.  Shared with the zone engine, which
   zeroes inactive clocks in its DBMs for the same reason the slicer
   zeroes them in discrete states: nothing reads them before a reset,
   so the projection is a label-preserving bisimulation. *)

let clock_sites (model : M.t) =
  (* clock -> set of automaton names touching it *)
  let tbl = Hashtbl.create 8 in
  let touch auto c =
    let prev = Option.value (Hashtbl.find_opt tbl c) ~default:SSet.empty in
    Hashtbl.replace tbl c (SSet.add auto prev)
  in
  List.iter
    (fun (a : M.automaton) ->
      let name = a.M.auto_name in
      List.iter
        (fun (l : M.location) ->
          SSet.iter (touch name) (bexpr_clocks SSet.empty l.M.invariant))
        a.M.locations;
      List.iter
        (fun (e : M.edge) ->
          SSet.iter (touch name) (bexpr_clocks SSet.empty e.M.guard);
          List.iter
            (fun (u : M.update) ->
              match u with
              | M.Reset c -> touch name c
              | M.Assign (M.Scalar _, rhs) ->
                  SSet.iter (touch name) (expr_clocks SSet.empty rhs)
              | M.Assign (M.Element (_, i), rhs) ->
                  SSet.iter (touch name)
                    (expr_clocks (expr_clocks SSet.empty i) rhs))
            e.M.updates)
        a.M.edges)
    model.M.automata;
  tbl

let owned_by ~seed_clocks (model : M.t) sites auto =
  List.filter_map
    (fun (c : M.clock_decl) ->
      let name = c.M.clock_name in
      if SSet.mem name seed_clocks then None
      else
        match Hashtbl.find_opt sites name with
        | Some autos when SSet.equal autos (SSet.singleton auto) -> Some name
        | _ -> None)
    model.M.clocks

let activity (a : M.automaton) owned =
  let owned_set = SSet.of_list owned in
  let local l =
    let inv_reads = bexpr_clocks SSet.empty l.M.invariant in
    List.fold_left
      (fun acc (e : M.edge) ->
        if e.M.src <> l.M.loc_name then acc
        else
          let acc = bexpr_clocks acc e.M.guard in
          List.fold_left
            (fun acc (u : M.update) ->
              match u with
              | M.Reset _ -> acc
              | M.Assign (M.Scalar _, rhs) -> expr_clocks acc rhs
              | M.Assign (M.Element (_, i), rhs) ->
                  expr_clocks (expr_clocks acc i) rhs)
            acc e.M.updates)
      inv_reads a.M.edges
    |> SSet.inter owned_set
  in
  let active = Hashtbl.create 8 in
  List.iter
    (fun (l : M.location) -> Hashtbl.replace active l.M.loc_name (local l))
    a.M.locations;
  let get l = Option.value (Hashtbl.find_opt active l) ~default:SSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : M.edge) ->
        let resets =
          List.filter_map
            (fun (u : M.update) ->
              match u with M.Reset c -> Some c | M.Assign _ -> None)
            e.M.updates
          |> SSet.of_list
        in
        let flow = SSet.diff (get e.M.dst) resets in
        let cur = get e.M.src in
        let next = SSet.union cur flow in
        if not (SSet.equal cur next) then begin
          Hashtbl.replace active e.M.src next;
          changed := true
        end)
      a.M.edges
  done;
  active

let inactive_of ~seed_clocks (model : M.t) =
  let sites = clock_sites model in
  List.filter_map
    (fun (a : M.automaton) ->
      let owned = owned_by ~seed_clocks model sites a.M.auto_name in
      if owned = [] then None
      else
        let active = activity a owned in
        let per_loc =
          List.filter_map
            (fun (l : M.location) ->
              let act =
                Option.value
                  (Hashtbl.find_opt active l.M.loc_name)
                  ~default:SSet.empty
              in
              let inact = List.filter (fun c -> not (SSet.mem c act)) owned in
              if inact = [] then None else Some (l.M.loc_name, inact))
            a.M.locations
        in
        if per_loc = [] then None else Some (a.M.auto_name, per_loc))
    model.M.automata

(* The zone engine's entry point: per-automaton, per-location inactive
   clocks of the full (unsliced, unseeded) model. *)
let clock_activity (model : M.t) = inactive_of ~seed_clocks:SSet.empty model

(* --- the pass ----------------------------------------------------------- *)

let slice ?(seed = empty_seed) (model : M.t) : t =
  let seed_vars = SSet.of_list seed.seed_vars in
  let seed_clocks = SSet.of_list seed.seed_clocks in
  let seed_locs_of auto =
    List.filter_map
      (fun (a, l) -> if a = auto then Some l else None)
      seed.seed_locs
    |> SSet.of_list
  in
  (* 1. constants: non-seed scalars whose interval is a singleton. *)
  let _decls, globals = Lint_ta.intervals_of model in
  let consts =
    List.fold_left
      (fun acc (v : M.var_decl) ->
        if
          List.length v.M.init = 1
          && not (SSet.mem v.M.var_name seed_vars)
        then
          match SMap.find_opt (Lint_ta.vkey v.M.var_name) globals with
          | Some i when I.is_singleton i -> SMap.add v.M.var_name i.I.lo acc
          | _ -> acc
        else acc)
      SMap.empty model.M.vars
  in
  (* 2. substitute + fold; drop writes to folded vars and edges with
     statically-false guards. *)
  let rw_expr e = fold_expr (subst_expr consts e) in
  let rw_bexpr b = fold_bexpr (subst_bexpr consts b) in
  let rw_updates us =
    List.filter_map
      (fun (u : M.update) ->
        match u with
        | M.Reset _ -> Some u
        | M.Assign (lhs, rhs) ->
            if SMap.mem (lhs_var lhs) consts then None
            else
              let lhs =
                match lhs with
                | M.Scalar _ -> lhs
                | M.Element (x, i) -> M.Element (x, rw_expr i)
              in
              Some (M.Assign (lhs, rw_expr rhs)))
      us
  in
  let automata =
    List.map
      (fun (a : M.automaton) ->
        {
          a with
          M.locations =
            List.map
              (fun (l : M.location) ->
                { l with M.invariant = rw_bexpr l.M.invariant })
              a.M.locations;
          M.edges =
            List.filter_map
              (fun (e : M.edge) ->
                match rw_bexpr e.M.guard with
                | E.False -> None
                | g ->
                    Some
                      { e with M.guard = g; M.updates = rw_updates e.M.updates })
              a.M.edges;
        })
      model.M.automata
  in
  (* 3. prune locations unreachable in the post-fold edge graph (seeded
     locations survive so property observers still resolve). *)
  let removed_locs = ref [] in
  let automata =
    List.map
      (fun (a : M.automaton) ->
        let reach = Lint_ta.reachable_locs a in
        let kept = SSet.union reach (seed_locs_of a.M.auto_name) in
        List.iter
          (fun (l : M.location) ->
            if not (SSet.mem l.M.loc_name kept) then
              removed_locs := (a.M.auto_name, l.M.loc_name) :: !removed_locs)
          a.M.locations;
        {
          a with
          M.locations =
            List.filter
              (fun (l : M.location) -> SSet.mem l.M.loc_name kept)
              a.M.locations;
          M.edges =
            List.filter (fun (e : M.edge) -> SSet.mem e.M.src reach) a.M.edges;
        })
      automata
  in
  let removed_locs = List.rev !removed_locs in
  (* 4. backward relevance fixpoint.  Every kept guard and invariant is
     preserved verbatim, so their reads are all relevant; the closure
     adds the reads feeding writes to relevant variables. *)
  let base_vars, base_clocks =
    List.fold_left
      (fun acc (a : M.automaton) ->
        let acc =
          List.fold_left
            (fun (vs, cs) (l : M.location) ->
              (bexpr_vars vs l.M.invariant, bexpr_clocks cs l.M.invariant))
            acc a.M.locations
        in
        List.fold_left
          (fun (vs, cs) (e : M.edge) ->
            (bexpr_vars vs e.M.guard, bexpr_clocks cs e.M.guard))
          acc a.M.edges)
      (seed_vars, seed_clocks)
      automata
  in
  let assigns =
    List.concat_map
      (fun (a : M.automaton) ->
        List.concat_map
          (fun (e : M.edge) ->
            List.filter_map
              (fun (u : M.update) ->
                match u with
                | M.Reset _ -> None
                | M.Assign (lhs, rhs) ->
                    let reads_v =
                      match lhs with
                      | M.Scalar _ -> expr_vars SSet.empty rhs
                      | M.Element (_, i) ->
                          expr_vars (expr_vars SSet.empty i) rhs
                    in
                    let reads_c =
                      match lhs with
                      | M.Scalar _ -> expr_clocks SSet.empty rhs
                      | M.Element (_, i) ->
                          expr_clocks (expr_clocks SSet.empty i) rhs
                    in
                    Some (lhs_var lhs, reads_v, reads_c))
              e.M.updates)
          a.M.edges)
      automata
  in
  let rec closure vars clocks =
    let vars', clocks' =
      List.fold_left
        (fun (vs, cs) (x, rv, rc) ->
          if SSet.mem x vs then (SSet.union vs rv, SSet.union cs rc)
          else (vs, cs))
        (vars, clocks) assigns
    in
    if SSet.equal vars vars' && SSet.equal clocks clocks' then (vars, clocks)
    else closure vars' clocks'
  in
  let relevant_vars, relevant_clocks = closure base_vars base_clocks in
  let removed_vars =
    List.filter_map
      (fun (v : M.var_decl) ->
        if
          SSet.mem v.M.var_name relevant_vars
          || SMap.mem v.M.var_name consts
        then None
        else Some v.M.var_name)
      model.M.vars
  in
  let removed_clocks =
    List.filter_map
      (fun (c : M.clock_decl) ->
        if SSet.mem c.M.clock_name relevant_clocks then None
        else Some c.M.clock_name)
      model.M.clocks
  in
  let dead_v = SSet.of_list removed_vars in
  let dead_c = SSet.of_list removed_clocks in
  let automata =
    List.map
      (fun (a : M.automaton) ->
        {
          a with
          M.edges =
            List.map
              (fun (e : M.edge) ->
                {
                  e with
                  M.updates =
                    List.filter
                      (fun (u : M.update) ->
                        match u with
                        | M.Reset c -> not (SSet.mem c dead_c)
                        | M.Assign (lhs, _) ->
                            not (SSet.mem (lhs_var lhs) dead_v))
                      e.M.updates;
                })
              a.M.edges;
        })
      automata
  in
  let sliced =
    {
      M.vars =
        List.filter
          (fun (v : M.var_decl) ->
            not
              (SSet.mem v.M.var_name dead_v || SMap.mem v.M.var_name consts))
          model.M.vars;
      M.clocks =
        List.filter
          (fun (c : M.clock_decl) -> not (SSet.mem c.M.clock_name dead_c))
          model.M.clocks;
      M.chans = model.M.chans;
      M.automata = automata;
    }
  in
  (* 5. clock activity (the Daws-Yovine pass above, on the sliced
     model, keeping seeded clocks exact). *)
  let inactive = inactive_of ~seed_clocks sliced in
  {
    model = sliced;
    folded = SMap.bindings consts;
    removed_vars;
    removed_clocks;
    removed_locs;
    inactive;
  }

(* --- packaging ---------------------------------------------------------- *)

(* Wrap the compiled sliced network so every emitted configuration is the
   canonical representative of its clock-activity class. *)
let system (sl : t) (net : Ta.Semantics.t) :
    (Ta.Semantics.config, Ta.Semantics.label) Mc.System.t =
  let module S = (val Ta.Semantics.system net) in
  if sl.inactive = [] then (module S)
  else
    let canon = Ta.Semantics.canonicalizer net ~inactive:sl.inactive in
    (module struct
      type state = S.state
      type label = S.label

      let initial = canon S.initial
      let successors s = List.map (fun (l, s') -> (l, canon s')) (S.successors s)
      let equal_state = S.equal_state
      let hash_state = S.hash_state
      let pp_state = S.pp_state
      let pp_label = S.pp_label
    end)

(* --- reporting ---------------------------------------------------------- *)

let diagnostics (sl : t) : R.diag list =
  let info ~where fmt =
    Format.kasprintf
      (fun message -> R.diag ~severity:R.Info ~code:"TA-SLICE" ~where "%s" message)
      fmt
  in
  List.map
    (fun (x, n) ->
      info ~where:("variable " ^ x) "variable %s folded to constant %d" x n)
    sl.folded
  @ List.map
      (fun x ->
        info ~where:("variable " ^ x)
          "variable %s sliced away (irrelevant to the property)" x)
      sl.removed_vars
  @ List.map
      (fun c ->
        info ~where:("clock " ^ c)
          "clock %s sliced away (irrelevant to the property)" c)
      sl.removed_clocks
  @ List.map
      (fun (a, l) ->
        info
          ~where:(Printf.sprintf "automaton %s, location %s" a l)
          "location %s is unreachable after folding and was dropped" l)
      sl.removed_locs
  @ List.concat_map
      (fun (a, locs) ->
        List.map
          (fun (l, clocks) ->
            info
              ~where:(Printf.sprintf "automaton %s, location %s" a l)
              "clocks inactive here (zeroed by canonicalization): %s"
              (String.concat ", " clocks))
          locs)
      sl.inactive
