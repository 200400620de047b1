(* Location-sensitive LU bounds (Behrmann et al.'s static guard
   analysis): for every automaton, location and clock, the largest
   lower-bound constant L and upper-bound constant U the clock can
   still be compared against before it is next reset.

   The analysis is a backward fixpoint on each automaton's control
   graph.  Base facts: a guard atom [x >(=) e] on an edge out of [l]
   (or in [l]'s invariant) contributes [sup e] to [L(l, x)], an upper
   atom [x <(=) e] contributes to [U(l, x)], and an update that reads
   [x] before resetting it pins [L = U = cap] at the edge's source
   (reads observe the exact value up to the declared cap — the zone
   engine's case split and the discrete engine's saturation both rely
   on it).  Propagation: for every edge [l -> l'] that does not reset
   [x], [L(l, x) >= L(l', x)] (likewise U).  Bounds only grow and are
   drawn from a finite constant set, so round-robin sweeps terminate.

   Variable-valued bound expressions are closed by interval evaluation
   against the lint fixpoint ({!Lint_ta.intervals_of}); an expression
   the interval analysis cannot bound makes the clock's bound diverge
   and falls back to the declared cap (reported, so hblint can warn).
   Clocks appearing in constraints outside the diagonal-free
   conjunctive fragment (diagonals, disjunctions, disequalities,
   clock arithmetic) are conservatively pinned to their global bounds
   at every location — sound, and irrelevant to the zone engine, which
   rejects such models outright.  The fragment itself lives here too:
   [split] is the one splitter the zone engine compiles guards with
   and its TA-ZONE lint section classifies them with.

   Synchronisation needs no product construction: each component of a
   binary or broadcast macro edge contributes its guard atoms at its
   own source location, and the per-state bound is the maximum over
   the automata's current locations.  That maximum is sound for the
   product automaton: any constant compared against [x] on a product
   path before a reset of [x] belongs to some component, whose own
   backward propagation carries it to that component's current
   location (a reset by *another* component only makes the propagated
   bound larger than necessary, never smaller). *)

module E = Ta.Expr
module M = Ta.Model
module I = Lint_interval
module SMap = Map.Make (String)

type loc_bounds = { lb_l : int SMap.t; lb_u : int SMap.t }
(* absent key = -1 (the clock is never compared that way from here) *)

type t = {
  t_autos : (string * string array * loc_bounds array) list;
      (* automaton name, location names in model order, bounds per
         location (same order) *)
  t_clocks : string list; (* declaration order *)
  t_global_l : int SMap.t;
  t_global_u : int SMap.t;
  t_pinned : string list;
  t_diverging : (string * string) list; (* where, clock *)
}

(* --- the clock-constraint fragment ---------------------------------- *)

type atom = { clock : string; lower : bool; strict : bool; bound : E.t }

exception Frag of string * string

let has_clock acc = function E.Clock _ -> true | _ -> acc
let expr_has_clock = E.fold has_clock false
let bexpr_has_clock = E.fold_b has_clock false

(* each clock not yet in [acc] is prepended: distinct clocks, latest
   first occurrence first *)
let clocks_of acc = function
  | E.Clock c when not (List.mem c acc) -> c :: acc
  | _ -> acc

let negate_cmp = function
  | E.Lt -> E.Ge
  | E.Le -> E.Gt
  | E.Eq -> E.Ne
  | E.Ne -> E.Eq
  | E.Ge -> E.Lt
  | E.Gt -> E.Le

let rec negate = function
  | E.True -> E.False
  | E.False -> E.True
  | E.Cmp (cmp, a, b) -> E.Cmp (negate_cmp cmp, a, b)
  | E.Not b -> b
  | E.And (a, b) -> E.Or (negate a, negate b)
  | E.Or (a, b) -> E.And (negate a, negate b)

let flip_cmp = function
  | E.Lt -> E.Gt
  | E.Le -> E.Ge
  | E.Gt -> E.Lt
  | E.Ge -> E.Le
  | (E.Eq | E.Ne) as c -> c

let atoms_of_cmp cmp clock bound =
  let atom lower strict = { clock; lower; strict; bound } in
  match cmp with
  | E.Lt -> [ atom false true ]
  | E.Le -> [ atom false false ]
  | E.Gt -> [ atom true true ]
  | E.Ge -> [ atom true false ]
  | E.Eq -> [ atom false false; atom true false ]
  | E.Ne ->
      raise (Frag ("TA-ZONE-CONVEX", "clock disequality (!=) is not convex"))

(* [c ~ d], [c - d ~ e] or [c ~ d + e] (either side, [e] clock-free):
   a constraint on the difference of two clocks. *)
let diagonal a b =
  let clock = function E.Clock _ -> true | _ -> false in
  let diff = function E.Sub (E.Clock _, E.Clock _) -> true | _ -> false in
  let shifted = function
    | E.Add (E.Clock _, e) | E.Add (e, E.Clock _) -> not (expr_has_clock e)
    | _ -> false
  in
  let one_way a b =
    (clock a && (clock b || shifted b)) || (diff a && not (expr_has_clock b))
  in
  one_way a b || one_way b a

(* Split a guard/invariant into clock-free conjuncts plus clock atoms.
   Negation is pushed inward first, so [!(c > 3)] is fine; a clock
   under a disjunction or [!=], a diagonal, or a clock inside other
   arithmetic is outside the fragment. *)
let split (b : E.b) : E.b list * atom list =
  let rec go b ((data, atoms) as acc) =
    if not (bexpr_has_clock b) then (b :: data, atoms)
    else
      match b with
      | E.And (x, y) -> go y (go x acc)
      | E.Cmp (cmp, E.Clock c, e) when not (expr_has_clock e) ->
          (data, atoms_of_cmp cmp c e @ atoms)
      | E.Cmp (cmp, e, E.Clock c) when not (expr_has_clock e) ->
          (data, atoms_of_cmp (flip_cmp cmp) c e @ atoms)
      | E.Cmp (_, x, y) when diagonal x y ->
          raise
            (Frag
               ( "TA-ZONE-DIAGONAL",
                 "diagonal clock constraint (Extra_LU is only sound \
                  diagonal-free)" ))
      | E.Cmp _ -> raise (Frag ("TA-ZONE-ARITH", "clock inside arithmetic"))
      | E.Not inner -> go (negate inner) acc
      | E.Or _ ->
          raise
            (Frag ("TA-ZONE-CONVEX", "clock constraint under disjunction"))
      | E.True | E.False -> (b :: data, atoms)
  in
  let data, atoms = go b ([], []) in
  (List.rev data, List.rev atoms)

(* Clocks an update sequence reads before (or without) resetting them:
   exactly the reads the zone successor must case-split on. *)
let update_reads (updates : M.update list) : string list =
  let reset = ref [] and reads = ref [] in
  List.iter
    (fun (u : M.update) ->
      match u with
      | M.Reset c -> if not (List.mem c !reset) then reset := c :: !reset
      | M.Assign (lhs, rhs) ->
          let exprs =
            rhs :: (match lhs with M.Element (_, i) -> [ i ] | M.Scalar _ -> [])
          in
          List.iter
            (fun e ->
              List.iter
                (fun c ->
                  if not (List.mem c !reset) && not (List.mem c !reads) then
                    reads := c :: !reads)
                (E.fold clocks_of [] e))
            exprs)
    updates;
  List.rev !reads

let edge_resets (updates : M.update list) : string list =
  List.filter_map
    (function M.Reset c -> Some c | M.Assign _ -> None)
    updates

(* --- the analysis --------------------------------------------------- *)

let analyze (m : M.t) : t =
  let _, globals = Lint_ta.intervals_of m in
  let caps =
    List.fold_left
      (fun acc (c : M.clock_decl) -> SMap.add c.M.clock_name c.M.cap acc)
      SMap.empty m.M.clocks
  in
  let cap_of c = Option.value (SMap.find_opt c caps) ~default:0 in
  let diverging = ref [] and pinned = ref [] in
  let global_l = ref SMap.empty and global_u = ref SMap.empty in
  let gbump tbl c v =
    tbl :=
      SMap.update c
        (function None -> Some v | Some w -> Some (max w v))
        !tbl
  in
  (* Static supremum of a bound expression over all reachable variable
     values, by interval evaluation against the lint fixpoint. *)
  let rec sup_itv (e : E.t) : I.t =
    match e with
    | E.Int n -> I.const n
    | E.Var x | E.Elem (x, _) -> (
        match SMap.find_opt (Lint_ta.vkey x) globals with
        | Some iv -> iv
        | None -> I.top)
    | E.Clock _ -> I.top (* split rejected it; never reached *)
    | E.Add (a, b) -> I.add (sup_itv a) (sup_itv b)
    | E.Sub (a, b) -> I.sub (sup_itv a) (sup_itv b)
    | E.Mul (a, b) -> I.mul (sup_itv a) (sup_itv b)
    | E.Div (a, b) -> I.div (sup_itv a) (sup_itv b)
    | E.Min (a, b) -> I.min_ (sup_itv a) (sup_itv b)
    | E.Max (a, b) -> I.max_ (sup_itv a) (sup_itv b)
  in
  let sup_of where clock e =
    let hi = (sup_itv e).I.hi in
    if hi = I.pos_inf then begin
      if not (List.mem (where, clock) !diverging) then
        diverging := (where, clock) :: !diverging;
      cap_of clock
    end
    else hi
  in
  let pin clocks =
    List.iter
      (fun c -> if not (List.mem c !pinned) then pinned := c :: !pinned)
      clocks
  in
  let do_auto (a : M.automaton) =
    let nloc = List.length a.M.locations in
    let idx = Hashtbl.create 8 in
    List.iteri
      (fun i (l : M.location) -> Hashtbl.replace idx l.M.loc_name i)
      a.M.locations;
    let loc_index name =
      match Hashtbl.find_opt idx name with
      | Some i -> i
      | None ->
          Format.kasprintf invalid_arg "Lubounds: unknown location %s in %s"
            name a.M.auto_name
    in
    let lb = Array.make nloc SMap.empty and ub = Array.make nloc SMap.empty in
    let bump tbl i c v =
      (* a negative constant never needs to survive extrapolation:
         trivially true (lower) or empties the zone (upper) *)
      if v >= 0 then begin
        tbl.(i) <-
          SMap.update c
            (function None -> Some v | Some w -> Some (max w v))
            tbl.(i);
        gbump (if tbl == lb then global_l else global_u) c v
      end
    in
    let contribute i where guard =
      match split guard with
      | _, atoms ->
          List.iter
            (fun a ->
              bump (if a.lower then lb else ub) i a.clock
                (sup_of where a.clock a.bound))
            atoms
      | exception Frag _ -> pin (E.fold_b clocks_of [] guard)
    in
    List.iteri
      (fun i (l : M.location) ->
        contribute i
          (Printf.sprintf "%s.%s invariant" a.M.auto_name l.M.loc_name)
          l.M.invariant)
      a.M.locations;
    let edges =
      List.map
        (fun (e : M.edge) ->
          let src = loc_index e.M.src and dst = loc_index e.M.dst in
          let where =
            Printf.sprintf "%s: %s -> %s" a.M.auto_name e.M.src e.M.dst
          in
          contribute src where e.M.guard;
          List.iter
            (fun c ->
              (* a read observes the exact value up to the cap *)
              bump lb src c (cap_of c);
              bump ub src c (cap_of c))
            (update_reads e.M.updates);
          (src, dst, edge_resets e.M.updates))
        a.M.edges
    in
    (* backward fixpoint: bounds flow from dst to src along non-reset
       edges; round-robin sweeps until stable *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (src, dst, resets) ->
          let prop tbl =
            SMap.iter
              (fun c v ->
                if not (List.mem c resets) then
                  let cur =
                    Option.value (SMap.find_opt c tbl.(src)) ~default:(-1)
                  in
                  if v > cur then begin
                    tbl.(src) <- SMap.add c v tbl.(src);
                    changed := true
                  end)
              tbl.(dst)
          in
          prop lb;
          prop ub)
        edges
    done;
    let loc_names =
      Array.of_list (List.map (fun (l : M.location) -> l.M.loc_name) a.M.locations)
    in
    let bounds =
      Array.init nloc (fun i -> { lb_l = lb.(i); lb_u = ub.(i) })
    in
    (a.M.auto_name, loc_names, bounds)
  in
  let autos = List.map do_auto m.M.automata in
  (* pinned clocks: global bounds bumped to the cap (covers whatever
     the unsupported constraint compares against), every location set
     to the global pair *)
  let pinned_list = List.rev !pinned in
  List.iter
    (fun c ->
      gbump global_l c (cap_of c);
      gbump global_u c (cap_of c))
    pinned_list;
  let autos =
    if pinned_list = [] then autos
    else
      List.map
        (fun (name, locs, bounds) ->
          ( name,
            locs,
            Array.map
              (fun b ->
                List.fold_left
                  (fun b c ->
                    {
                      lb_l =
                        SMap.add c
                          (Option.value (SMap.find_opt c !global_l) ~default:(-1))
                          b.lb_l;
                      lb_u =
                        SMap.add c
                          (Option.value (SMap.find_opt c !global_u) ~default:(-1))
                          b.lb_u;
                    })
                  b pinned_list)
              bounds ))
        autos
  in
  {
    t_autos = autos;
    t_clocks = List.map (fun (c : M.clock_decl) -> c.M.clock_name) m.M.clocks;
    t_global_l = !global_l;
    t_global_u = !global_u;
    t_pinned = pinned_list;
    t_diverging = List.rev !diverging;
  }

(* Memoised on the model term: the verify sweeps, the zone engine and
   the two lint sections revisit the same model. *)
let memo : (M.t, t) Lint_memo.t = Lint_memo.create ()
let analyze_cached m = Lint_memo.find memo m analyze
let cache_stats () = Lint_memo.stats memo

(* --- lookups --------------------------------------------------------- *)

let get tbl c = Option.value (SMap.find_opt c tbl) ~default:(-1)

let bounds t ~auto ~loc ~clock =
  match List.find_opt (fun (n, _, _) -> n = auto) t.t_autos with
  | None -> Format.kasprintf invalid_arg "Lubounds.bounds: unknown automaton %s" auto
  | Some (_, locs, per_loc) -> (
      let rec idx i =
        if i >= Array.length locs then
          Format.kasprintf invalid_arg
            "Lubounds.bounds: unknown location %s in %s" loc auto
        else if locs.(i) = loc then i
        else idx (i + 1)
      in
      let b = per_loc.(idx 0) in
      (get b.lb_l clock, get b.lb_u clock))

let global_bounds t clock = (get t.t_global_l clock, get t.t_global_u clock)

let tables t =
  List.map
    (fun (name, locs, per_loc) ->
      ( name,
        List.mapi
          (fun i loc ->
            let b = per_loc.(i) in
            ( loc,
              List.map
                (fun c -> (c, get b.lb_l c, get b.lb_u c))
                t.t_clocks ))
          (Array.to_list locs) ))
    t.t_autos

let pinned t = t.t_pinned
let clocks t = t.t_clocks

(* --- lint section ---------------------------------------------------- *)

let diagnostics (m : M.t) : Lint_report.diag list =
  let module R = Lint_report in
  let t = analyze_cached m in
  let diverge =
    List.map
      (fun (where, clock) ->
        R.diag ~severity:R.Warning ~code:"TA-LU-DIVERGE" ~where
          "bound on clock %s diverges: the interval analysis cannot close \
           the guard expression, so the location bound falls back to the \
           declared cap (statically unextrapolatable)"
          clock)
      t.t_diverging
  in
  let pin =
    List.map
      (fun clock ->
        R.diag ~severity:R.Info ~code:"TA-LU-PIN" ~where:clock
          "clock %s appears in a constraint outside the diagonal-free \
           conjunctive fragment; pinned to its global bounds at every \
           location"
          clock)
      t.t_pinned
  in
  let table =
    List.concat_map
      (fun (auto, locs) ->
        List.filter_map
          (fun clock ->
            let cells =
              List.filter_map
                (fun (loc, per_clock) ->
                  match
                    List.find_opt (fun (c, _, _) -> c = clock) per_clock
                  with
                  | Some (_, l, u) when l >= 0 || u >= 0 ->
                      Some (Printf.sprintf "%s L=%d U=%d" loc l u)
                  | _ -> None)
                locs
            in
            if cells = [] then None
            else
              Some
                (R.diag ~severity:R.Info ~code:"TA-LU"
                   ~where:(auto ^ "." ^ clock)
                   "location bounds: %s (elsewhere -1)"
                   (String.concat ", " cells)))
          t.t_clocks)
      (tables t)
  in
  diverge @ pin @ table
