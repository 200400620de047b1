(* Zone-graph semantics: Ta.Model compiled to a successor relation over
   (discrete part, canonical DBM) pairs.

   The discrete part reuses Ta.Semantics' cell layout (locations,
   zeroed clock cells, variables), so the data fragments of guards,
   invariants and updates are compiled by the discrete compiler itself
   — the two engines cannot drift apart on data semantics.  Only the
   clock fragments get a second, symbolic compilation: conjunctions of
   atoms [c ~ e] with clock-free [e] (Lubounds.split, the one owner of
   the fragment), applied to the DBM as row/column constraints whose
   bound is evaluated against the current discrete part.

   Clock reads in update right-hand sides (the heartbeat models'
   [spent := d0]) are handled by finite case-split: the successor
   forks one branch per integer value the clock can take in the
   current zone, saturated at the clock's declared cap.  The branch
   for [v < cap] constrains [c == v]; the branch for [cap] constrains
   [c >= cap] and reads [cap] — exactly the discrete semantics'
   saturation, which is what makes discrete and zone verdicts agree on
   closed models (see test/test_zone.ml).

   Extrapolation is location-based Extra_LU: per-state bounds looked
   up from the discrete part — Lubounds' backward fixpoint gives
   per-(automaton, location, clock) constants, composed at
   extrapolation time as the maximum over the current location vector
   (sound for the product; see lib/lubounds), with the Daws-Yovine
   inactive clocks dropped to the L = U = -1 degenerate case on top of
   the existing reset-to-zero. *)

module E = Ta.Expr
module M = Ta.Model
module S = Ta.Semantics

exception Unsupported of string

(* --- static checks: fragment, broadcast receivers, update reads ----- *)

type analysis = {
  an_errors : (string * string * string) list; (* where, code, reason *)
  an_bcast_bad : string list; (* broadcast receivers with clock guards *)
  an_nonint : (string * string) list; (* where, clock: Div in bound expr *)
  an_reads : (string * string list) list; (* edge, clocks read pre-reset *)
}

let rec has_div = function
  | E.Int _ | E.Var _ | E.Clock _ -> false
  | E.Elem (_, i) -> has_div i
  | E.Div _ -> true
  | E.Add (a, b) | E.Sub (a, b) | E.Mul (a, b) | E.Min (a, b) | E.Max (a, b)
    ->
      has_div a || has_div b

let analyze_model (m : M.t) : analysis =
  let broadcast =
    List.filter_map
      (fun (c : M.chan_decl) ->
        if c.M.broadcast then Some c.M.chan_name else None)
      m.M.chans
  in
  let errors = ref []
  and bcast = ref []
  and nonint = ref []
  and reads = ref [] in
  let do_guard where b =
    match Lubounds.split b with
    | _, atoms ->
        List.iter
          (fun (a : Lubounds.atom) ->
            if has_div a.bound then nonint := (where, a.clock) :: !nonint)
          atoms;
        atoms
    | exception Lubounds.Frag (code, reason) ->
        errors := (where, code, reason) :: !errors;
        []
  in
  List.iter
    (fun (a : M.automaton) ->
      List.iter
        (fun (l : M.location) ->
          let where =
            Printf.sprintf "%s.%s invariant" a.M.auto_name l.M.loc_name
          in
          ignore (do_guard where l.M.invariant : Lubounds.atom list))
        a.M.locations;
      List.iter
        (fun (e : M.edge) ->
          let where =
            Printf.sprintf "%s: %s -> %s" a.M.auto_name e.M.src e.M.dst
          in
          let atoms = do_guard where e.M.guard in
          (match e.M.sync with
          | M.Recv ch when List.mem ch broadcast && atoms <> [] ->
              bcast := where :: !bcast
          | _ -> ());
          let rds = Lubounds.update_reads e.M.updates in
          if rds <> [] then reads := (where, rds) :: !reads)
        a.M.edges)
    m.M.automata;
  {
    an_errors = List.rev !errors;
    an_bcast_bad = List.rev !bcast;
    an_nonint = List.rev !nonint;
    an_reads = List.rev !reads;
  }

(* --- compiled form -------------------------------------------------- *)

type atom = {
  at_i : int; (* DBM clock index *)
  at_lower : bool;
  at_strict : bool;
  at_bound : int array -> int; (* evaluated on the discrete part *)
}

type zupd =
  | U_reset of int (* DBM clock index *)
  | U_assign of (int array -> (int -> int) -> unit) * int list
      (* the closure takes the discrete part and a clock valuation
         (by DBM index); the list is the clocks the RHS reads *)

type zedge = {
  ze_data : int array -> bool;
  ze_atoms : atom list;
  ze_updates : zupd list;
  ze_dst : int;
  ze_label : string;
}

type zloc = {
  zl_kind : M.loc_kind;
  zl_inv_data : int array -> bool;
  zl_inv_atoms : atom list;
  zl_tau : zedge list;
  zl_send : zedge list array;
  zl_recv : zedge list array;
}

type lu = Location

type t = {
  znet : S.t;
  zn : int; (* automata *)
  zdim : int; (* clocks + 1 *)
  zautos : zloc array array;
  zchans : M.chan_decl array;
  zcaps : int array; (* by DBM index; zcaps.(0) unused *)
  zlub : Lubounds.t;
  zloc_l : int array array array; (* auto -> loc -> DBM index -> L *)
  zloc_u : int array array array;
  zscr_l : int array; (* scratch per-state composition buffers: the *)
  zscr_u : int array; (* engine is sequential, settle owns them *)
  zinactive : int array array array; (* auto -> loc -> DBM indices *)
  zclock_names : string array; (* by DBM index *)
}

type state = { disc : int array; dbm : Dbm.t }

(* --- compilation ---------------------------------------------------- *)

(* Expression compilation in the presence of clock reads: clock-free
   subtrees go through the discrete compiler (identical data
   semantics); a clock leaf consults the valuation chosen by the
   successor's case split. *)
let rec comp_e net cidx (e : E.t) :
    (int array -> (int -> int) -> int) * int list =
  if not (Lubounds.expr_has_clock e) then begin
    let f = S.compile_expr_fn net e in
    ((fun d _ -> f (S.of_cells d)), [])
  end
  else
    let bin op a b =
      let fa, ra = comp_e net cidx a in
      let fb, rb = comp_e net cidx b in
      ((fun d v -> op (fa d v) (fb d v)), ra @ rb)
    in
    match e with
    | E.Clock c ->
        let k = cidx c in
        ((fun _ v -> v k), [ k ])
    | E.Elem (x, idx) ->
        let off, size = S.lookup_var net x in
        let fi, ri = comp_e net cidx idx in
        ( (fun d v ->
            let k = fi d v in
            if k < 0 || k >= size then
              invalid_arg
                (Printf.sprintf "index %d out of bounds for %s" k x);
            d.(off + k)),
          ri )
    | E.Add (a, b) -> bin ( + ) a b
    | E.Sub (a, b) -> bin ( - ) a b
    | E.Mul (a, b) -> bin ( * ) a b
    | E.Div (a, b) -> bin ( / ) a b
    | E.Min (a, b) -> bin min a b
    | E.Max (a, b) -> bin max a b
    | E.Int _ | E.Var _ -> assert false (* clock-free *)

let comp_update net cidx (u : M.update) : zupd =
  match u with
  | M.Reset c -> U_reset (cidx c)
  | M.Assign (M.Scalar x, rhs) ->
      let off, size = S.lookup_var net x in
      if size <> 1 then
        invalid_arg (Printf.sprintf "assignment to array %s without index" x);
      let fr, reads = comp_e net cidx rhs in
      U_assign ((fun d v -> d.(off) <- fr d v), reads)
  | M.Assign (M.Element (x, idx), rhs) ->
      let off, size = S.lookup_var net x in
      let fi, ri = comp_e net cidx idx in
      let fr, rr = comp_e net cidx rhs in
      U_assign
        ( (fun d v ->
            let k = fi d v in
            if k < 0 || k >= size then
              invalid_arg
                (Printf.sprintf "index %d out of bounds for %s" k x);
            d.(off + k) <- fr d v),
          ri @ rr )

let comp_guard net cidx ~where (b : E.b) : (int array -> bool) * atom list =
  match Lubounds.split b with
  | data, aatoms ->
      let fns = List.map (S.compile_bexpr_fn net) data in
      let data_fn d = List.for_all (fun f -> f (S.of_cells d)) fns in
      let atoms =
        List.map
          (fun (a : Lubounds.atom) ->
            let f = S.compile_expr_fn net a.bound in
            {
              at_i = cidx a.clock;
              at_lower = a.lower;
              at_strict = a.strict;
              at_bound = (fun d -> f (S.of_cells d));
            })
          aatoms
      in
      (data_fn, atoms)
  | exception Lubounds.Frag (_, reason) ->
      raise (Unsupported (where ^ ": " ^ reason))

let compile ?lu:_ (model : M.t) : t =
  (* Reject the whole model up front if any constraint is outside the
     fragment, with a located message. *)
  let an = analyze_model model in
  (match an.an_errors with
  | (where, _, reason) :: _ -> raise (Unsupported (where ^ ": " ^ reason))
  | [] -> ());
  (match an.an_bcast_bad with
  | where :: _ ->
      raise
        (Unsupported
           (where
          ^ ": broadcast receiver with a clock guard (participation must \
             be a function of the discrete part)"))
  | [] -> ());
  let net = S.compile model in
  let nclocks = S.num_clocks net in
  let dim = nclocks + 1 in
  let coff = S.clock_offset net in
  let cidx name = S.lookup_clock net name - coff + 1 in
  let zcaps = Array.make dim 0 in
  Array.iteri (fun k cap -> zcaps.(k + 1) <- cap) (S.clock_caps net);
  let zclock_names = Array.make dim "0" in
  List.iteri
    (fun k (c : M.clock_decl) -> zclock_names.(k + 1) <- c.M.clock_name)
    model.M.clocks;
  let zchans = Array.of_list model.M.chans in
  let num_chans = Array.length zchans in
  let chan_id = Hashtbl.create 8 in
  Array.iteri (fun k (c : M.chan_decl) -> Hashtbl.replace chan_id c.M.chan_name k) zchans;
  let compile_auto ia (a : M.automaton) =
    let zlocs =
      Array.of_list
        (List.map
           (fun (l : M.location) ->
             let where =
               Printf.sprintf "%s.%s invariant" a.M.auto_name l.M.loc_name
             in
             let inv_data, inv_atoms =
               comp_guard net cidx ~where l.M.invariant
             in
             {
               zl_kind = l.M.kind;
               zl_inv_data = inv_data;
               zl_inv_atoms = inv_atoms;
               zl_tau = [];
               zl_send = Array.make num_chans [];
               zl_recv = Array.make num_chans [];
             })
           a.M.locations)
    in
    (* the per-location sync arrays above are shared between nothing —
       each List.map step allocates fresh ones *)
    List.iter
      (fun (e : M.edge) ->
        let src = S.loc_index net ~auto:ia e.M.src in
        let dst = S.loc_index net ~auto:ia e.M.dst in
        let where =
          Printf.sprintf "%s: %s -> %s" a.M.auto_name e.M.src e.M.dst
        in
        let data, atoms = comp_guard net cidx ~where e.M.guard in
        let default_label =
          match e.M.sync with
          | M.Tau -> "tau"
          | M.Send ch -> ch ^ "!"
          | M.Recv ch -> ch ^ "?"
        in
        let ze =
          {
            ze_data = data;
            ze_atoms = atoms;
            ze_updates = List.map (comp_update net cidx) e.M.updates;
            ze_dst = dst;
            ze_label = Option.value e.M.act ~default:default_label;
          }
        in
        let l = zlocs.(src) in
        match e.M.sync with
        | M.Tau -> zlocs.(src) <- { l with zl_tau = l.zl_tau @ [ ze ] }
        | M.Send ch ->
            let k = Hashtbl.find chan_id ch in
            l.zl_send.(k) <- l.zl_send.(k) @ [ ze ]
        | M.Recv ch ->
            let k = Hashtbl.find chan_id ch in
            l.zl_recv.(k) <- l.zl_recv.(k) @ [ ze ])
      a.M.edges;
    zlocs
  in
  let zautos = Array.of_list (List.mapi compile_auto model.M.automata) in
  let zn = Array.length zautos in
  let zinactive =
    let tbl =
      Array.init zn (fun ia -> Array.make (Array.length zautos.(ia)) [||])
    in
    let auto_id = Hashtbl.create 8 in
    List.iteri
      (fun ia (a : M.automaton) -> Hashtbl.replace auto_id a.M.auto_name ia)
      model.M.automata;
    List.iter
      (fun (auto, per_loc) ->
        let ia = Hashtbl.find auto_id auto in
        List.iter
          (fun (loc, clocks) ->
            let k = S.loc_index net ~auto:ia loc in
            tbl.(ia).(k) <- Array.of_list (List.map cidx clocks))
          per_loc)
      (Slice_ta.clock_activity model);
    tbl
  in
  (* Per-(automaton, location) LU arrays by DBM index, from the
     backward fixpoint; settle composes them per state.  Location order
     matches zautos: both come from the model's location lists via
     S.loc_index. *)
  let lub = Lubounds.analyze_cached model in
  let loc_tbl select =
    Array.of_list
      (List.mapi
         (fun ia (a : M.automaton) ->
           let arr = Array.make (Array.length zautos.(ia)) [||] in
           List.iter
             (fun (l : M.location) ->
               let li = S.loc_index net ~auto:ia l.M.loc_name in
               let row = Array.make dim (-1) in
               for k = 1 to dim - 1 do
                 row.(k) <-
                   select
                     (Lubounds.bounds lub ~auto:a.M.auto_name
                        ~loc:l.M.loc_name ~clock:zclock_names.(k))
               done;
               arr.(li) <- row)
             a.M.locations;
           arr)
         model.M.automata)
  in
  {
    znet = net;
    zn;
    zdim = dim;
    zautos;
    zchans;
    zcaps;
    zlub = lub;
    zloc_l = loc_tbl fst;
    zloc_u = loc_tbl snd;
    zscr_l = Array.make dim (-1);
    zscr_u = Array.make dim (-1);
    zinactive;
    zclock_names;
  }

let net t = t.znet
let dim t = t.zdim

let lu_bounds t =
  List.init (t.zdim - 1) (fun k ->
      let name = t.zclock_names.(k + 1) in
      let l, u = Lubounds.global_bounds t.zlub name in
      (name, l, u))

let lu_tables t =
  List.init t.zn (fun i ->
      ( S.auto_name_at t.znet i,
        List.init
          (Array.length t.zautos.(i))
          (fun k ->
            ( S.loc_name_at t.znet i k,
              List.init (t.zdim - 1) (fun j ->
                  ( t.zclock_names.(j + 1),
                    t.zloc_l.(i).(k).(j + 1),
                    t.zloc_u.(i).(k).(j + 1) )) )) ))

(* --- successor relation --------------------------------------------- *)

let constrain_atom t z (a : atom) disc =
  let b = a.at_bound disc in
  if a.at_lower then
    Dbm.constrain ~dim:t.zdim z 0 a.at_i (Dbm.bnd (-b) ~strict:a.at_strict)
  else Dbm.constrain ~dim:t.zdim z a.at_i 0 (Dbm.bnd b ~strict:a.at_strict)

(* Post-transition pipeline: target invariants, delay (unless a target
   location is urgent or committed), invariants again, inactive-clock
   zeroing, location Extra_LU.  [z] is owned by the caller and
   consumed. *)
let settle t disc z : state option =
  let ok = ref true in
  for i = 0 to t.zn - 1 do
    if !ok then begin
      let l = t.zautos.(i).(disc.(i)) in
      if not (l.zl_inv_data disc) then ok := false
      else
        List.iter
          (fun a -> if !ok && not (constrain_atom t z a disc) then ok := false)
          l.zl_inv_atoms
    end
  done;
  if not !ok then None
  else begin
    let urgent = ref false in
    for i = 0 to t.zn - 1 do
      match t.zautos.(i).(disc.(i)).zl_kind with
      | M.Urgent | M.Committed -> urgent := true
      | M.Normal -> ()
    done;
    if not !urgent then begin
      Dbm.up ~dim:t.zdim z;
      (* re-imposing invariants on a superset of a zone that satisfied
         them cannot empty it *)
      for i = 0 to t.zn - 1 do
        List.iter
          (fun a -> ignore (constrain_atom t z a disc : bool))
          t.zautos.(i).(disc.(i)).zl_inv_atoms
      done
    end;
    for i = 0 to t.zn - 1 do
      Array.iter
        (fun k -> Dbm.reset ~dim:t.zdim z k)
        t.zinactive.(i).(disc.(i))
    done;
    (* compose the per-state bounds: max over the automata's current
       locations, then the Daws-Yovine degenerate case — an inactive
       clock (just reset to zero above) is never compared before its
       next reset, i.e. L = U = -1 *)
    let l = t.zscr_l and u = t.zscr_u in
    for k = 1 to t.zdim - 1 do
      l.(k) <- -1;
      u.(k) <- -1
    done;
    for i = 0 to t.zn - 1 do
      let bl = t.zloc_l.(i).(disc.(i)) and bu = t.zloc_u.(i).(disc.(i)) in
      for k = 1 to t.zdim - 1 do
        if bl.(k) > l.(k) then l.(k) <- bl.(k);
        if bu.(k) > u.(k) then u.(k) <- bu.(k)
      done
    done;
    for i = 0 to t.zn - 1 do
      Array.iter
        (fun k ->
          l.(k) <- -1;
          u.(k) <- -1)
        t.zinactive.(i).(disc.(i))
    done;
    Dbm.extrapolate_lu ~dim:t.zdim z ~l ~u;
    Some { disc; dbm = z }
  end

(* Case-split on the integer values of the clocks an update sequence
   reads: one branch per value in [lo .. min(hi, cap)], plus the
   saturation branch [c >= cap] reading [cap]. *)
let enumerate t z (reads : int list) : (Dbm.t * int array) list =
  match reads with
  | [] -> [ (z, [||]) ] (* the valuation is never consulted *)
  | _ ->
      let expand acc k =
        List.concat_map
          (fun (z, vals) ->
            let cap = t.zcaps.(k) in
            let lo = min (max 0 (Dbm.clock_lo ~dim:t.zdim z k)) cap in
            let hi =
              match Dbm.clock_hi ~dim:t.zdim z k with
              | None -> cap
              | Some h -> min h cap
            in
            let out = ref [] in
            for v = lo to hi do
              let z' = Dbm.copy z in
              let ok =
                if v < cap then
                  Dbm.constrain ~dim:t.zdim z' k 0 (Dbm.bnd v ~strict:false)
                  && Dbm.constrain ~dim:t.zdim z' 0 k
                       (Dbm.bnd (-v) ~strict:false)
                else
                  (* saturation: everything at or above the cap reads cap *)
                  Dbm.constrain ~dim:t.zdim z' 0 k (Dbm.bnd (-v) ~strict:false)
              in
              if ok then begin
                let vals' = Array.copy vals in
                vals'.(k) <- v;
                out := (z', vals') :: !out
              end
            done;
            List.rev !out)
          acc
      in
      List.fold_left expand [ (z, Array.make t.zdim 0) ] reads

(* One macro transition: [parts] is the list of participating automata
   with their edges, in application order (sender first). *)
let apply t (st : state) parts label acc =
  let disc = st.disc in
  if List.for_all (fun (_, e) -> e.ze_data disc) parts then begin
    let z1 = Dbm.copy st.dbm in
    let ok =
      List.for_all
        (fun (_, e) ->
          List.for_all (fun a -> constrain_atom t z1 a disc) e.ze_atoms)
        parts
    in
    if ok then begin
      let reads =
        let reset = Hashtbl.create 4 and out = ref [] in
        List.iter
          (fun (_, e) ->
            List.iter
              (function
                | U_reset k -> Hashtbl.replace reset k ()
                | U_assign (_, ks) ->
                    List.iter
                      (fun k ->
                        if not (Hashtbl.mem reset k) && not (List.mem k !out)
                        then out := k :: !out)
                      ks)
              e.ze_updates)
          parts;
        List.rev !out
      in
      List.iter
        (fun (z2, vals) ->
          let disc' = Array.copy disc in
          List.iter (fun (i, e) -> disc'.(i) <- e.ze_dst) parts;
          let reset_so_far = Array.make t.zdim false in
          let valu k = if reset_so_far.(k) then 0 else vals.(k) in
          List.iter
            (fun (_, e) ->
              List.iter
                (function
                  | U_reset k ->
                      Dbm.reset ~dim:t.zdim z2 k;
                      reset_so_far.(k) <- true
                  | U_assign (f, _) -> f disc' valu)
                e.ze_updates)
            parts;
          match settle t disc' z2 with
          | Some s -> acc := (S.Act label, s) :: !acc
          | None -> ())
        (enumerate t z1 reads)
    end
  end

let initial t : state =
  let disc = S.cells (S.initial t.znet) in
  let z = Dbm.zero ~dim:t.zdim in
  (* S.compile proved the zero valuation satisfies every initial
     invariant, so the settled zone cannot be empty *)
  match settle t disc z with
  | Some s -> s
  | None -> invalid_arg "zone: initial zone is empty"

let successors t (st : state) : (S.label * state) list =
  let disc = st.disc in
  let acc = ref [] in
  let n = t.zn in
  let cur i = t.zautos.(i).(disc.(i)) in
  let committed =
    let rec go i = i < n && ((cur i).zl_kind = M.Committed || go (i + 1)) in
    go 0
  in
  let allowed i = (not committed) || (cur i).zl_kind = M.Committed in
  (* internal edges *)
  for i = 0 to n - 1 do
    if allowed i then
      List.iter (fun e -> apply t st [ (i, e) ] e.ze_label acc) (cur i).zl_tau
  done;
  (* synchronisations — same pairing rules as Ta.Semantics.successors *)
  Array.iteri
    (fun ch (cd : M.chan_decl) ->
      if not cd.M.broadcast then begin
        for i = 0 to n - 1 do
          List.iter
            (fun es ->
              if es.ze_data disc then
                for j = 0 to n - 1 do
                  if j <> i && ((not committed) || allowed i || allowed j)
                  then
                    List.iter
                      (fun er ->
                        if er.ze_data disc then
                          apply t st [ (i, es); (j, er) ] es.ze_label acc)
                      (cur j).zl_recv.(ch)
                done)
            (cur i).zl_send.(ch)
        done
      end
      else
        for i = 0 to n - 1 do
          List.iter
            (fun es ->
              if es.ze_data disc then begin
                (* receivers have data-only guards (enforced by
                   [compile]), so participation is determined by the
                   discrete part alone *)
                let receivers =
                  List.init n (fun j ->
                      if j = i then (j, [])
                      else
                        ( j,
                          List.filter
                            (fun e -> e.ze_data disc)
                            (cur j).zl_recv.(ch) ))
                in
                let participating =
                  List.filter (fun (_, l) -> l <> []) receivers
                in
                let committed_ok =
                  (not committed) || allowed i
                  || List.exists (fun (j, _) -> allowed j) participating
                in
                if committed_ok then begin
                  let rec expand chosen = function
                    | [] ->
                        apply t st
                          ((i, es) :: List.rev chosen)
                          es.ze_label acc
                    | (j, choices) :: rest ->
                        List.iter
                          (fun e -> expand ((j, e) :: chosen) rest)
                          choices
                  in
                  expand [] participating
                end
              end)
            (cur i).zl_send.(ch)
        done)
    t.zchans;
  List.rev !acc

(* --- packaging ------------------------------------------------------ *)

let equal_disc (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let equal_state a b = equal_disc a.disc b.disc && Dbm.equal a.dbm b.dbm

let hash_state (s : state) =
  let h = ref (Dbm.hash s.dbm) in
  Array.iter
    (fun x -> h := (!h lxor x) * 0x01000193 land max_int)
    s.disc;
  !h

let subsumes t big small =
  equal_disc big.disc small.disc
  && Dbm.includes ~dim:t.zdim big.dbm small.dbm

let pp_state t ppf (s : state) =
  Format.fprintf ppf "@[<h>%a| %a@]"
    (S.pp_config t.znet)
    (S.of_cells s.disc)
    (Dbm.pp ~dim:t.zdim ~names:t.zclock_names)
    s.dbm

let bad_of _t (p : S.config -> bool) (s : state) = p (S.of_cells s.disc)

let system (t : t) : (state, S.label) Mc.System.t =
  (module struct
    type nonrec state = state
    type label = S.label

    let initial = initial t
    let successors = successors t
    let equal_state = equal_state
    let hash_state = hash_state
    let pp_state = pp_state t
    let pp_label = S.pp_label
  end)

(* --- lint section --------------------------------------------------- *)

let diagnostics (m : M.t) : Lint_report.diag list =
  let module R = Lint_report in
  let an = analyze_model m in
  let frag =
    List.map
      (fun (where, code, reason) ->
        R.diag ~severity:R.Error ~code ~where "%s" reason)
      an.an_errors
  in
  let bcast =
    List.map
      (fun where ->
        R.diag ~severity:R.Error ~code:"TA-ZONE-BROADCAST" ~where
          "broadcast receiver with a clock guard: zone participation must \
           be a function of the discrete part")
      an.an_bcast_bad
  in
  let nonint =
    List.map
      (fun (where, clock) ->
        R.diag ~severity:R.Error ~code:"TA-ZONE-NONINT" ~where
          "clock %s compared against an expression with integer division; \
           dense-time and discrete evaluation can disagree"
          clock)
      an.an_nonint
  in
  let reads =
    List.map
      (fun (where, clocks) ->
        R.diag ~severity:R.Info ~code:"TA-ZONE-READ" ~where
          "update reads clock%s %s: the zone successor case-splits on the \
           integer value (saturated at the cap)"
          (if List.length clocks > 1 then "s" else "")
          (String.concat ", " clocks))
      an.an_reads
  in
  let lub = Lubounds.analyze_cached m in
  let lu =
    List.map
      (fun (c : M.clock_decl) ->
        let name = c.M.clock_name in
        let l, u = Lubounds.global_bounds lub name in
        let show v = if v < 0 then "none" else string_of_int v in
        R.diag ~severity:R.Info ~code:"TA-ZONE-LU" ~where:name
          "Extra_LU bounds: L=%s U=%s (cap %d)" (show l) (show u) c.M.cap)
      m.M.clocks
  in
  frag @ bcast @ nonint @ reads @ lu
