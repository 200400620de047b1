(* Zone-graph semantics: Ta.Model compiled to a successor relation over
   (discrete part, canonical DBM) pairs.

   The discrete part reuses Ta.Semantics' cell layout (locations,
   zeroed clock cells, variables), and the macro transitions are the
   moves of Ta.Semantics' memoised menu for the current location
   vector, so the synchronisation rules (tau edges, binary handshakes,
   broadcasts, committed-location priority) exist once, in lib/ta.  This
   module holds only what is symbolic: each edge's data guard, clock
   atoms and updates, keyed by the discrete compilation's edge, and each
   location's invariant and urgency.  The data fragments are compiled by
   the discrete compiler itself — the two engines cannot drift apart on
   data semantics.  Only the clock fragments get a second, symbolic
   compilation: conjunctions of atoms [c ~ e] with clock-free [e]
   (Lubounds.split, the one owner of the fragment), applied to the DBM
   as row/column constraints whose bound is evaluated against the
   current discrete part.

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
   (sound for the product; see lib/lubounds).  A clock nothing reads
   before its next reset has L = U = -1 there, and Extra_LU then
   forgets it entirely: its row and column go to infinity and its
   lower bound to 0, whatever its value. *)

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
  | U_assign of (int array -> int array -> unit) * int list
      (* the closure takes the discrete part and a clock valuation
         (by DBM index); the list is the clocks the RHS reads *)

(* The symbolic half of an edge: its automaton and target, and what it
   does to the zone; its label and synchronisation are read off the
   discrete compilation's edge. *)
type zedge = {
  ze_auto : int;
  ze_dst : int; (* S.edge_dst of the discrete edge *)
  ze_data : int array -> bool;
  ze_atoms : atom list;
  ze_updates : zupd list;
  ze_reads : bool; (* some update reads a clock *)
}

type zloc = {
  zl_urgent : bool; (* urgent or committed: no delay *)
  zl_inv_data : int array -> bool;
  zl_inv_atoms : atom list;
}

type lu = Location

type t = {
  znet : S.t;
  zn : int; (* automata *)
  zdim : int; (* clocks + 1 *)
  zedges : (S.edge * zedge) array array array;
      (* auto -> loc -> the edges leaving it, in S.loc_edges' order *)
  zlocs : zloc array array; (* auto -> loc -> invariant, urgency *)
  zcaps : int array; (* by DBM index; zcaps.(0) unused *)
  zlub : Lubounds.t;
  zloc_l : int array array array; (* auto -> loc -> DBM index -> L *)
  zloc_u : int array array array;
  zscr_l : int array; (* scratch per-state composition buffers: the *)
  zscr_u : int array; (* engine is sequential, settle owns them *)
  zclock_names : string array; (* by DBM index *)
}

type state = { disc : int array; dbm : Dbm.t }

(* --- compilation ---------------------------------------------------- *)

(* Expression compilation in the presence of clock reads: clock-free
   subtrees go through the discrete compiler (identical data
   semantics); a clock leaf consults the valuation chosen by the
   successor's case split. *)
let rec comp_e net cidx (e : E.t) :
    (int array -> int array -> int) * int list =
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
        ((fun _ v -> v.(k)), [ k ])
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

let rec all_hold c = function [] -> true | f :: fs -> f c && all_hold c fs

let comp_guard net cidx ~where (b : E.b) : (int array -> bool) * atom list =
  match Lubounds.split b with
  | data, aatoms ->
      let data_fn =
        match
          List.filter_map
            (function E.True -> None | b -> Some (S.compile_bexpr_fn net b))
            data
        with
        | [] -> fun _ -> true
        | fns -> fun d -> all_hold (S.of_cells d) fns
      in
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
  (* [f ia a li l] for every location [l] of every automaton [a], by
     model position (the numbering S.compile gives location cells). *)
  let per_loc f =
    Array.of_list
      (List.mapi
         (fun ia (a : M.automaton) ->
           Array.of_list (List.mapi (f ia a) a.M.locations))
         model.M.automata)
  in
  let zlocs =
    per_loc (fun _ a _ (l : M.location) ->
        let where =
          Printf.sprintf "%s.%s invariant" a.M.auto_name l.M.loc_name
        in
        let inv_data, inv_atoms = comp_guard net cidx ~where l.M.invariant in
        {
          zl_urgent = l.M.kind <> M.Normal;
          zl_inv_data = inv_data;
          zl_inv_atoms = inv_atoms;
        })
  in
  let sym_edge ia (a : M.automaton) se (e : M.edge) =
    let where = Printf.sprintf "%s: %s -> %s" a.M.auto_name e.M.src e.M.dst in
    let data, atoms = comp_guard net cidx ~where e.M.guard in
    let updates = List.map (comp_update net cidx) e.M.updates in
    {
      ze_auto = ia;
      ze_dst = S.edge_dst se;
      ze_data = data;
      ze_atoms = atoms;
      ze_updates = updates;
      ze_reads =
        List.exists
          (function U_assign (_, _ :: _) -> true | _ -> false)
          updates;
    }
  in
  (* Each location's outgoing edges in S.loc_edges' order (internal,
     sending, receiving, each in model order), paired with their
     symbolic halves; a menu's edges are found among them physically. *)
  let kind (e : M.edge) =
    match e.M.sync with M.Tau -> 0 | M.Send _ -> 1 | M.Recv _ -> 2
  in
  let zedges =
    per_loc (fun ia a li (l : M.location) ->
        a.M.edges
        |> List.filter (fun (e : M.edge) -> e.M.src = l.M.loc_name)
        |> List.stable_sort (fun x y -> compare (kind x) (kind y))
        |> List.map2
             (fun se e -> (se, sym_edge ia a se e))
             (S.loc_edges net ~auto:ia ~loc:li)
        |> Array.of_list)
  in
  (* Per-(automaton, location) LU arrays by DBM index, from the
     backward fixpoint; settle composes them per state. *)
  let lub = Lubounds.analyze_cached model in
  let loc_tbl select =
    per_loc (fun _ a _ (l : M.location) ->
        Array.init dim (fun k ->
            if k = 0 then -1
            else
              select
                (Lubounds.bounds lub ~auto:a.M.auto_name ~loc:l.M.loc_name
                   ~clock:zclock_names.(k))))
  in
  {
    znet = net;
    zn = Array.length zlocs;
    zdim = dim;
    zedges;
    zlocs;
    zcaps;
    zlub = lub;
    zloc_l = loc_tbl fst;
    zloc_u = loc_tbl snd;
    zscr_l = Array.make dim (-1);
    zscr_u = Array.make dim (-1);
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
          (Array.length t.zlocs.(i))
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

let rec constrain_atoms t z disc = function
  | [] -> true
  | a :: atoms -> constrain_atom t z a disc && constrain_atoms t z disc atoms

(* Do the invariants of automata [i ..] hold in [disc], conjoined into
   [z]? *)
let rec invariants_hold t disc z i =
  i >= t.zn
  ||
  let l = t.zlocs.(i).(disc.(i)) in
  l.zl_inv_data disc
  && constrain_atoms t z disc l.zl_inv_atoms
  && invariants_hold t disc z (i + 1)

(* Post-transition pipeline: target invariants, delay (unless a target
   location is urgent or committed), invariants again, location
   Extra_LU, whose re-closure visits only the clocks still bounded from
   above (Dbm.close).  [z] is owned by the caller and consumed; the
   walk allocates nothing but the resulting state. *)
let settle t disc z : state option =
  if not (invariants_hold t disc z 0) then None
  else begin
    let urgent = ref false in
    for i = 0 to t.zn - 1 do
      if t.zlocs.(i).(disc.(i)).zl_urgent then urgent := true
    done;
    if not !urgent then begin
      Dbm.up ~dim:t.zdim z;
      (* re-imposing invariants on a superset of a zone that satisfied
         them cannot empty it *)
      for i = 0 to t.zn - 1 do
        ignore
          (constrain_atoms t z disc t.zlocs.(i).(disc.(i)).zl_inv_atoms : bool)
      done
    end;
    (* compose the per-state bounds: max over the automata's current
       locations *)
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
    Dbm.extrapolate_lu ~dim:t.zdim z ~l ~u;
    Some { disc; dbm = z }
  end

(* The clocks a move's updates read before any participant resets
   them, in order of first read. *)
let clock_reads parts =
  let reset = Hashtbl.create 4 and out = ref [] in
  List.iter
    (fun ze ->
      List.iter
        (function
          | U_reset k -> Hashtbl.replace reset k ()
          | U_assign (_, ks) ->
              List.iter
                (fun k ->
                  if not (Hashtbl.mem reset k) && not (List.mem k !out) then
                    out := k :: !out)
                ks)
        ze.ze_updates)
    parts;
  List.rev !out

(* Case-split on the integer values of the clocks an update sequence
   reads: one branch per value in [lo .. min(hi, cap)], plus the
   saturation branch [c >= cap] reading [cap].  Each branch carries its
   own valuation array (by DBM index). *)
let enumerate t z (reads : int list) : (Dbm.t * int array) list =
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
              && Dbm.constrain ~dim:t.zdim z' 0 k (Dbm.bnd (-v) ~strict:false)
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

let rec find_edge out e k =
  if fst out.(k) == e then snd out.(k) else find_edge out e (k + 1)

(* The symbolic half of automaton [i]'s edge [e], which leaves its
   location in [disc]. *)
let zedge t disc i e = find_edge t.zedges.(i).(disc.(i)) e 0

let rec constrain_parts t z disc = function
  | [] -> true
  | ze :: parts ->
      constrain_atoms t z disc ze.ze_atoms && constrain_parts t z disc parts

let rec move_parts disc = function
  | [] -> ()
  | ze :: parts ->
      disc.(ze.ze_auto) <- ze.ze_dst;
      move_parts disc parts

(* A move without clock reads carries the empty valuation, which no
   update consults; a reset zeroes the clock in a branch's valuation
   for the updates after it. *)
let no_vals = [||]

let rec run_updates t disc z vals = function
  | [] -> ()
  | U_reset k :: us ->
      Dbm.reset ~dim:t.zdim z k;
      if vals != no_vals then vals.(k) <- 0;
      run_updates t disc z vals us
  | U_assign (f, _) :: us ->
      f disc vals;
      run_updates t disc z vals us

let rec run_parts t disc z vals = function
  | [] -> ()
  | ze :: parts ->
      run_updates t disc z vals ze.ze_updates;
      run_parts t disc z vals parts

(* One branch of a move: every participant takes its target location,
   then the updates run in order on the branch's zone [z], and the
   result is settled. *)
let fire t disc parts z vals label acc =
  let disc' = Array.copy disc in
  move_parts disc' parts;
  run_parts t disc' z vals parts;
  match settle t disc' z with
  | Some s -> acc := (S.Act label, s) :: !acc
  | None -> ()

(* One macro transition: [parts] are the participants' symbolic halves
   in application order (sender first), each looked up once and its
   data guard already checked.  The clock guards are conjoined on a
   copy of the zone; a move in which no participant's update reads a
   clock fires once, any other is case-split on the clocks read (a
   sender's reset can leave that list empty while a receiver's update
   still consults the valuation). *)
let apply t (st : state) parts label acc =
  let z = Dbm.copy st.dbm in
  if constrain_parts t z st.disc parts then
    if List.exists (fun ze -> ze.ze_reads) parts then
      List.iter
        (fun (z, vals) -> fire t st.disc parts z vals label acc)
        (enumerate t z (clock_reads parts))
    else fire t st.disc parts z no_vals label acc

let initial t : state =
  let disc = S.cells (S.initial t.znet) in
  let z = Dbm.zero ~dim:t.zdim in
  (* S.compile proved the zero valuation satisfies every initial
     invariant, so the settled zone cannot be empty *)
  match settle t disc z with
  | Some s -> s
  | None -> invalid_arg "zone: initial zone is empty"

(* The macro transitions are the candidate moves of the discrete
   semantics' menu for [st]'s location vector, walked in its order; each
   participant's symbolic half is looked up, and its data guard
   evaluated on the discrete part, once per move. *)
let successors t (st : state) : (S.label * state) list =
  let disc = st.disc in
  let acc = ref [] in
  Array.iter
    (function
      | S.Tau { auto; edge; _ } ->
          let ze = zedge t disc auto edge in
          if ze.ze_data disc then apply t st [ ze ] (S.edge_label edge) acc
      | S.Binary { auto; send; recvs } ->
          let zs = zedge t disc auto send in
          if zs.ze_data disc then
            Array.iter
              (fun (r : S.receiver) ->
                let zr = zedge t disc r.r_auto r.r_edge in
                if zr.ze_data disc then
                  apply t st [ zs; zr ] (S.edge_label send) acc)
              recvs
      | S.Broadcast { auto; send; alone; groups } ->
          let zs = zedge t disc auto send in
          if zs.ze_data disc then begin
            (* receivers have data-only guards (enforced by [compile]),
               so participation is determined by the discrete part
               alone *)
            let participating =
              List.filter_map
                (fun (g : S.group) ->
                  let zes =
                    List.map (zedge t disc g.g_auto) (Array.to_list g.g_edges)
                  in
                  match List.filter (fun ze -> ze.ze_data disc) zes with
                  | [] -> None
                  | zes -> Some (g.g_allowed, zes))
                (Array.to_list groups)
            in
            if alone || List.exists fst participating then
              let rec expand chosen = function
                | [] ->
                    apply t st (zs :: List.rev chosen) (S.edge_label send) acc
                | (_, choices) :: rest ->
                    List.iter (fun ze -> expand (ze :: chosen) rest) choices
              in
              expand [] participating
          end)
    (S.menu t.znet (S.of_cells disc)).moves;
  List.rev !acc

(* --- packaging ------------------------------------------------------ *)

let equal_state a b =
  S.equal_config (S.of_cells a.disc) (S.of_cells b.disc)
  && Dbm.equal a.dbm b.dbm

let hash_state (s : state) =
  let h = ref (Dbm.hash s.dbm) in
  Array.iter
    (fun x -> h := (!h lxor x) * 0x01000193 land max_int)
    s.disc;
  !h

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
