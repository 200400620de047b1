type config = int array
(* Layout: [| loc_0 .. loc_{A-1} ; clock_0 .. clock_{C-1} ; vars ... |] *)

type label = Delay | Act of string

type env = {
  lookup_var : string -> int * int; (* offset, size *)
  lookup_clock : string -> int; (* offset *)
}

type edge = {
  e_guard : config -> bool;
  e_updates : (config -> unit) array; (* applied in place, in order *)
  e_dst : int;
  e_label : string;
}

type compiled_loc = {
  l_name : string;
  l_kind : Model.loc_kind;
  l_invariant : (config -> bool) option; (* [None]: the invariant is [true] *)
  l_tau : edge list;
  l_send : (int * edge) list; (* channel, edge *)
  l_recv : (int * edge) list;
}

type compiled_auto = {
  a_name : string;
  a_locs : compiled_loc array;
}

(* --- move menus --------------------------------------------------------- *)

(* The non-trivial invariants of a move's target location vector, in
   automaton order. *)
type invariants = (config -> bool) array

type receiver = { r_auto : int; r_edge : edge; r_invs : invariants }

(* A broadcast participant: automaton [g_auto]'s receiving edges on the
   channel, and whether the committed-location rule lets it move. *)
type group = { g_auto : int; g_allowed : bool; g_edges : edge array }

type move =
  | Tau of { auto : int; edge : edge; invs : invariants }
  | Binary of { auto : int; send : edge; recvs : receiver array }
      (* one sender edge with its receiver edges, already filtered by the
         committed-location rule *)
  | Broadcast of {
      auto : int;
      send : edge;
      alone : bool; (* the committed rule lets the sender move by itself *)
      groups : group array;
    }

(* Every candidate move of one location vector, in the order the
   successor list takes: tau edges, then per channel the binary pairs and
   broadcast sends; [delay] is [None] when an urgent or committed location
   is occupied, else the vector's non-trivial invariants. *)
type menu = { moves : move array; delay : invariants option }

module Imap = Map.Make (Int)

(* Keys are location vectors, a configuration's first cells (one per
   automaton).  A lookup passes the whole configuration, so cells are
   compared up to the shorter array, which is always the stored key. *)
module Vmap = Map.Make (struct
  type t = int array

  let compare (a : t) (b : t) =
    let n = min (Array.length a) (Array.length b) in
    let rec go i =
      if i = n then 0
      else
        let d = Int.compare a.(i) b.(i) in
        if d <> 0 then d else go (i + 1)
    in
    go 0
end)

(* Menus by location vector.  A vector is keyed by its mixed-radix code
   while the product of location counts fits in an int, and by itself
   beyond that.  Each map is immutable: a miss builds the menu and
   publishes a new map by compare-and-set, so several domains can expand
   one net and the hit path takes no lock. *)
type memo =
  | Codes of int array * menu Imap.t Atomic.t (* radix per automaton *)
  | Vectors of menu Vmap.t Atomic.t

type t = {
  autos : compiled_auto array;
  auto_index : (string, int) Hashtbl.t;
  loc_indices : (string, int) Hashtbl.t array; (* per automaton *)
  num_clocks : int;
  clock_offset : int;
  clock_caps : int array;
  env : env;
  chans : Model.chan_decl array;
  init_config : config;
  memo : memo;
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* --- expression compilation --- *)

let scalar env name =
  let off, size = env.lookup_var name in
  if size <> 1 then fail "variable %s is an array, not a scalar" name;
  off

let rec compile_expr env (e : Expr.t) : config -> int =
  let ce = compile_expr env in
  match e with
  | Expr.Int n -> fun _ -> n
  | Expr.Var name ->
      let off = scalar env name in
      fun c -> c.(off)
  | Expr.Elem (name, idx) ->
      let off, size = env.lookup_var name in
      let fidx = ce idx in
      fun c ->
        let k = fidx c in
        if k < 0 || k >= size then fail "index %d out of bounds for %s" k name;
        c.(off + k)
  | Expr.Clock name ->
      let off = env.lookup_clock name in
      fun c -> c.(off)
  | Expr.Add (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> fa c + fb c
  | Expr.Sub (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> fa c - fb c
  | Expr.Mul (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> fa c * fb c
  | Expr.Div (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> fa c / fb c
  | Expr.Min (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> min (fa c) (fb c)
  | Expr.Max (a, b) ->
      let fa = ce a and fb = ce b in
      fun c -> max (fa c) (fb c)

(* A cell compared with a constant: one closure. *)
let compare_cell (cmp : Expr.cmp) off k : config -> bool =
  match cmp with
  | Expr.Lt -> fun c -> c.(off) < k
  | Expr.Le -> fun c -> c.(off) <= k
  | Expr.Eq -> fun c -> c.(off) = k
  | Expr.Ge -> fun c -> c.(off) >= k
  | Expr.Gt -> fun c -> c.(off) > k
  | Expr.Ne -> fun c -> c.(off) <> k

let rec compile_bexpr env (b : Expr.b) : config -> bool =
  let cb = compile_bexpr env and ce = compile_expr env in
  match b with
  | Expr.True -> fun _ -> true
  | Expr.False -> fun _ -> false
  | Expr.Cmp (cmp, Expr.Var x, Expr.Int k) -> compare_cell cmp (scalar env x) k
  | Expr.Cmp (cmp, Expr.Clock x, Expr.Int k) ->
      compare_cell cmp (env.lookup_clock x) k
  | Expr.Cmp (cmp, a, b) ->
      let fa = ce a and fb = ce b in
      let op : int -> int -> bool =
        match cmp with
        | Expr.Lt -> ( < )
        | Expr.Le -> ( <= )
        | Expr.Eq -> ( = )
        | Expr.Ge -> ( >= )
        | Expr.Gt -> ( > )
        | Expr.Ne -> ( <> )
      in
      fun c -> op (fa c) (fb c)
  | Expr.Not b ->
      let fb = cb b in
      fun c -> not (fb c)
  | Expr.And (a, b) ->
      let fa = cb a and fb = cb b in
      fun c -> fa c && fb c
  | Expr.Or (a, b) ->
      let fa = cb a and fb = cb b in
      fun c -> fa c || fb c

let compile_update env (u : Model.update) : config -> unit =
  match u with
  | Model.Reset name ->
      let off = env.lookup_clock name in
      fun c -> c.(off) <- 0
  | Model.Assign (Model.Scalar name, e) ->
      let off, size = env.lookup_var name in
      if size <> 1 then fail "assignment to array %s without index" name;
      let fe = compile_expr env e in
      fun c -> c.(off) <- fe c
  | Model.Assign (Model.Element (name, idx), e) ->
      let off, size = env.lookup_var name in
      let fidx = compile_expr env idx in
      let fe = compile_expr env e in
      fun c ->
        let k = fidx c in
        if k < 0 || k >= size then fail "index %d out of bounds for %s" k name;
        c.(off + k) <- fe c

(* --- network compilation --- *)

(* The mixed-radix weights of location vectors, or [None] when the
   product of location counts does not fit in an int. *)
let radix autos =
  let n = Array.length autos in
  let r = Array.make n 0 in
  let rec go i prod =
    if i = n then Some r
    else begin
      r.(i) <- prod;
      let k = Array.length autos.(i).a_locs in
      if prod > max_int / k then None else go (i + 1) (prod * k)
    end
  in
  go 0 1

let compile (net : Model.t) : t =
  let num_autos = List.length net.Model.automata in
  let num_clocks = List.length net.Model.clocks in
  let clock_offset = num_autos in
  let var_offset = num_autos + num_clocks in
  let clock_index = Hashtbl.create 8 in
  let clock_caps = Array.make num_clocks 0 in
  List.iteri
    (fun k (cd : Model.clock_decl) ->
      if Hashtbl.mem clock_index cd.Model.clock_name then
        fail "duplicate clock %s" cd.Model.clock_name;
      Hashtbl.add clock_index cd.Model.clock_name (clock_offset + k);
      clock_caps.(k) <- cd.Model.cap)
    net.Model.clocks;
  let var_layout = Hashtbl.create 8 in
  let var_inits = ref [] in
  let var_cells = ref 0 in
  List.iter
    (fun (vd : Model.var_decl) ->
      if Hashtbl.mem var_layout vd.Model.var_name then
        fail "duplicate variable %s" vd.Model.var_name;
      let size = List.length vd.Model.init in
      if size = 0 then
        fail "variable %s has no initial value" vd.Model.var_name;
      Hashtbl.add var_layout vd.Model.var_name (var_offset + !var_cells, size);
      var_inits := List.rev_append vd.Model.init !var_inits;
      var_cells := !var_cells + size)
    net.Model.vars;
  let var_inits = List.rev !var_inits in
  let chans = Array.of_list net.Model.chans in
  let chan_id = Hashtbl.create 8 in
  Array.iteri
    (fun k (cd : Model.chan_decl) ->
      if Hashtbl.mem chan_id cd.Model.chan_name then
        fail "duplicate channel %s" cd.Model.chan_name;
      Hashtbl.add chan_id cd.Model.chan_name k)
    chans;
  let env =
    {
      lookup_var =
        (fun name ->
          match Hashtbl.find_opt var_layout name with
          | Some x -> x
          | None -> fail "unknown variable %s" name);
      lookup_clock =
        (fun name ->
          match Hashtbl.find_opt clock_index name with
          | Some x -> x
          | None -> fail "unknown clock %s" name);
    }
  in
  let auto_index = Hashtbl.create 8 in
  List.iteri
    (fun i (a : Model.automaton) ->
      if Hashtbl.mem auto_index a.Model.auto_name then
        fail "duplicate automaton %s" a.Model.auto_name;
      Hashtbl.add auto_index a.Model.auto_name i)
    net.Model.automata;
  let loc_indices = Array.make num_autos (Hashtbl.create 0) in
  let compile_auto i (a : Model.automaton) : compiled_auto =
    let loc_index = Hashtbl.create 8 in
    List.iteri
      (fun k (l : Model.location) ->
        if Hashtbl.mem loc_index l.Model.loc_name then
          fail "duplicate location %s in %s" l.Model.loc_name a.Model.auto_name;
        Hashtbl.add loc_index l.Model.loc_name k)
      a.Model.locations;
    loc_indices.(i) <- loc_index;
    let find_loc name =
      match Hashtbl.find_opt loc_index name with
      | Some k -> k
      | None -> fail "unknown location %s in %s" name a.Model.auto_name
    in
    let find_chan name =
      match Hashtbl.find_opt chan_id name with
      | Some k -> k
      | None -> fail "unknown channel %s" name
    in
    let invariants =
      Array.of_list
        (List.map
           (fun (l : Model.location) ->
             match l.Model.invariant with
             | Expr.True -> None
             | inv -> Some (compile_bexpr env inv))
           a.Model.locations)
    in
    (* Each edge is compiled once and pushed onto its source location's
       list, a synchronising one tagged with its channel (reversed here,
       put in model order below).  Menus are built from these lists, so
       compiling allocates no array per location or channel. *)
    let num_locs = Hashtbl.length loc_index in
    let tau = Array.make num_locs [] in
    let send = Array.make num_locs [] in
    let recv = Array.make num_locs [] in
    List.iter
      (fun (e : Model.edge) ->
        let src = find_loc e.Model.src in
        let default_label =
          match e.Model.sync with
          | Model.Tau -> "tau"
          | Model.Send ch -> ch ^ "!"
          | Model.Recv ch -> ch ^ "?"
        in
        let ce =
          {
            e_guard = compile_bexpr env e.Model.guard;
            e_updates =
              Array.of_list (List.map (compile_update env) e.Model.updates);
            e_dst = find_loc e.Model.dst;
            e_label = Option.value e.Model.act ~default:default_label;
          }
        in
        match e.Model.sync with
        | Model.Tau -> tau.(src) <- ce :: tau.(src)
        | Model.Send ch -> send.(src) <- (find_chan ch, ce) :: send.(src)
        | Model.Recv ch -> recv.(src) <- (find_chan ch, ce) :: recv.(src))
      a.Model.edges;
    let locs =
      Array.of_list
        (List.mapi
           (fun k (l : Model.location) ->
             {
               l_name = l.Model.loc_name;
               l_kind = l.Model.kind;
               l_invariant = invariants.(k);
               l_tau = List.rev tau.(k);
               l_send = List.rev send.(k);
               l_recv = List.rev recv.(k);
             })
           a.Model.locations)
    in
    { a_name = a.Model.auto_name; a_locs = locs }
  in
  let autos =
    Array.of_list (List.mapi compile_auto net.Model.automata)
  in
  let init_config =
    Array.of_list
      (List.map
         (fun (a : Model.automaton) ->
           match Hashtbl.find_opt loc_indices.(Hashtbl.find auto_index a.Model.auto_name) a.Model.init_loc with
           | Some k -> k
           | None ->
               fail "unknown initial location %s in %s" a.Model.init_loc
                 a.Model.auto_name)
         net.Model.automata
      @ List.init num_clocks (fun _ -> 0)
      @ var_inits)
  in
  let memo =
    match radix autos with
    | Some r -> Codes (r, Atomic.make Imap.empty)
    | None -> Vectors (Atomic.make Vmap.empty)
  in
  let t =
    {
      autos;
      auto_index;
      loc_indices;
      num_clocks;
      clock_offset;
      clock_caps;
      env;
      chans;
      init_config;
      memo;
    }
  in
  (* Reject models whose initial configuration violates an invariant. *)
  Array.iteri
    (fun i a ->
      match a.a_locs.(init_config.(i)).l_invariant with
      | Some inv when not (inv init_config) ->
          fail "initial invariant of %s violated" a.a_name
      | _ -> ())
    autos;
  t

(* --- move menus --- *)

let build_menu t (c : config) : menu =
  let n = Array.length t.autos in
  let loc i = t.autos.(i).a_locs.(c.(i)) in
  let kind_present p =
    let rec go i = i < n && (p (loc i).l_kind || go (i + 1)) in
    go 0
  in
  let committed = kind_present (( = ) Model.Committed) in
  let allowed i = (not committed) || (loc i).l_kind = Model.Committed in
  (* The non-trivial invariants of [c]'s vector with the automata of
     [moved] sent to new locations.  A move that keeps every moved
     automaton's invariant (a loop, or between locations without one)
     shares the array of [c]'s own vector. *)
  let inv k l = t.autos.(k).a_locs.(l).l_invariant in
  let invariants_of moved =
    let acc = ref [] in
    for k = n - 1 downto 0 do
      match inv k (Option.value (List.assoc_opt k moved) ~default:c.(k)) with
      | Some f -> acc := f :: !acc
      | None -> ()
    done;
    Array.of_list !acc
  in
  let own = invariants_of [] in
  let invariants moved =
    if List.for_all (fun (k, l) -> inv k l == inv k c.(k)) moved then own
    else invariants_of moved
  in
  let moves = ref [] in
  for i = 0 to n - 1 do
    if allowed i then
      List.iter
        (fun e ->
          moves :=
            Tau { auto = i; edge = e; invs = invariants [ (i, e.e_dst) ] }
            :: !moves)
        (loc i).l_tau
  done;
  let on ch edges =
    List.filter_map (fun (k, e) -> if k = ch then Some e else None) edges
  in
  Array.iteri
    (fun ch (cd : Model.chan_decl) ->
      for i = 0 to n - 1 do
        List.iter
          (fun send ->
            if not cd.Model.broadcast then begin
              (* binary handshake: sender i, receiver j, i <> j *)
              let recvs = ref [] in
              for j = 0 to n - 1 do
                if j <> i && ((not committed) || allowed i || allowed j) then
                  List.iter
                    (fun er ->
                      recvs :=
                        {
                          r_auto = j;
                          r_edge = er;
                          r_invs = invariants [ (i, send.e_dst); (j, er.e_dst) ];
                        }
                        :: !recvs)
                    (on ch (loc j).l_recv)
              done;
              moves :=
                Binary
                  { auto = i; send; recvs = Array.of_list (List.rev !recvs) }
                :: !moves
            end
            else begin
              (* broadcast: every automaton with an enabled receiving edge
                 participates *)
              let groups =
                List.filter_map
                  (fun j ->
                    match on ch (loc j).l_recv with
                    | _ when j = i -> None
                    | [] -> None
                    | edges ->
                        Some
                          {
                            g_auto = j;
                            g_allowed = allowed j;
                            g_edges = Array.of_list edges;
                          })
                  (List.init n Fun.id)
              in
              moves :=
                Broadcast
                  {
                    auto = i;
                    send;
                    alone = (not committed) || allowed i;
                    groups = Array.of_list groups;
                  }
                :: !moves
            end)
          (on ch (loc i).l_send)
      done)
    t.chans;
  let urgent = function
    | Model.Urgent | Model.Committed -> true
    | Model.Normal -> false
  in
  {
    moves = Array.of_list (List.rev !moves);
    delay = (if kind_present urgent then None else Some own);
  }

(* Add [m] under [key] unless a racing domain published a menu for it
   first, and return the menu the map keeps. *)
let rec publish find add memo key m =
  let menus = Atomic.get memo in
  match find key menus with
  | m' -> m'
  | exception Not_found ->
      if Atomic.compare_and_set memo menus (add key m menus) then m
      else publish find add memo key m

(* The menu of [c]'s location vector, built on its first visit.  Domains
   racing on one miss each build an equal menu; the first to publish
   wins and the others use its menu. *)
let menu t (c : config) =
  match t.memo with
  | Codes (radix, memo) -> (
      let code = ref 0 in
      for i = 0 to Array.length radix - 1 do
        code := !code + (c.(i) * radix.(i))
      done;
      let code = !code in
      match Imap.find code (Atomic.get memo) with
      | m -> m
      | exception Not_found ->
          publish Imap.find Imap.add memo code (build_menu t c))
  | Vectors memo -> (
      match Vmap.find c (Atomic.get memo) with
      | m -> m
      | exception Not_found ->
          publish Vmap.find Vmap.add memo
            (Array.sub c 0 (Array.length t.autos))
            (build_menu t c))

let edge_dst e = e.e_dst
let edge_label e = e.e_label

let loc_edges t ~auto ~loc =
  let l = t.autos.(auto).a_locs.(loc) in
  l.l_tau @ List.map snd l.l_send @ List.map snd l.l_recv

(* --- successor relation --- *)

let rec holds (invs : invariants) c k =
  k >= Array.length invs || (invs.(k) c && holds invs c (k + 1))

(* Every automaton's invariant, for broadcast targets, whose vector
   depends on which receivers are enabled. *)
let invariants_ok t (c : config) =
  let n = Array.length t.autos in
  let rec go i =
    i >= n
    || (match t.autos.(i).a_locs.(c.(i)).l_invariant with
       | None -> true
       | Some inv -> inv c)
       && go (i + 1)
  in
  go 0

let apply c (e : edge) i =
  c.(i) <- e.e_dst;
  let us = e.e_updates in
  for k = 0 to Array.length us - 1 do
    us.(k) c
  done

let delayed t (c : config) =
  let c' = Array.copy c in
  for k = 0 to t.num_clocks - 1 do
    let off = t.clock_offset + k in
    if c'.(off) < t.clock_caps.(k) then c'.(off) <- c'.(off) + 1
  done;
  c'

(* The successors of one broadcast send, consed onto [acc]: every
   receiving guard is evaluated, in automaton then edge order, and the
   choice of receiving edge per participant is enumerated with the first
   participant outermost. *)
let broadcast t c ~auto ~send ~alone ~groups acc =
  if not (send.e_guard c) then acc
  else begin
    let rec enabled edges k =
      if k = Array.length edges then []
      else if edges.(k).e_guard c then edges.(k) :: enabled edges (k + 1)
      else enabled edges (k + 1)
    in
    let rec participants k =
      if k = Array.length groups then []
      else
        let g = groups.(k) in
        match enabled g.g_edges 0 with
        | [] -> participants (k + 1)
        | es -> (g, es) :: participants (k + 1)
    in
    let participating = participants 0 in
    if not (alone || List.exists (fun (g, _) -> g.g_allowed) participating)
    then acc
    else
      let rec expand chosen rest acc =
        match rest with
        | [] ->
            let c' = Array.copy c in
            apply c' send auto;
            List.iter (fun (j, e) -> apply c' e j) (List.rev chosen);
            if invariants_ok t c' then (Act send.e_label, c') :: acc else acc
        | (g, choices) :: rest ->
            List.fold_left
              (fun acc e -> expand ((g.g_auto, e) :: chosen) rest acc)
              acc choices
      in
      expand [] participating acc
  end

let successors t (c : config) : (label * config) list =
  let m = menu t c in
  let acc = ref [] in
  let moves = m.moves in
  for k = 0 to Array.length moves - 1 do
    match moves.(k) with
    | Tau { auto; edge; invs } ->
        if edge.e_guard c then begin
          let c' = Array.copy c in
          apply c' edge auto;
          if holds invs c' 0 then acc := (Act edge.e_label, c') :: !acc
        end
    | Binary { auto; send; recvs } ->
        if send.e_guard c then
          for r = 0 to Array.length recvs - 1 do
            let { r_auto; r_edge; r_invs } = recvs.(r) in
            if r_edge.e_guard c then begin
              let c' = Array.copy c in
              apply c' send auto;
              apply c' r_edge r_auto;
              if holds r_invs c' 0 then acc := (Act send.e_label, c') :: !acc
            end
          done
    | Broadcast { auto; send; alone; groups } ->
        acc := broadcast t c ~auto ~send ~alone ~groups !acc
  done;
  (match m.delay with
  | Some invs ->
      let c' = delayed t c in
      if holds invs c' 0 then acc := (Delay, c') :: !acc
  | None -> ());
  List.rev !acc

let deadlocked t (c : config) =
  let m = menu t c in
  let fires = function
    | Tau { auto; edge; invs } ->
        edge.e_guard c
        &&
        let c' = Array.copy c in
        apply c' edge auto;
        holds invs c' 0
    | Binary { auto; send; recvs } ->
        send.e_guard c
        && Array.exists
             (fun { r_auto; r_edge; r_invs } ->
               r_edge.e_guard c
               &&
               let c' = Array.copy c in
               apply c' send auto;
               apply c' r_edge r_auto;
               holds r_invs c' 0)
             recvs
    | Broadcast { auto; send; alone; groups } -> (
        match broadcast t c ~auto ~send ~alone ~groups [] with
        | [] -> false
        | _ :: _ -> true)
  in
  not
    (Array.exists fires m.moves
    ||
    match m.delay with
    | Some invs -> holds invs (delayed t c) 0
    | None -> false)

(* --- observations --- *)

let initial t = Array.copy t.init_config

let find_auto t name =
  match Hashtbl.find_opt t.auto_index name with
  | Some i -> i
  | None -> fail "unknown automaton %s" name

let loc_is t ~auto ~loc =
  let i = find_auto t auto in
  let k =
    match Hashtbl.find_opt t.loc_indices.(i) loc with
    | Some k -> k
    | None -> fail "unknown location %s in %s" loc auto
  in
  fun (c : config) -> c.(i) = k

let var t name =
  let off, size = t.env.lookup_var name in
  if size <> 1 then fail "variable %s is an array" name;
  fun (c : config) -> c.(off)

let clock t name =
  let off = t.env.lookup_clock name in
  fun (c : config) -> c.(off)

(* --- zone-engine support ------------------------------------------------ *)

let of_cells (c : int array) : config = c
let cells (c : config) : int array = c
let num_clocks t = t.num_clocks
let clock_offset t = t.clock_offset
let clock_caps t = t.clock_caps
let lookup_var t name = t.env.lookup_var name
let lookup_clock t name = t.env.lookup_clock name
let loc_name_at t i k = t.autos.(i).a_locs.(k).l_name
let auto_name_at t i = t.autos.(i).a_name
let compile_expr_fn t e = compile_expr t.env e
let compile_bexpr_fn t b = compile_bexpr t.env b

(* Clock-activity projection support: given, per automaton and per
   location, the clocks proven inactive there (every path to the next
   read passes a reset first), build a closure that zeroes those clock
   cells.  States differing only in inactive clocks collapse to one
   representative; since nothing reads an inactive clock before
   resetting it, the projection is a label-preserving bisimulation. *)
let canonicalizer t ~inactive =
  let n = Array.length t.autos in
  let table =
    Array.init n (fun i -> Array.make (Array.length t.autos.(i).a_locs) [||])
  in
  List.iter
    (fun (auto, locs) ->
      let i = find_auto t auto in
      List.iter
        (fun (loc, clocks) ->
          let k =
            match Hashtbl.find_opt t.loc_indices.(i) loc with
            | Some k -> k
            | None -> fail "unknown location %s in %s" loc auto
          in
          table.(i).(k) <-
            Array.of_list (List.map t.env.lookup_clock clocks))
        locs)
    inactive;
  fun (c : config) ->
    let c' = ref c in
    for i = 0 to n - 1 do
      Array.iter
        (fun off ->
          if !c'.(off) <> 0 then begin
            if !c' == c then c' := Array.copy c;
            !c'.(off) <- 0
          end)
        table.(i).(c.(i))
    done;
    !c'

let pp_label ppf = function
  | Delay -> Format.pp_print_string ppf "tick"
  | Act name -> Format.pp_print_string ppf name

let pp_config t ppf (c : config) =
  let n = Array.length t.autos in
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i a -> Format.fprintf ppf "%s:%s " a.a_name a.a_locs.(c.(i)).l_name)
    t.autos;
  for k = 0 to t.num_clocks - 1 do
    Format.fprintf ppf "c%d=%d " k c.(t.clock_offset + k)
  done;
  for off = t.clock_offset + t.num_clocks to Array.length c - 1 do
    Format.fprintf ppf "v%d=%d " (off - t.clock_offset - t.num_clocks) c.(off)
  done;
  ignore n;
  Format.fprintf ppf "@]"

let hash_config (c : config) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length c - 1 do
    h := (!h lxor c.(i)) * 0x01000193 land max_int
  done;
  !h

let equal_config (a : config) (b : config) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let system (t : t) : (config, label) Mc.System.t =
  (module struct
    type state = config
    type nonrec label = label

    let initial = initial t
    let successors = successors t
    let equal_state = equal_config
    let hash_state = hash_config
    let pp_state = pp_config t
    let pp_label = pp_label
  end)
