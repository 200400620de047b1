(* The step relation [Ta.Semantics] used before it memoised a move menu
   per location vector.  It compiles guards, updates and invariants to
   closures once, but re-interprets the network at every state: it scans
   every channel x automaton pair, builds the receiver lists of every
   broadcast send and calls every automaton's invariant on every
   successor.  It is kept verbatim as a reference: the compiled relation
   (test_ta_compiled) must return the same successor list, in the same
   order, and raise the same exception in the same evaluation order when
   a guard, update or invariant raises. *)

module Expr = Ta.Expr
module Model = Ta.Model

type config = int array
(* Layout: [| loc_0 .. loc_{A-1} ; clock_0 .. clock_{C-1} ; vars ... |] *)

type label = Ta.Semantics.label = Delay | Act of string

type env = {
  lookup_var : string -> int * int; (* offset, size *)
  lookup_clock : string -> int; (* offset *)
}

type compiled_edge = {
  e_guard : config -> bool;
  e_updates : (config -> unit) list; (* applied in place, in order *)
  e_dst : int;
  e_label : string;
}

type compiled_loc = {
  l_name : string;
  l_kind : Model.loc_kind;
  l_invariant : config -> bool;
  l_tau : compiled_edge list;
  l_send : compiled_edge list array; (* per channel *)
  l_recv : compiled_edge list array;
}

type compiled_auto = {
  a_name : string;
  a_locs : compiled_loc array;
}

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
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* --- expression compilation --- *)

let rec compile_expr env (e : Expr.t) : config -> int =
  let ce = compile_expr env in
  match e with
  | Expr.Int n -> fun _ -> n
  | Expr.Var name ->
      let off, size = env.lookup_var name in
      if size <> 1 then fail "variable %s is an array, not a scalar" name;
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

let rec compile_bexpr env (b : Expr.b) : config -> bool =
  let cb = compile_bexpr env and ce = compile_expr env in
  match b with
  | Expr.True -> fun _ -> true
  | Expr.False -> fun _ -> false
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
  let num_chans = Array.length chans in
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
    let locs =
      Array.of_list
        (List.map
           (fun (l : Model.location) ->
             {
               l_name = l.Model.loc_name;
               l_kind = l.Model.kind;
               l_invariant = compile_bexpr env l.Model.invariant;
               l_tau = [];
               l_send = Array.make num_chans [];
               l_recv = Array.make num_chans [];
             })
           a.Model.locations)
    in
    (* Re-allocate the per-location arrays so they are not shared. *)
    Array.iteri
      (fun k l ->
        locs.(k) <-
          { l with l_send = Array.make num_chans []; l_recv = Array.make num_chans [] })
      locs;
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
            e_updates = List.map (compile_update env) e.Model.updates;
            e_dst = find_loc e.Model.dst;
            e_label = Option.value e.Model.act ~default:default_label;
          }
        in
        let l = locs.(src) in
        match e.Model.sync with
        | Model.Tau -> locs.(src) <- { l with l_tau = l.l_tau @ [ ce ] }
        | Model.Send ch ->
            let k = find_chan ch in
            l.l_send.(k) <- l.l_send.(k) @ [ ce ]
        | Model.Recv ch ->
            let k = find_chan ch in
            l.l_recv.(k) <- l.l_recv.(k) @ [ ce ])
      a.Model.edges;
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
    }
  in
  (* Reject models whose initial configuration violates an invariant. *)
  Array.iteri
    (fun i a ->
      let l = a.a_locs.(init_config.(i)) in
      if not (l.l_invariant init_config) then
        fail "initial invariant of %s violated" a.a_name)
    autos;
  t

(* --- successor relation --- *)

let invariants_ok t (c : config) =
  let ok = ref true in
  let i = ref 0 in
  let n = Array.length t.autos in
  while !ok && !i < n do
    let a = t.autos.(!i) in
    if not (a.a_locs.(c.(!i)).l_invariant c) then ok := false;
    incr i
  done;
  !ok

let current_loc t c i = t.autos.(i).a_locs.(c.(i))

let committed_present t c =
  let n = Array.length t.autos in
  let rec go i =
    i < n
    && ((current_loc t c i).l_kind = Model.Committed || go (i + 1))
  in
  go 0

let urgent_or_committed_present t c =
  let n = Array.length t.autos in
  let rec go i =
    if i >= n then false
    else
      match (current_loc t c i).l_kind with
      | Model.Urgent | Model.Committed -> true
      | Model.Normal -> go (i + 1)
  in
  go 0

let apply_edge c (e : compiled_edge) i =
  c.(i) <- e.e_dst;
  List.iter (fun u -> u c) e.e_updates

let successors t (c : config) : (label * config) list =
  let acc = ref [] in
  let committed = committed_present t c in
  let n = Array.length t.autos in
  let allowed i = (not committed) || (current_loc t c i).l_kind = Model.Committed in
  (* internal edges *)
  for i = 0 to n - 1 do
    if allowed i then
      List.iter
        (fun e ->
          if e.e_guard c then begin
            let c' = Array.copy c in
            apply_edge c' e i;
            if invariants_ok t c' then acc := (Act e.e_label, c') :: !acc
          end)
        (current_loc t c i).l_tau
  done;
  (* synchronisations *)
  Array.iteri
    (fun ch (cd : Model.chan_decl) ->
      if not cd.Model.broadcast then begin
        (* binary handshake: sender i, receiver j, i <> j *)
        for i = 0 to n - 1 do
          List.iter
            (fun es ->
              if es.e_guard c then
                for j = 0 to n - 1 do
                  if j <> i && ((not committed) || allowed i || allowed j)
                  then
                    List.iter
                      (fun er ->
                        if er.e_guard c then begin
                          let c' = Array.copy c in
                          apply_edge c' es i;
                          apply_edge c' er j;
                          if invariants_ok t c' then
                            acc := (Act es.e_label, c') :: !acc
                        end)
                      (current_loc t c j).l_recv.(ch)
                done)
            (current_loc t c i).l_send.(ch)
        done
      end
      else
        (* broadcast: one sender, every automaton with an enabled receiving
           edge participates; enumerate the choice of receiving edge per
           participant. *)
        for i = 0 to n - 1 do
          List.iter
            (fun es ->
              if es.e_guard c then begin
                let receivers =
                  List.init n (fun j ->
                      if j = i then (j, [])
                      else
                        ( j,
                          List.filter (fun e -> e.e_guard c)
                            (current_loc t c j).l_recv.(ch) ))
                in
                let participating =
                  List.filter (fun (_, es) -> es <> []) receivers
                in
                let committed_ok =
                  (not committed) || allowed i
                  || List.exists (fun (j, _) -> allowed j) participating
                in
                if committed_ok then begin
                  (* cartesian product over each participant's choices *)
                  let rec expand chosen = function
                    | [] ->
                        let c' = Array.copy c in
                        apply_edge c' es i;
                        List.iter
                          (fun (j, e) -> apply_edge c' e j)
                          (List.rev chosen);
                        if invariants_ok t c' then
                          acc := (Act es.e_label, c') :: !acc
                    | (j, choices) :: rest ->
                        List.iter
                          (fun e -> expand ((j, e) :: chosen) rest)
                          choices
                  in
                  expand [] participating
                end
              end)
            (current_loc t c i).l_send.(ch)
        done)
    t.chans;
  (* unit delay *)
  if not (urgent_or_committed_present t c) then begin
    let c' = Array.copy c in
    for k = 0 to t.num_clocks - 1 do
      let off = t.clock_offset + k in
      if c'.(off) < t.clock_caps.(k) then c'.(off) <- c'.(off) + 1
    done;
    if invariants_ok t c' then acc := (Delay, c') :: !acc
  end;
  List.rev !acc

let initial t = Array.copy t.init_config
