(* Static analysis of timed-automata models.

   Mirrors the checks {!Ta.Semantics.compile} performs at build time
   (duplicate declarations, unknown variables/clocks/channels/locations,
   scalar/array misuse) without raising, and adds the lints compile
   cannot do: per-automaton location reachability, channel direction
   analysis (split by handshake/broadcast semantics), clock usage, a
   flow-insensitive interval fixpoint over the shared variables with
   guard/invariant satisfiability checks, Zeno-cycle detection over
   urgent/committed locations, and a static state-count upper bound
   (product of location counts, clock domains and variable widths).

   The interval transfer recognises the arithmetic-mux idiom the
   heartbeat models use for conditional updates,
   [g*x + (1-g)*y] with [g] in [0,1], evaluating it as [join x y]
   instead of the wildly overapproximate product form. *)

module E = Ta.Expr
module M = Ta.Model
module I = Lint_interval
module R = Lint_report

module SSet = Set.Make (String)
module SMap = Map.Make (String)

let where_auto a = "automaton " ^ a
let where_edge (a : M.automaton) (e : M.edge) =
  Printf.sprintf "automaton %s, edge %s -> %s" a.M.auto_name e.M.src e.M.dst

(* --- declaration tables ----------------------------------------------- *)

type decls = {
  vars : (string, int list) Hashtbl.t;  (* name -> initial cells *)
  clocks : (string, int) Hashtbl.t;  (* name -> cap *)
  chans : (string, bool) Hashtbl.t;  (* name -> broadcast *)
}

let build_decls (m : M.t) =
  let diags = ref [] in
  let dup where what name =
    diags :=
      R.diag ~severity:R.Error ~code:"TA-DUP-DECL" ~where
        "%s %s is declared more than once" what name
      :: !diags
  in
  let d =
    {
      vars = Hashtbl.create 32;
      clocks = Hashtbl.create 8;
      chans = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (v : M.var_decl) ->
      if Hashtbl.mem d.vars v.M.var_name then
        dup ("variable " ^ v.M.var_name) "variable" v.M.var_name
      else Hashtbl.add d.vars v.M.var_name v.M.init)
    m.M.vars;
  List.iter
    (fun (c : M.clock_decl) ->
      if Hashtbl.mem d.clocks c.M.clock_name then
        dup ("clock " ^ c.M.clock_name) "clock" c.M.clock_name
      else Hashtbl.add d.clocks c.M.clock_name c.M.cap)
    m.M.clocks;
  List.iter
    (fun (c : M.chan_decl) ->
      if Hashtbl.mem d.chans c.M.chan_name then
        dup ("channel " ^ c.M.chan_name) "channel" c.M.chan_name
      else Hashtbl.add d.chans c.M.chan_name c.M.broadcast)
    m.M.chans;
  let autos = Hashtbl.create 8 in
  List.iter
    (fun (a : M.automaton) ->
      if Hashtbl.mem autos a.M.auto_name then
        dup (where_auto a.M.auto_name) "automaton" a.M.auto_name
      else Hashtbl.add autos a.M.auto_name ();
      let locs = Hashtbl.create 8 in
      List.iter
        (fun (l : M.location) ->
          if Hashtbl.mem locs l.M.loc_name then
            dup
              (Printf.sprintf "automaton %s, location %s" a.M.auto_name
                 l.M.loc_name)
              "location" l.M.loc_name
          else Hashtbl.add locs l.M.loc_name ())
        a.M.locations)
    m.M.automata;
  (d, List.rev !diags)

let is_array cells = List.length cells > 1

(* --- reference checks -------------------------------------------------- *)

let references (m : M.t) (d : decls) : R.diag list =
  let diags = ref [] in
  let err ~code ~where fmt =
    Format.kasprintf
      (fun msg ->
        diags := R.diag ~severity:R.Error ~code ~where "%s" msg :: !diags)
      fmt
  in
  let leaf ~where () (e : E.t) =
    match e with
    | E.Var x -> (
        match Hashtbl.find_opt d.vars x with
        | None -> err ~code:"TA-UNDEF-VAR" ~where "unknown variable %s" x
        | Some cells ->
            if is_array cells then
              err ~code:"TA-ARRAY" ~where "%s is an array, not a scalar" x)
    | E.Elem (x, idx) -> (
        match Hashtbl.find_opt d.vars x with
        | None -> err ~code:"TA-UNDEF-VAR" ~where "unknown variable %s" x
        | Some cells -> (
            match idx with
            | E.Int i when i < 0 || i >= List.length cells ->
                err ~code:"TA-IDX-RANGE" ~where
                  "index %d out of range for %s (size %d)" i x
                  (List.length cells)
            | _ -> ()))
    | E.Clock c ->
        if not (Hashtbl.mem d.clocks c) then
          err ~code:"TA-UNDEF-CLOCK" ~where "unknown clock %s" c
    | _ -> ()
  in
  let expr ~where = E.fold (leaf ~where) () in
  let bexpr ~where = E.fold_b (leaf ~where) () in
  List.iter
    (fun (a : M.automaton) ->
      let locs =
        List.fold_left
          (fun acc (l : M.location) -> SSet.add l.M.loc_name acc)
          SSet.empty a.M.locations
      in
      let check_loc where name =
        if not (SSet.mem name locs) then
          err ~code:"TA-UNDEF-LOC" ~where "unknown location %s" name
      in
      check_loc (where_auto a.M.auto_name) a.M.init_loc;
      List.iter
        (fun (l : M.location) ->
          bexpr
            ~where:
              (Printf.sprintf "automaton %s, location %s" a.M.auto_name
                 l.M.loc_name)
            l.M.invariant)
        a.M.locations;
      List.iter
        (fun (e : M.edge) ->
          let where = where_edge a e in
          check_loc where e.M.src;
          check_loc where e.M.dst;
          bexpr ~where e.M.guard;
          (match e.M.sync with
          | M.Tau -> ()
          | M.Send c | M.Recv c ->
              if not (Hashtbl.mem d.chans c) then
                err ~code:"TA-UNDEF-CHAN" ~where "unknown channel %s" c);
          List.iter
            (fun (u : M.update) ->
              match u with
              (* a reset or assignment target is checked like a read *)
              | M.Reset c -> expr ~where (E.Clock c)
              | M.Assign (lhs, rhs) ->
                  expr ~where
                    (match lhs with
                    | M.Scalar x -> E.Var x
                    | M.Element (x, idx) -> E.Elem (x, idx));
                  expr ~where rhs)
            e.M.updates)
        a.M.edges)
    m.M.automata;
  List.rev !diags

(* --- reachability, channels, clocks, variables ------------------------- *)

let reachable_locs (a : M.automaton) =
  let seen = ref SSet.empty in
  let rec go l =
    if not (SSet.mem l !seen) then begin
      seen := SSet.add l !seen;
      List.iter
        (fun (e : M.edge) -> if e.M.src = l then go e.M.dst)
        a.M.edges
    end
  in
  go a.M.init_loc;
  !seen

let usage (m : M.t) (d : decls) reach : R.diag list =
  let diags = ref [] in
  let add severity ~code ~where fmt =
    Format.kasprintf
      (fun msg -> diags := R.diag ~severity ~code ~where "%s" msg :: !diags)
      fmt
  in
  (* Dead locations. *)
  List.iter
    (fun (a : M.automaton) ->
      let r = SMap.find a.M.auto_name reach in
      List.iter
        (fun (l : M.location) ->
          if not (SSet.mem l.M.loc_name r) then
            add R.Warning ~code:"TA-DEAD-LOC"
              ~where:(where_auto a.M.auto_name)
              "location %s is not reachable from %s" l.M.loc_name
              a.M.init_loc)
        a.M.locations)
    m.M.automata;
  (* Channel directions, counting only edges leaving reachable
     locations. *)
  let senders = Hashtbl.create 8 and receivers = Hashtbl.create 8 in
  List.iter
    (fun (a : M.automaton) ->
      let r = SMap.find a.M.auto_name reach in
      List.iter
        (fun (e : M.edge) ->
          if SSet.mem e.M.src r then
            match e.M.sync with
            | M.Tau -> ()
            | M.Send c -> Hashtbl.replace senders c ()
            | M.Recv c -> Hashtbl.replace receivers c ())
        a.M.edges)
    m.M.automata;
  Hashtbl.iter
    (fun c broadcast ->
      let where = "channel " ^ c in
      let snd = Hashtbl.mem senders c and rcv = Hashtbl.mem receivers c in
      match (snd, rcv) with
      | false, false ->
          add R.Info ~code:"TA-CHAN-UNUSED" ~where
            "channel %s is declared but no edge uses it" c
      | true, false ->
          if broadcast then
            add R.Info ~code:"TA-CHAN-NO-RECV" ~where
              "broadcast channel %s has senders but no receivers; sends \
               fire with no effect"
              c
          else
            add R.Warning ~code:"TA-CHAN-NO-RECV" ~where
              "handshake channel %s has senders but no receivers; the \
               sending edges can never fire"
              c
      | false, true ->
          add R.Warning ~code:"TA-CHAN-NO-SEND" ~where
            "channel %s has receivers but no senders; the receiving edges \
             can never fire"
            c
      | true, true -> ())
    d.chans;
  (* Clock usage: [reads] from guards, invariants and update right-hand
     sides; [resets] from updates.  Variable usage likewise: [var_reads]
     (an array is read by any element access) and [var_writes]. *)
  let reads = Hashtbl.create 8 and resets = Hashtbl.create 8 in
  let var_reads = Hashtbl.create 32 and var_writes = Hashtbl.create 32 in
  let read () = function
    | E.Clock c -> Hashtbl.replace reads c ()
    | E.Var x | E.Elem (x, _) -> Hashtbl.replace var_reads x ()
    | _ -> ()
  in
  List.iter
    (fun (a : M.automaton) ->
      List.iter (fun (l : M.location) -> E.fold_b read () l.M.invariant)
        a.M.locations;
      List.iter
        (fun (e : M.edge) ->
          E.fold_b read () e.M.guard;
          List.iter
            (fun (u : M.update) ->
              match u with
              | M.Reset c -> Hashtbl.replace resets c ()
              | M.Assign (M.Scalar x, rhs) ->
                  Hashtbl.replace var_writes x ();
                  E.fold read () rhs
              | M.Assign (M.Element (x, i), rhs) ->
                  Hashtbl.replace var_writes x ();
                  E.fold read () i;
                  E.fold read () rhs)
            e.M.updates)
        a.M.edges)
    m.M.automata;
  Hashtbl.iter
    (fun c _cap ->
      let where = "clock " ^ c in
      if not (Hashtbl.mem reads c) then
        add R.Warning ~code:"TA-CLOCK-UNREAD" ~where
          "clock %s is never read; it multiplies the state space without \
           constraining behaviour"
          c
      else if not (Hashtbl.mem resets c) then
        add R.Info ~code:"TA-CLOCK-NO-RESET" ~where
          "clock %s is read but never reset (measures time since start)" c)
    d.clocks;
  Hashtbl.iter
    (fun x _init ->
      if not (Hashtbl.mem var_reads x) then
        if Hashtbl.mem var_writes x then
          add R.Info ~code:"TA-VAR-WRITE-ONLY" ~where:("variable " ^ x)
            "variable %s is written but never read" x
        else
          add R.Info ~code:"TA-VAR-WRITE-ONLY" ~where:("variable " ^ x)
            "variable %s is never read" x)
    d.vars;
  List.rev !diags

(* --- interval analysis ------------------------------------------------- *)

(* Env keys are prefixed ("v:" for variables, "c:" for clocks) so the two
   namespaces cannot collide.  Globals hold one joined interval per
   variable (arrays: join of all cells); clocks range over [0, cap]
   (unit-delay semantics saturate at the cap). *)

let vkey x = "v:" ^ x
let ckey c = "c:" ^ c

type ienv = { globals : I.t SMap.t; local : I.t SMap.t }

let lookup d env key =
  match SMap.find_opt key env.local with
  | Some i -> i
  | None -> (
      match SMap.find_opt key env.globals with
      | Some i -> i
      | None -> (
          (* clocks are not in globals; derive from the cap *)
          match key.[0] with
          | 'c' -> (
              match
                Hashtbl.find_opt d.clocks
                  (String.sub key 2 (String.length key - 2))
              with
              | Some cap -> I.of_bounds 0 cap
              | None -> I.of_bounds 0 I.pos_inf)
          | _ -> I.top))

let icmp = function
  | E.Lt -> I.Lt
  | E.Le -> I.Le
  | E.Eq -> I.Eq
  | E.Ge -> I.Ge
  | E.Gt -> I.Gt
  | E.Ne -> I.Ne

let rec eval d env (e : E.t) : I.t =
  match e with
  | E.Int n -> I.const n
  | E.Var x -> lookup d env (vkey x)
  | E.Elem (x, _) -> lookup d env (vkey x)
  | E.Clock c -> lookup d env (ckey c)
  | E.Add (a, b) -> (
      (* mux idiom: g*x + (1-g)*y with g in [0,1] evaluates to join x y *)
      match mux d env a b with
      | Some r -> r
      | None -> I.add (eval d env a) (eval d env b))
  | E.Sub (a, b) -> I.sub (eval d env a) (eval d env b)
  | E.Mul (a, b) -> I.mul (eval d env a) (eval d env b)
  | E.Div (a, b) -> I.div (eval d env a) (eval d env b)
  | E.Min (a, b) -> I.min_ (eval d env a) (eval d env b)
  | E.Max (a, b) -> I.max_ (eval d env a) (eval d env b)

and mux d env a b =
  let muxed g x g' y =
    if g = g' then begin
      let gi = eval d env g in
      if gi.I.lo >= 0 && gi.I.hi <= 1 then
        Some (I.join (eval d env x) (eval d env y))
      else None
    end
    else None
  in
  match (a, b) with
  | E.Mul (g, x), E.Mul (E.Sub (E.Int 1, g'), y)
  | E.Mul (E.Sub (E.Int 1, g'), y), E.Mul (g, x) ->
      muxed g x g' y
  | _ -> None

(* [refine d env b truth]: [None] means [b = truth] is statically
   impossible under [env]. *)
let rec refine d env (b : E.b) truth : ienv option =
  match b with
  | E.True -> if truth then Some env else None
  | E.False -> if truth then None else Some env
  | E.Cmp (c, a, b) -> (
      let c = if truth then icmp c else I.negate_cmp (icmp c) in
      let ia = eval d env a and ib = eval d env b in
      match I.refine c ia ib with
      | None -> None
      | Some (ia', ib') ->
          let set e i env =
            match e with
            | E.Var x -> { env with local = SMap.add (vkey x) i env.local }
            | E.Clock ck ->
                { env with local = SMap.add (ckey ck) i env.local }
            | _ -> env
          in
          Some (set a ia' (set b ib' env)))
  | E.Not b -> refine d env b (not truth)
  | E.And (a, b) when truth ->
      Option.bind (refine d env a true) (fun env -> refine d env b true)
  | E.Or (a, b) when not truth ->
      Option.bind (refine d env a false) (fun env -> refine d env b false)
  | E.And _ | E.Or _ -> Some env

let model_thresholds (m : M.t) =
  let acc = ref [ 0; 1 ] in
  let literal () = function E.Int n -> acc := n :: !acc | _ -> () in
  List.iter
    (fun (a : M.automaton) ->
      List.iter
        (fun (l : M.location) -> E.fold_b literal () l.M.invariant)
        a.M.locations;
      List.iter
        (fun (e : M.edge) ->
          E.fold_b literal () e.M.guard;
          List.iter
            (fun (u : M.update) ->
              match u with
              | M.Reset _ -> ()
              | M.Assign (M.Scalar _, rhs) -> E.fold literal () rhs
              | M.Assign (M.Element (_, i), rhs) ->
                  E.fold literal () i;
                  E.fold literal () rhs)
            e.M.updates)
        a.M.edges)
    m.M.automata;
  List.iter (fun (v : M.var_decl) -> List.iter (fun n -> acc := n :: !acc) v.M.init)
    m.M.vars;
  List.iter (fun (c : M.clock_decl) -> acc := c.M.cap :: !acc) m.M.clocks;
  List.sort_uniq compare !acc

let join_init cells =
  match cells with
  | [] -> I.const 0
  | c :: rest -> List.fold_left (fun acc n -> I.join acc (I.const n)) (I.const c) rest

(* One transfer of every edge under [globals]; returns the next globals
   (writes joined in).  Invariant and guard refinements feed evaluation
   but only assigned variables flow back. *)
let step (m : M.t) (d : decls) invariants globals =
  let next = ref globals in
  List.iter
    (fun (a : M.automaton) ->
      List.iter
        (fun (e : M.edge) ->
          let env0 = { globals; local = SMap.empty } in
          let inv =
            match SMap.find_opt (a.M.auto_name ^ "/" ^ e.M.src) invariants with
            | Some i -> i
            | None -> E.True
          in
          match
            Option.bind (refine d env0 inv true) (fun env ->
                refine d env e.M.guard true)
          with
          | None -> () (* edge statically dead *)
          | Some env ->
              let env = ref env in
              List.iter
                (fun (u : M.update) ->
                  match u with
                  | M.Reset c ->
                      env :=
                        {
                          !env with
                          local = SMap.add (ckey c) (I.const 0) !env.local;
                        }
                  | M.Assign (lhs, rhs) ->
                      let x =
                        match lhs with
                        | M.Scalar x -> x
                        | M.Element (x, _) -> x
                      in
                      let v = eval d !env rhs in
                      let v =
                        (* weak update for array cells: other cells keep
                           their old values *)
                        match lhs with
                        | M.Element _ ->
                            I.join v (lookup d !env (vkey x))
                        | M.Scalar _ -> v
                      in
                      env :=
                        {
                          !env with
                          local = SMap.add (vkey x) v !env.local;
                        };
                      let cur =
                        match SMap.find_opt (vkey x) !next with
                        | Some i -> i
                        | None -> v
                      in
                      next := SMap.add (vkey x) (I.join cur v) !next)
                e.M.updates)
        a.M.edges)
    m.M.automata;
  !next

let fixpoint (m : M.t) (d : decls) thresholds : I.t SMap.t =
  let invariants =
    List.fold_left
      (fun acc (a : M.automaton) ->
        List.fold_left
          (fun acc (l : M.location) ->
            SMap.add (a.M.auto_name ^ "/" ^ l.M.loc_name) l.M.invariant acc)
          acc a.M.locations)
      SMap.empty m.M.automata
  in
  let init =
    Hashtbl.fold
      (fun x cells acc -> SMap.add (vkey x) (join_init cells) acc)
      d.vars SMap.empty
  in
  let rec iterate globals round =
    let next = step m d invariants globals in
    if SMap.equal I.equal next globals then globals
    else if round > 64 then
      (* safety net; thresholds should have converged long before *)
      SMap.map (fun _ -> I.top) globals
    else
      let next =
        if round < 3 then next
        else
          SMap.merge
            (fun _ old cur ->
              match (old, cur) with
              | Some o, Some c -> Some (I.widen ~thresholds ~old:o c)
              | _, c -> c)
            globals next
      in
      iterate next (round + 1)
  in
  iterate init 0

(* Guard satisfiability, evaluated under the final globals.  UNSAT =
   the guard alone can never hold; GUARD-INV = satisfiable alone but
   contradicts the source location's invariant. *)
let guard_diags (m : M.t) (d : decls) globals : R.diag list =
  let diags = ref [] in
  List.iter
    (fun (a : M.automaton) ->
      List.iter
        (fun (e : M.edge) ->
          if e.M.guard <> E.True then begin
            let where = where_edge a e in
            let env0 = { globals; local = SMap.empty } in
            match refine d env0 e.M.guard true with
            | None ->
                diags :=
                  R.diag ~severity:R.Warning ~code:"TA-GUARD-UNSAT" ~where
                    "guard can never be satisfied"
                  :: !diags
            | Some _ -> (
                let inv =
                  List.find_opt
                    (fun (l : M.location) -> l.M.loc_name = e.M.src)
                    a.M.locations
                in
                match inv with
                | None -> ()
                | Some l -> (
                    match
                      Option.bind (refine d env0 l.M.invariant true)
                        (fun env -> refine d env e.M.guard true)
                    with
                    | None ->
                        diags :=
                          R.diag ~severity:R.Warning ~code:"TA-GUARD-INV"
                            ~where
                            "guard contradicts the invariant of %s" e.M.src
                          :: !diags
                    | Some _ -> ()))
          end)
        a.M.edges)
    m.M.automata;
  List.rev !diags

let unbounded_diags (d : decls) globals : R.diag list =
  Hashtbl.fold
    (fun x _ acc ->
      match SMap.find_opt (vkey x) globals with
      | Some (i : I.t) when i.I.lo = I.neg_inf || i.I.hi = I.pos_inf ->
          R.diag ~severity:R.Warning ~code:"TA-VAR-UNBOUNDED"
            ~where:("variable " ^ x)
            "updates may drive %s outside any bounded range" x
          :: acc
      | _ -> acc)
    d.vars []
  |> List.rev

(* --- Zeno cycles -------------------------------------------------------- *)

(* A cycle through urgent/committed locations only never lets time pass:
   the automaton can take infinitely many discrete steps in zero time. *)
let zeno_diags (m : M.t) : R.diag list =
  let diags = ref [] in
  List.iter
    (fun (a : M.automaton) ->
      let urgent =
        List.fold_left
          (fun acc (l : M.location) ->
            match l.M.kind with
            | M.Urgent | M.Committed -> SSet.add l.M.loc_name acc
            | M.Normal -> acc)
          SSet.empty a.M.locations
      in
      let succs l =
        List.filter_map
          (fun (e : M.edge) ->
            if e.M.src = l && SSet.mem e.M.dst urgent then Some e.M.dst
            else None)
          a.M.edges
      in
      (* DFS cycle detection within the urgent subgraph *)
      let color = Hashtbl.create 8 in
      (* 0 = in progress, 1 = done *)
      let found = ref None in
      let rec visit l =
        match Hashtbl.find_opt color l with
        | Some 0 -> if !found = None then found := Some l
        | Some _ -> ()
        | None ->
            Hashtbl.add color l 0;
            List.iter visit (succs l);
            Hashtbl.replace color l 1
      in
      SSet.iter visit urgent;
      match !found with
      | Some l ->
          diags :=
            R.diag ~severity:R.Warning ~code:"TA-ZENO"
              ~where:(where_auto a.M.auto_name)
              "cycle through urgent/committed locations (via %s) can take \
               infinitely many steps in zero time"
              l
            :: !diags
      | None -> ())
    m.M.automata;
  List.rev !diags

(* --- state bound -------------------------------------------------------- *)

let state_bound (m : M.t) (d : decls) reach globals : I.card =
  let acc =
    List.fold_left
      (fun acc (a : M.automaton) ->
        let n = SSet.cardinal (SMap.find a.M.auto_name reach) in
        I.card_mul acc (I.Finite (max 1 n)))
      (I.Finite 1) m.M.automata
  in
  let acc =
    Hashtbl.fold
      (fun _ cap acc -> I.card_mul acc (I.Finite (cap + 1)))
      d.clocks acc
  in
  Hashtbl.fold
    (fun x cells acc ->
      let i =
        match SMap.find_opt (vkey x) globals with
        | Some i -> i
        | None -> join_init cells
      in
      I.card_mul acc (I.card_pow (I.width i) (List.length cells)))
    d.vars acc

(* --- entry points -------------------------------------------------------- *)

(* Declarations plus the final variable intervals: the slicer's
   constant-folding pass consumes these directly (a variable whose
   interval is a singleton is provably constant). *)
let intervals_of (m : M.t) : decls * I.t SMap.t =
  let d, _ = build_decls m in
  (d, fixpoint m d (model_thresholds m))

(* Range analysis + state bound only, without paying for diagnostics. *)
let static_bound (m : M.t) : I.card =
  let d, _ = build_decls m in
  let reach =
    List.fold_left
      (fun acc (a : M.automaton) ->
        SMap.add a.M.auto_name (reachable_locs a) acc)
      SMap.empty m.M.automata
  in
  let globals = fixpoint m d (model_thresholds m) in
  state_bound m d reach globals

(* Memoised on the model term, for sweeps that rebuild the same model
   at the same parameters for several requirements (the R2/R3 models
   coincide; R1 adds the watchdogs). *)
let bound_memo : (M.t, I.card) Lint_memo.t = Lint_memo.create ()
let static_bound_cached m = Lint_memo.find bound_memo m static_bound
let cache_stats () = Lint_memo.stats bound_memo

let analyze ~model (m : M.t) : R.t =
  let d, dup_diags = build_decls m in
  let ref_diags = references m d in
  let reach =
    List.fold_left
      (fun acc (a : M.automaton) ->
        SMap.add a.M.auto_name (reachable_locs a) acc)
      SMap.empty m.M.automata
  in
  let usage_diags = usage m d reach in
  let thresholds = model_thresholds m in
  let globals = fixpoint m d thresholds in
  let g_diags = guard_diags m d globals in
  let u_diags = unbounded_diags d globals in
  let z_diags = zeno_diags m in
  let ranges =
    Hashtbl.fold
      (fun x cells acc ->
        let i =
          match SMap.find_opt (vkey x) globals with
          | Some i -> i
          | None -> join_init cells
        in
        (x, i) :: acc)
      d.vars []
  in
  let ranges =
    Hashtbl.fold
      (fun c cap acc -> ("clock " ^ c, I.of_bounds 0 cap) :: acc)
      d.clocks ranges
  in
  let bound = state_bound m d reach globals in
  R.make ~model
    ~diags:
      (dup_diags @ ref_diags @ usage_diags @ g_diags @ u_diags @ z_diags)
    ~stats:{ R.ranges; state_bound = bound }
