(* The zone engine: DBM algebra units, dense-time semantics checks
   (strict guards, urgency, invariants, clock-read case splits), and
   the discrete-vs-zone agreement gate — on random closed-constraint
   networks and on all six shipped heartbeat variants, the zone
   engine's reachability verdict must equal the discrete explorer's,
   and every zone counterexample must replay concretely in the
   discrete semantics by guided trace embedding. *)

let check = Alcotest.check

module M = Ta.Model
module E = Ta.Expr
module S = Ta.Semantics
module D = Zone.Dbm

(* --- DBM algebra ---------------------------------------------------- *)

(* dim 3: clocks x (index 1) and y (index 2) *)
let ddim = 3

let test_dbm_zero_up_reset () =
  let z = D.zero ~dim:ddim in
  check Alcotest.int "lo x" 0 (D.clock_lo ~dim:ddim z 1);
  check (Alcotest.option Alcotest.int) "hi x" (Some 0)
    (D.clock_hi ~dim:ddim z 1);
  D.up ~dim:ddim z;
  check (Alcotest.option Alcotest.int) "hi x after up" None
    (D.clock_hi ~dim:ddim z 1);
  check Alcotest.int "lo x after up" 0 (D.clock_lo ~dim:ddim z 1);
  (* x and y advanced together: x - y still pinned to 0 *)
  check Alcotest.int "x-y" (D.bnd 0 ~strict:false) z.((1 * ddim) + 2);
  D.reset ~dim:ddim z 1;
  check (Alcotest.option Alcotest.int) "hi x after reset" (Some 0)
    (D.clock_hi ~dim:ddim z 1);
  check (Alcotest.option Alcotest.int) "hi y untouched" None
    (D.clock_hi ~dim:ddim z 2)

let test_dbm_constrain () =
  let z = D.zero ~dim:ddim in
  D.up ~dim:ddim z;
  Alcotest.(check bool) "x <= 5 ok" true
    (D.constrain ~dim:ddim z 1 0 (D.bnd 5 ~strict:false));
  Alcotest.(check bool) "x >= 2 ok" true
    (D.constrain ~dim:ddim z 0 1 (D.bnd (-2) ~strict:false));
  check Alcotest.int "lo" 2 (D.clock_lo ~dim:ddim z 1);
  check (Alcotest.option Alcotest.int) "hi" (Some 5) (D.clock_hi ~dim:ddim z 1);
  (* clocks advance together, so y inherits the band through diagonals *)
  check Alcotest.int "lo y" 2 (D.clock_lo ~dim:ddim z 2);
  Alcotest.(check bool) "x <= 1 empties" false
    (D.constrain ~dim:ddim z 1 0 (D.bnd 1 ~strict:false))

let test_dbm_strict_bounds () =
  let z = D.zero ~dim:ddim in
  D.up ~dim:ddim z;
  Alcotest.(check bool) "x > 2" true
    (D.constrain ~dim:ddim z 0 1 (D.bnd (-2) ~strict:true));
  Alcotest.(check bool) "x < 3" true
    (D.constrain ~dim:ddim z 1 0 (D.bnd 3 ~strict:true));
  (* (2, 3) is non-empty in dense time but holds no integer point *)
  check Alcotest.int "integer lo" 3 (D.clock_lo ~dim:ddim z 1);
  check (Alcotest.option Alcotest.int) "integer hi" (Some 2)
    (D.clock_hi ~dim:ddim z 1)

let test_dbm_includes_intersect () =
  let band lo hi =
    let z = D.zero ~dim:ddim in
    D.up ~dim:ddim z;
    assert (D.constrain ~dim:ddim z 0 1 (D.bnd (-lo) ~strict:false));
    assert (D.constrain ~dim:ddim z 1 0 (D.bnd hi ~strict:false));
    z
  in
  let wide = band 0 5 and narrow = band 2 5 in
  Alcotest.(check bool) "wide includes narrow" true
    (D.includes ~dim:ddim wide narrow);
  Alcotest.(check bool) "narrow excludes wide" false
    (D.includes ~dim:ddim narrow wide);
  (* intersecting a zone with a band is constraining it by the band's
     two bounds *)
  let meet z lo hi =
    D.constrain ~dim:ddim z 0 1 (D.bnd (-lo) ~strict:false)
    && D.constrain ~dim:ddim z 1 0 (D.bnd hi ~strict:false)
  in
  let a = band 0 5 in
  Alcotest.(check bool) "intersect non-empty" true (meet a 3 8);
  check Alcotest.int "meet lo" 3 (D.clock_lo ~dim:ddim a 1);
  check (Alcotest.option Alcotest.int) "meet hi" (Some 5)
    (D.clock_hi ~dim:ddim a 1);
  Alcotest.(check bool) "disjoint intersect empty" false
    (meet (band 0 2) 6 9)

let test_dbm_extrapolate () =
  let z = D.zero ~dim:ddim in
  D.up ~dim:ddim z;
  assert (D.constrain ~dim:ddim z 0 1 (D.bnd (-10) ~strict:false));
  assert (D.constrain ~dim:ddim z 0 2 (D.bnd (-10) ~strict:false));
  let l = [| -1; 2; 2 |] and u = [| -1; 2; 2 |] in
  D.extrapolate_lu ~dim:ddim z ~l ~u;
  (* lower bounds beyond every upper guard weaken to (> 2) *)
  check Alcotest.int "lo weakened" 3 (D.clock_lo ~dim:ddim z 1);
  check (Alcotest.option Alcotest.int) "hi stays open" None
    (D.clock_hi ~dim:ddim z 1)

(* The oracle for D.close: a textbook triple-loop Floyd–Warshall over
   every pivot and every pair, then the diagonal pinned back to (0, <=)
   as D.close documents.  Empty iff a diagonal entry ends below it. *)
let reference_close ~dim (m : D.t) =
  for k = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        let via = D.badd m.((i * dim) + k) m.((k * dim) + j) in
        if via < m.((i * dim) + j) then m.((i * dim) + j) <- via
      done
    done
  done;
  let le_zero = D.bnd 0 ~strict:false and ok = ref true in
  for i = 0 to dim - 1 do
    if m.((i * dim) + i) < le_zero then ok := false
    else m.((i * dim) + i) <- le_zero
  done;
  !ok

(* Random matrices of dimension 1-12, some of whose rows are forced to
   infinity off the diagonal (the pivots D.close may skip) and some to
   infinity except in column 0 (live pivots whose one finite entry is
   an upper bound).  A witnessed matrix bounds every difference of one
   integer valuation from above, so it is non-empty; an unwitnessed one
   draws every entry, the diagonal included, and is mostly empty. *)
let prop_close_matches_reference =
  let open QCheck in
  let gen =
    let open Gen in
    int_range 1 12 >>= fun dim ->
    bool >>= fun witnessed ->
    array_size (return dim) (int_range 0 6) >>= fun point ->
    array_size (return dim)
      (frequency [ (3, return `Drawn); (2, return `Sink); (1, return `Upper) ])
    >>= fun shape ->
    array_size
      (return (dim * dim))
      (frequency
         [
           (1, return None);
           (3, map2 (fun v s -> Some (v, s)) (int_range (-4) 4) bool);
         ])
    >>= fun draws ->
    let m =
      Array.mapi
        (fun k draw ->
          let i = k / dim and j = k mod dim in
          match draw with
          | _ when i = j && witnessed -> D.bnd 0 ~strict:false
          | _ when i <> j && shape.(i) = `Sink -> D.inf
          | _ when i <> j && j <> 0 && shape.(i) = `Upper -> D.inf
          | None -> D.inf
          | Some (v, strict) when witnessed ->
              (* x_i - x_j = point_i - point_j, plus a non-negative
                 slack; a strict bound needs a positive one *)
              let x k = if k = 0 then 0 else point.(k) in
              let slack = abs v in
              D.bnd (x i - x j + slack) ~strict:(strict && slack > 0)
          | Some (v, strict) -> D.bnd v ~strict)
        draws
    in
    return (dim, m)
  in
  let print (dim, m) =
    let show b = if b = D.inf then "inf" else string_of_int b in
    Printf.sprintf "dim %d: [%s]" dim
      (String.concat "; " (Array.to_list (Array.map show m)))
  in
  Test.make ~name:"close = textbook Floyd-Warshall (sink rows skipped)"
    ~count:2000 (make ~print gen) (fun (dim, m) ->
      let fast = D.copy m and slow = D.copy m in
      let ok_fast = D.close ~dim fast in
      let ok_slow = reference_close ~dim slow in
      ok_fast = ok_slow && ((not ok_fast) || D.equal fast slow))

(* The oracle for D.extrapolate_lu, which reads row 0 in place and
   re-closes skipping sink pivots: the same clauses over a copy of the
   input's row 0, then the reference closure. *)
let reference_extrapolate_lu ~dim (m : D.t) ~l ~u =
  let row0 = Array.init dim (fun j -> m.(j)) in
  let low j = -D.value row0.(j) in
  let changed = ref false in
  for i = 1 to dim - 1 do
    for j = 0 to dim - 1 do
      let e = m.((i * dim) + j) in
      if
        i <> j && e <> D.inf
        && (D.value e > l.(i) || low i > l.(i) || (j <> 0 && low j > u.(j)))
      then begin
        m.((i * dim) + j) <- D.inf;
        changed := true
      end
    done
  done;
  for j = 1 to dim - 1 do
    if low j > u.(j) then begin
      let b =
        if u.(j) < 0 then D.bnd 0 ~strict:false
        else D.bnd (-u.(j)) ~strict:true
      in
      if b > m.(j) then begin
        m.(j) <- b;
        changed := true
      end
    end
  done;
  if !changed then ignore (reference_close ~dim m : bool)

type zone_op = Up | Reset of int | Constrain of int * int * int

(* Closed zones built from [zero] by random delays, resets and bounds
   (upper, lower and diagonal), with random L/U bounds where -1 (the
   model never compares the clock that way) is frequent. *)
let prop_extrapolate_matches_reference =
  let open QCheck in
  let gen =
    let open Gen in
    int_range 1 12 >>= fun dim ->
    let clock = int_range 1 (max 1 (dim - 1)) in
    let op =
      frequency
        [
          (2, return Up);
          (1, map (fun k -> Reset k) clock);
          ( 4,
            map3
              (fun (i, j) v s ->
                (* x_i <= |v|, x_j >= |v|, or x_i - x_j <= v *)
                let v = if i = 0 then -abs v else if j = 0 then abs v else v in
                Constrain (i, j, D.bnd v ~strict:s))
              (oneof
                 [
                   map (fun k -> (k, 0)) clock;
                   map (fun k -> (0, k)) clock;
                   pair clock clock;
                 ])
              (int_range (-4) 8) bool );
        ]
    in
    list_size (int_range 0 25) op >>= fun ops ->
    let bound = frequency [ (2, return (-1)); (3, int_range 0 6) ] in
    array_size (return dim) bound >>= fun l ->
    array_size (return dim) bound >>= fun u ->
    l.(0) <- -1;
    u.(0) <- -1;
    return (dim, ops, l, u)
  in
  let print (dim, ops, l, u) =
    let op = function
      | Up -> "up"
      | Reset k -> Printf.sprintf "reset %d" k
      | Constrain (i, j, b) -> Printf.sprintf "x%d-x%d<=%d" i j b
    in
    let ints a =
      String.concat "," (Array.to_list (Array.map string_of_int a))
    in
    Printf.sprintf "dim %d: %s; l=[%s] u=[%s]" dim
      (String.concat "; " (List.map op ops))
      (ints l) (ints u)
  in
  Test.make ~name:"extrapolate_lu = row-0 copy + reference closure"
    ~count:2000 (make ~print gen) (fun (dim, ops, l, u) ->
      let z = D.zero ~dim in
      List.iter
        (function
          | Up -> D.up ~dim z
          | Reset k -> if k < dim then D.reset ~dim z k
          | Constrain (i, j, b) ->
              (* a bound that would empty the zone is dropped:
                 [constrain] leaves the matrix untouched then *)
              if i < dim && j < dim && i <> j then
                ignore (D.constrain ~dim z i j b : bool))
        ops;
      let fast = D.copy z and slow = D.copy z in
      D.extrapolate_lu ~dim fast ~l ~u;
      reference_extrapolate_lu ~dim slow ~l ~u;
      D.equal fast slow)

(* constrain (incremental re-canonicalisation) must agree with a full
   Floyd-Warshall re-close from scratch, by the reference closure *)
let prop_constrain_matches_close =
  let open QCheck in
  let bound_gen =
    Gen.oneof
      [
        Gen.return D.inf;
        Gen.map2 (fun v s -> D.bnd v ~strict:s) (Gen.int_range (-4) 4)
          Gen.bool;
      ]
  in
  let gen =
    Gen.map2
      (fun entries (i, j, b) -> (entries, i, j, b))
      (Gen.array_size (Gen.return (ddim * ddim)) bound_gen)
      (Gen.triple (Gen.int_bound (ddim - 1)) (Gen.int_bound (ddim - 1))
         bound_gen)
  in
  Test.make ~name:"incremental constrain = set entry + full close" ~count:500
    (make gen) (fun (entries, i, j, b) ->
      assume (i <> j && b <> D.inf);
      let m = Array.copy entries in
      for k = 0 to ddim - 1 do
        m.((k * ddim) + k) <- D.bnd 0 ~strict:false;
        (* keep clocks non-negative so rows stay zone-like *)
        if k > 0 && m.(k) > D.bnd 0 ~strict:false then
          m.(k) <- D.bnd 0 ~strict:false
      done;
      assume (reference_close ~dim:ddim m);
      let incr = D.copy m and full = D.copy m in
      let ok_incr = D.constrain ~dim:ddim incr i j b in
      full.((i * ddim) + j) <- min full.((i * ddim) + j) b;
      let ok_full = reference_close ~dim:ddim full in
      ok_incr = ok_full && ((not ok_incr) || D.equal incr full))

(* --- tiny dense-time semantics checks ------------------------------- *)

let net ?(vars = []) ?(clocks = []) ?(chans = []) automata =
  { M.vars; clocks; chans; automata }

let auto ?(init = "A") name locations edges =
  { M.auto_name = name; locations; edges; init_loc = init }

let one_clock ?(cap = 5) () = [ { M.clock_name = "k"; cap } ]

let reaches model ~auto:a ~loc =
  let z = Zone.Sym.compile model in
  let goal =
    Zone.Sym.bad_of z (S.loc_is (Zone.Sym.net z) ~auto:a ~loc)
  in
  match Zone.Reach.find z ~goal with
  | Mc.Explore.Reached w -> Some w.Mc.Explore.trace
  | Mc.Explore.Unreachable -> None
  | _ -> Alcotest.fail "unexpected zone verdict"

let test_strict_guard () =
  let m g =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~guard:g ~act:"go" () ];
      ]
  in
  (match reaches (m E.(clk "k" > i 2)) ~auto:"A" ~loc:"B" with
  | Some [ S.Act "go" ] -> ()
  | _ -> Alcotest.fail "strict guard should be reachable in dense time");
  (* (2, 3) has no integer point but is dense-reachable: strictly more
     behaviour than the discrete engine *)
  let open_band = m E.(clk "k" > i 2 && clk "k" < i 3) in
  Alcotest.(check bool) "open band dense-reachable" true
    (reaches open_band ~auto:"A" ~loc:"B" <> None);
  let t = S.compile open_band in
  (match
     Mc.Explore.find ~goal:(S.loc_is t ~auto:"A" ~loc:"B") (S.system t)
   with
  | Mc.Explore.Unreachable -> ()
  | _ -> Alcotest.fail "open band must be discretely unreachable")

let test_urgent_blocks_delay () =
  let m =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "A"; M.loc ~kind:M.Urgent "U"; M.loc "B" ]
          [
            M.edge ~src:"A" ~dst:"U" ~updates:[ M.Reset "k" ] ~act:"in" ();
            M.edge ~src:"U" ~dst:"B" ~guard:E.(clk "k" >= i 1) ~act:"out" ();
          ];
      ]
  in
  Alcotest.(check bool) "no delay inside urgent" true
    (reaches m ~auto:"A" ~loc:"B" = None)

let test_invariant_bounds_delay () =
  let m g =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc ~invariant:E.(clk "k" <= i 2) "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~guard:g ~act:"go" () ];
      ]
  in
  Alcotest.(check bool) "cannot outwait the invariant" true
    (reaches (m E.(clk "k" >= i 3)) ~auto:"A" ~loc:"B" = None);
  Alcotest.(check bool) "boundary reachable" true
    (reaches (m E.(clk "k" >= i 2)) ~auto:"A" ~loc:"B" <> None)

(* x := k forks one branch per integer value of k, saturating at the
   cap — exactly the discrete semantics' saturation *)
let test_clock_read_split () =
  let m =
    net
      ~vars:[ M.scalar "x" 0 ]
      ~clocks:(one_clock ~cap:3 ())
      [
        auto "A"
          [ M.loc "A"; M.loc "B" ]
          [
            M.edge ~src:"A" ~dst:"B"
              ~updates:[ M.Assign (M.Scalar "x", E.clk "k") ]
              ~act:"read" ();
          ];
      ]
  in
  let z = Zone.Sym.compile m in
  let zn = Zone.Sym.net z in
  let reach_x v =
    let goal =
      Zone.Sym.bad_of z (fun c ->
          S.var zn "x" c = v && S.loc_is zn ~auto:"A" ~loc:"B" c)
    in
    match Zone.Reach.find z ~goal with
    | Mc.Explore.Reached _ -> true
    | Mc.Explore.Unreachable -> false
    | _ -> Alcotest.fail "unexpected zone verdict"
  in
  Alcotest.(check bool) "x = 0" true (reach_x 0);
  Alcotest.(check bool) "x = 2" true (reach_x 2);
  Alcotest.(check bool) "x = 3 (cap, saturated)" true (reach_x 3);
  Alcotest.(check bool) "x = 4 impossible" false (reach_x 4);
  Alcotest.(check bool) "x = 5 impossible" false (reach_x 5)

(* the diagonal forms [k ~ l], [k - l ~ e] and [k ~ l + e] *)
let test_unsupported_constraints () =
  List.iter
    (fun (name, guard) ->
      let diag =
        net
          ~clocks:
            [ { M.clock_name = "k"; cap = 5 }; { M.clock_name = "l"; cap = 5 } ]
          [ auto "A" [ M.loc "A" ] [ M.edge ~src:"A" ~dst:"A" ~guard () ] ]
      in
      (try
         ignore (Zone.Sym.compile diag : Zone.Sym.t);
         Alcotest.failf "%s: diagonal constraint must be rejected" name
       with Zone.Sym.Unsupported msg ->
         Alcotest.(check bool) (name ^ ": message names the edge") true
           (String.length msg > 0));
      let diags = Zone.Sym.diagnostics diag in
      Alcotest.(check bool) (name ^ ": lint flags the diagonal") true
        (List.exists
           (fun (d : Lint_report.diag) ->
             d.Lint_report.code = "TA-ZONE-DIAGONAL"
             && d.Lint_report.severity = Lint_report.Error)
           diags))
    [
      ("k <= l", E.(clk "k" <= clk "l"));
      ("k - l <= 1", E.(clk "k" - clk "l" <= i 1));
      ("k <= l + 1", E.(clk "k" <= clk "l" + i 1));
    ]

(* --- discrete vs zone agreement ------------------------------------- *)

type verdict_cmp = {
  reached : bool;
  zone_trace : S.label list option;
}

let discrete_reaches ?(max_states = 200_000) t goal =
  match Mc.Explore.find ~max_states ~goal (S.system t) with
  | Mc.Explore.Reached _ -> Some true
  | Mc.Explore.Unreachable -> Some false
  | Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _ -> None

let zone_reaches ?(max_states = 200_000) z goal =
  match Zone.Reach.find ~max_states z ~goal with
  | Mc.Explore.Reached w -> Some { reached = true; zone_trace = Some w.Mc.Explore.trace }
  | Mc.Explore.Unreachable -> Some { reached = false; zone_trace = None }
  | Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _ -> None

(* The agreement check for one model + one predicate over the discrete
   part: verdict parity, and zone counterexamples must replay in the
   discrete semantics (guided by the action labels, delays free). *)
let agree ?max_states model (pred : S.t -> S.config -> bool) =
  let td = S.compile model in
  let z = Zone.Sym.compile model in
  let d = discrete_reaches ?max_states td (pred td) in
  let zv = zone_reaches ?max_states z (Zone.Sym.bad_of z (pred (Zone.Sym.net z))) in
  match (d, zv) with
  | Some dr, Some { reached = zr; zone_trace } ->
      if dr <> zr then
        Alcotest.failf "verdict mismatch: discrete %b, zone %b" dr zr;
      (match zone_trace with
      | Some trace ->
          if
            not
              (Zone.Reach.guided_replay (S.system td) ~trace ~goal:(pred td))
          then Alcotest.fail "zone counterexample does not replay discretely"
      | None -> ());
      true
  | _ -> false (* bound hit: nothing to compare *)

(* random closed-constraint networks: two automata over a shared
   variable and clock, binary + broadcast sync, clock guards on
   closed comparisons only, clock-read updates, and urgent and committed
   locations with clock and data invariants (the initial location is
   plain), so the committed-location and urgency rules are exercised *)
let zone_random_network : M.t QCheck.arbitrary =
  let open QCheck.Gen in
  let data_guard = oneofl [ E.True; E.(v "x" = i 0); E.(v "x" = i 1) ] in
  let any_guard =
    oneofl
      [
        E.True;
        E.(v "x" = i 0);
        E.(v "x" = i 1);
        E.(clk "k" <= i 2);
        E.(clk "k" >= i 1);
        E.(clk "k" = i 2);
        E.(v "x" = i 0 && clk "k" >= i 1);
      ]
  in
  let updates =
    oneofl
      [
        [];
        [ M.Assign (M.Scalar "x", E.i 1) ];
        [ M.Assign (M.Scalar "x", E.i 0) ];
        [ M.Reset "k" ];
        [ M.Assign (M.Scalar "x", E.clk "k") ];
        [ M.Assign (M.Scalar "x", E.clk "k"); M.Reset "k" ];
      ]
  in
  let sync_gen =
    frequency
      [
        (4, return M.Tau);
        (1, return (M.Send "c"));
        (1, return (M.Recv "c"));
        (1, return (M.Send "bc"));
        (1, return (M.Recv "bc"));
      ]
  in
  let edge_gen locs =
    let loc_name i = Printf.sprintf "L%d" i in
    int_bound (locs - 1) >>= fun src ->
    int_bound (locs - 1) >>= fun dst ->
    sync_gen >>= fun sync ->
    (* broadcast receivers must have data-only guards *)
    (match sync with M.Recv "bc" -> data_guard | _ -> any_guard)
    >>= fun g ->
    updates >>= fun us ->
    return
      (M.edge ~src:(loc_name src) ~dst:(loc_name dst) ~guard:g ~updates:us
         ~sync
         ~act:(Printf.sprintf "e%d%d" src dst)
         ())
  in
  let loc_gen =
    pair
      (frequency
         [ (5, return M.Normal); (2, return M.Urgent); (2, return M.Committed) ])
      (frequency
         [
           (3, return E.True);
           (1, return E.(clk "k" <= i 2));
           (1, return E.(v "x" = i 0));
         ])
  in
  let automaton_gen name =
    int_range 1 3 >>= fun locs ->
    list_repeat (locs - 1) loc_gen >>= fun rest ->
    list_size (int_bound 5) (edge_gen locs) >>= fun edges ->
    return
      {
        M.auto_name = name;
        locations =
          M.loc "L0"
          :: List.mapi
               (fun i (kind, invariant) ->
                 M.loc ~kind ~invariant (Printf.sprintf "L%d" (i + 1)))
               rest;
        edges;
        init_loc = "L0";
      }
  in
  let network_gen =
    automaton_gen "A" >>= fun a ->
    automaton_gen "B" >>= fun b ->
    return
      {
        M.vars = [ M.scalar "x" 0 ];
        clocks = [ { M.clock_name = "k"; cap = 3 } ];
        chans = [ M.chan "c"; M.chan ~broadcast:true "bc" ];
        automata = [ a; b ];
      }
  in
  QCheck.make ~print:Ta.Xta.to_string network_gen

let prop_agreement_random =
  QCheck.Test.make
    ~name:"discrete and zone reachability verdicts agree (closed TA)"
    ~count:3000 zone_random_network (fun model ->
      (* goal: A parked in its last location with x = 1 *)
      let last =
        Printf.sprintf "L%d"
          (List.length (List.nth model.M.automata 0).M.locations - 1)
      in
      let pred t =
        let in_last = S.loc_is t ~auto:"A" ~loc:last in
        let x = S.var t "x" in
        fun c -> in_last c && x c = 1
      in
      agree ~max_states:50_000 model pred)

(* The committed-location rule on a broadcast: while A sits in its
   committed initial location, only a move A takes part in may fire, so
   B's broadcast must wait even though C (not committed) would receive
   it.  A zone engine that fires a broadcast without an allowed
   participant reaches "C received while A is committed" on every run,
   which the random networks catch only on some seeds. *)
let test_broadcast_waits_for_committed () =
  let model =
    net ~clocks:(one_clock ())
      ~chans:[ M.chan ~broadcast:true "bc" ]
      [
        auto ~init:"C0" "A"
          [ M.loc ~kind:M.Committed "C0"; M.loc "Done" ]
          [ M.edge ~src:"C0" ~dst:"Done" ~act:"leave" () ];
        auto ~init:"S" "B"
          [ M.loc "S"; M.loc "Sent" ]
          [ M.edge ~src:"S" ~dst:"Sent" ~sync:(M.Send "bc") () ];
        auto ~init:"W" "C"
          [ M.loc "W"; M.loc "Got" ]
          [ M.edge ~src:"W" ~dst:"Got" ~sync:(M.Recv "bc") () ];
      ]
  in
  let received t = S.loc_is t ~auto:"C" ~loc:"Got" in
  let early t =
    let committed = S.loc_is t ~auto:"A" ~loc:"C0" and got = received t in
    fun c -> committed c && got c
  in
  List.iter
    (fun (name, pred, expected) ->
      Alcotest.(check bool) (name ^ ": engines agree") true (agree model pred);
      let z = Zone.Sym.compile model in
      let goal = Zone.Sym.bad_of z (pred (Zone.Sym.net z)) in
      Alcotest.(check bool) name expected
        (match Zone.Reach.find z ~goal with
        | Mc.Explore.Reached _ -> true
        | Mc.Explore.Unreachable -> false
        | _ -> Alcotest.fail "unexpected zone verdict"))
    [
      ("C received while A is committed", early, false);
      ("C received after A left", received, true);
    ]

(* all six heartbeat variants, R1-R3, small parameters.  Expanding and
   dynamic get n = 1: their discrete spaces at n = 2 exceed two million
   states while the zone graph stays under 300k — covered by the bench
   workload, not a unit test. *)
let variant_parity ?(n = 2) variant () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:2 ~n () in
  List.iter
    (fun r ->
      let model =
        Heartbeat.Ta_models.build
          ~with_r1_monitors:(Heartbeat.Requirements.needs_monitors r)
          variant p
      in
      let pred t = Heartbeat.Requirements.bad_state variant p t r in
      if not (agree model pred) then
        Alcotest.failf "%s/%s: state bound hit"
          (Heartbeat.Ta_models.variant_name variant)
          (Heartbeat.Requirements.name r))
    Heartbeat.Requirements.all

(* subsumption: same verdicts, never more stored states than the
   equality-only zone graph (the zone system under the generic
   explorer), and on the heartbeat models it must actually discard
   something *)
let test_subsumption_shrinks () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:3 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary p in
  let z = Zone.Sym.compile model in
  let s_on = Zone.Reach.new_stats () in
  let n_on, c_on = Zone.Reach.count ~stats:s_on z in
  let n_off, c_off = Mc.Explore.count (Zone.Sym.system z) in
  Alcotest.(check bool) "both complete" true (c_on && c_off);
  Alcotest.(check bool) "subsumption never stores more" true (n_on <= n_off);
  Alcotest.(check bool) "subsumption discards something" true
    (s_on.Zone.Reach.subsumed > 0)

let test_guided_replay_rejects_garbage () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:2 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary p in
  let t = S.compile model in
  Alcotest.(check bool) "bogus trace rejected" false
    (Zone.Reach.guided_replay (S.system t)
       ~trace:[ S.Act "no-such-action" ]
       ~goal:(fun _ -> true))

let test_heartbeat_models_in_fragment () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:2 ~n:2 () in
  List.iter
    (fun v ->
      let model = Heartbeat.Ta_models.build ~with_r1_monitors:true v p in
      let diags = Zone.Sym.diagnostics model in
      List.iter
        (fun (d : Lint_report.diag) ->
          if d.Lint_report.severity = Lint_report.Error then
            Alcotest.failf "%s: unexpected zone error %s at %s: %s"
              (Heartbeat.Ta_models.variant_name v)
              d.Lint_report.code d.Lint_report.where d.Lint_report.message)
        diags)
    Heartbeat.Ta_models.all_variants

(* --- the Fontana-Cleaveland workload -------------------------------- *)

(* every spec keeps its verdict, and every zone graph is explored to
   completion *)
let test_fc_verdicts () =
  List.iter
    (fun (s : Fc.spec) ->
      let z = Zone.Sym.compile s.Fc.model in
      let goal = Zone.Sym.bad_of z (Fc.bad_predicate s (Zone.Sym.net z)) in
      (match (Zone.Reach.find z ~goal, s.Fc.safe) with
      | Mc.Explore.Unreachable, true | Mc.Explore.Reached _, false -> ()
      | Mc.Explore.Unreachable, false ->
          Alcotest.failf "%s: expected unsafe, engine says safe" s.Fc.fc_name
      | Mc.Explore.Reached _, true ->
          Alcotest.failf "%s: expected safe, engine found a violation"
            s.Fc.fc_name
      | _ -> Alcotest.failf "%s: bound hit" s.Fc.fc_name);
      Alcotest.(check bool)
        (s.Fc.fc_name ^ ": complete")
        true
        (snd (Zone.Reach.count z)))
    Fc.all

let test_fc_not_vacuous () =
  (* the safety verdicts mean something: the protocol machinery is
     exercised (collisions happen, tokens travel, gates cycle) *)
  List.iter
    (fun (name, auto, loc) ->
      match Fc.find name with
      | None -> Alcotest.failf "unknown benchmark %s" name
      | Some s ->
          let z = Zone.Sym.compile s.Fc.model in
          let goal =
            Zone.Sym.bad_of z (S.loc_is (Zone.Sym.net z) ~auto ~loc)
          in
          (match Zone.Reach.find z ~goal with
          | Mc.Explore.Reached _ -> ()
          | _ -> Alcotest.failf "%s: %s.%s should be reachable" name auto loc))
    [
      ("fischer", "P1", "CS");
      ("fischer", "P2", "CS");
      ("csma", "Bus", "Collision");
      ("csma", "S1", "Retry");
      ("fddi", "S2", "Sync");
      ("grc", "Train1", "In");
      ("grc", "Gate", "Raising");
      ("leader", "C1", "Leader");
    ]

let test_fc_xta_roundtrip () =
  (* the committed examples/fc/*.xta files are exactly this printout,
     and the parser reads them back verbatim (the make-zone gate diffs
     the files themselves) *)
  List.iter
    (fun (s : Fc.spec) ->
      let txt = Ta.Xta.to_string s.Fc.model in
      check Alcotest.string s.Fc.fc_name txt
        (Ta.Xta.to_string (Ta.Xta.parse txt)))
    Fc.all

let test_fc_strictness_matters () =
  (* the only difference between fischer and fischer-broken is > vs >=
     on the critical-section guard; the verdict flips *)
  match (Fc.find "fischer", Fc.find "fischer-broken") with
  | Some good, Some bad ->
      Alcotest.(check bool) "verdicts differ" true (good.Fc.safe <> bad.Fc.safe)
  | _ -> Alcotest.fail "registry incomplete"

let tests =
  ( "zone",
    [
      Alcotest.test_case "dbm zero/up/reset" `Quick test_dbm_zero_up_reset;
      Alcotest.test_case "dbm constrain" `Quick test_dbm_constrain;
      Alcotest.test_case "dbm strict bounds" `Quick test_dbm_strict_bounds;
      Alcotest.test_case "dbm includes/intersect" `Quick
        test_dbm_includes_intersect;
      Alcotest.test_case "dbm extrapolation" `Quick test_dbm_extrapolate;
      QCheck_alcotest.to_alcotest prop_constrain_matches_close;
      QCheck_alcotest.to_alcotest prop_close_matches_reference;
      QCheck_alcotest.to_alcotest prop_extrapolate_matches_reference;
      Alcotest.test_case "strict guards (dense only)" `Quick test_strict_guard;
      Alcotest.test_case "urgent blocks delay" `Quick test_urgent_blocks_delay;
      Alcotest.test_case "invariant bounds delay" `Quick
        test_invariant_bounds_delay;
      Alcotest.test_case "clock-read case split" `Quick test_clock_read_split;
      Alcotest.test_case "unsupported constraints rejected" `Quick
        test_unsupported_constraints;
      QCheck_alcotest.to_alcotest prop_agreement_random;
      Alcotest.test_case "broadcast waits for a committed automaton" `Quick
        test_broadcast_waits_for_committed;
      Alcotest.test_case "variant parity: binary" `Quick
        (variant_parity Heartbeat.Ta_models.Binary);
      Alcotest.test_case "variant parity: revised" `Quick
        (variant_parity Heartbeat.Ta_models.Revised);
      Alcotest.test_case "variant parity: two-phase" `Quick
        (variant_parity Heartbeat.Ta_models.Two_phase);
      Alcotest.test_case "variant parity: static" `Quick
        (variant_parity Heartbeat.Ta_models.Static);
      Alcotest.test_case "variant parity: expanding" `Quick
        (variant_parity ~n:1 Heartbeat.Ta_models.Expanding);
      Alcotest.test_case "variant parity: dynamic" `Quick
        (variant_parity ~n:1 Heartbeat.Ta_models.Dynamic);
      Alcotest.test_case "subsumption shrinks the graph" `Quick
        test_subsumption_shrinks;
      Alcotest.test_case "guided replay rejects garbage" `Quick
        test_guided_replay_rejects_garbage;
      Alcotest.test_case "heartbeat models inside the zone fragment" `Quick
        test_heartbeat_models_in_fragment;
      Alcotest.test_case "fc benchmark verdicts" `Quick test_fc_verdicts;
      Alcotest.test_case "fc benchmarks not vacuous" `Quick test_fc_not_vacuous;
      Alcotest.test_case "fc xta round-trip" `Quick test_fc_xta_roundtrip;
      Alcotest.test_case "fc strictness matters" `Quick
        test_fc_strictness_matters;
    ] )
