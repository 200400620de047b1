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
  let a = band 0 5 and b = band 3 8 in
  Alcotest.(check bool) "intersect non-empty" true (D.intersect ~dim:ddim a b);
  check Alcotest.int "meet lo" 3 (D.clock_lo ~dim:ddim a 1);
  check (Alcotest.option Alcotest.int) "meet hi" (Some 5)
    (D.clock_hi ~dim:ddim a 1);
  let c = band 0 2 and d = band 6 9 in
  Alcotest.(check bool) "disjoint intersect empty" false
    (D.intersect ~dim:ddim c d)

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

(* constrain (incremental re-canonicalisation) must agree with a full
   Floyd-Warshall re-close from scratch *)
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
      assume (D.close ~dim:ddim m);
      let incr = D.copy m and full = D.copy m in
      let ok_incr = D.constrain ~dim:ddim incr i j b in
      full.((i * ddim) + j) <- min full.((i * ddim) + j) b;
      let ok_full = D.close ~dim:ddim full in
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
   closed comparisons only, clock-read updates *)
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
  let automaton_gen name =
    int_range 1 3 >>= fun locs ->
    list_size (int_bound 5) (edge_gen locs) >>= fun edges ->
    return
      {
        M.auto_name = name;
        locations = List.init locs (fun i -> M.loc (Printf.sprintf "L%d" i));
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
  QCheck.make
    ~print:(fun m ->
      Format.asprintf "%d+%d edges"
        (List.length (List.nth m.M.automata 0).M.edges)
        (List.length (List.nth m.M.automata 1).M.edges))
    network_gen

let prop_agreement_random =
  QCheck.Test.make
    ~name:"discrete and zone reachability verdicts agree (closed TA)"
    ~count:150 zone_random_network (fun model ->
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

(* subsumption: same verdicts, never more stored states, and on the
   heartbeat models it must actually discard something *)
let test_subsumption_shrinks () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:3 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary p in
  let z = Zone.Sym.compile model in
  let s_on = Zone.Reach.new_stats () and s_off = Zone.Reach.new_stats () in
  let n_on, c_on = Zone.Reach.count ~subsume:true ~stats:s_on z in
  let n_off, c_off = Zone.Reach.count ~subsume:false ~stats:s_off z in
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

let test_fc_verdicts () =
  List.iter
    (fun (s : Fc.spec) ->
      let z = Zone.Sym.compile s.Fc.model in
      let goal = Zone.Sym.bad_of z (Fc.bad_predicate s (Zone.Sym.net z)) in
      match (Zone.Reach.find z ~goal, s.Fc.safe) with
      | Mc.Explore.Unreachable, true | Mc.Explore.Reached _, false -> ()
      | Mc.Explore.Unreachable, false ->
          Alcotest.failf "%s: expected unsafe, engine says safe" s.Fc.fc_name
      | Mc.Explore.Reached _, true ->
          Alcotest.failf "%s: expected safe, engine found a violation"
            s.Fc.fc_name
      | _ -> Alcotest.failf "%s: bound hit" s.Fc.fc_name)
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
      Alcotest.test_case "strict guards (dense only)" `Quick test_strict_guard;
      Alcotest.test_case "urgent blocks delay" `Quick test_urgent_blocks_delay;
      Alcotest.test_case "invariant bounds delay" `Quick
        test_invariant_bounds_delay;
      Alcotest.test_case "clock-read case split" `Quick test_clock_read_split;
      Alcotest.test_case "unsupported constraints rejected" `Quick
        test_unsupported_constraints;
      QCheck_alcotest.to_alcotest prop_agreement_random;
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
