(* Reproduction tests: parameters, the §6.2 bound analysis, the paper's
   Tables 1 and 2, the fixed versions, the counterexample figures, the
   component LTS figures, deadlock freedom, and agreement of the two
   formalisms. *)

let check = Alcotest.check
module H = Heartbeat

(* --- parameters --- *)

let test_params_validation () =
  Alcotest.check_raises "tmin 0"
    (Invalid_argument "Heartbeat.Params: tmin must be positive") (fun () ->
      ignore (H.Params.make ~tmin:0 ~tmax:5 ()));
  Alcotest.check_raises "tmax < tmin"
    (Invalid_argument "Heartbeat.Params: tmax must be >= tmin") (fun () ->
      ignore (H.Params.make ~tmin:5 ~tmax:4 ()));
  Alcotest.check_raises "n 0"
    (Invalid_argument "Heartbeat.Params: n must be >= 1") (fun () ->
      ignore (H.Params.make ~n:0 ~tmin:1 ~tmax:2 ()))

let test_params_predicates () =
  let p = H.Params.make ~tmin:4 ~tmax:10 () in
  check Alcotest.bool "usual" true (H.Params.usual p);
  check Alcotest.bool "not degenerate" false (H.Params.degenerate p);
  check Alcotest.int "p1 timeout" 26 (H.Params.p1_timeout p);
  let q = H.Params.make ~tmin:10 ~tmax:10 () in
  check Alcotest.bool "degenerate" true (H.Params.degenerate q)

(* --- bounds (§6.2) --- *)

let test_bounds_examples () =
  let p tmin tmax = H.Params.make ~tmin ~tmax () in
  (* 2*tmin <= tmax: corrected bound is 3*tmax - tmin *)
  check Alcotest.int "corrected (1,10)" 29 (H.Bounds.p0_detection (p 1 10));
  check Alcotest.int "corrected (5,10)" 25 (H.Bounds.p0_detection (p 5 10));
  (* 2*tmin > tmax: original 2*tmax is correct *)
  check Alcotest.int "corrected (9,10)" 20 (H.Bounds.p0_detection (p 9 10));
  check Alcotest.int "worst (1,10)" 28 (H.Bounds.p0_detection_exhaustive (p 1 10));
  check Alcotest.int "worst (4,10)" 25 (H.Bounds.p0_detection_exhaustive (p 4 10));
  check Alcotest.int "worst (9,10)" 20 (H.Bounds.p0_detection_exhaustive (p 9 10));
  check Alcotest.(list int) "halving schedule" [ 10; 5 ]
    (H.Bounds.halving_schedule (p 4 10));
  check Alcotest.int "pi tight" 20 (H.Bounds.pi_waiting (p 4 10));
  check Alcotest.int "join bound" 24 (H.Bounds.pi_join_waiting (p 4 10))

let bounds_params =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(tmin=%d, tmax=%d)" a b)
    QCheck.Gen.(
      map2
        (fun tmax d -> (max 1 (tmax - d), tmax))
        (int_range 1 60) (int_range 0 60))

let prop_exhaustive_below_closed_form =
  QCheck.Test.make ~name:"halving worst case is within the corrected bound"
    ~count:500 bounds_params (fun (tmin, tmax) ->
      let p = H.Params.make ~tmin ~tmax () in
      H.Bounds.p0_detection_exhaustive p <= H.Bounds.p0_detection p)

let prop_violation_regime =
  QCheck.Test.make
    ~name:"the 2*tmax claim is beaten exactly when 2*tmin <= tmax" ~count:500
    bounds_params (fun (tmin, tmax) ->
      let p = H.Params.make ~tmin ~tmax () in
      let beats_claim =
        H.Bounds.p0_detection_exhaustive p > H.Bounds.original_p0_claim p
      in
      beats_claim = (2 * tmin <= tmax))

let prop_halving_schedule_sound =
  QCheck.Test.make ~name:"halving schedule is decreasing and >= tmin"
    ~count:500 bounds_params (fun (tmin, tmax) ->
      let p = H.Params.make ~tmin ~tmax () in
      let s = H.Bounds.halving_schedule p in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b && decreasing rest
        | _ -> true
      in
      List.for_all (fun t -> t >= tmin) s
      && decreasing s
      && match s with t :: _ -> t = tmax | [] -> tmax < tmin)

(* --- Tables 1 and 2 --- *)

let row tmin tmax r1 r2 r3 = { H.Verify.tmin; tmax; r1; r2; r3 }

(* Paper Table 1: verification of (revised) binary and static. *)
let paper_table1 =
  [
    row 1 10 false true true;
    row 4 10 false true true;
    row 5 10 false true true;
    row 9 10 true true true;
    row 10 10 true false false;
  ]

(* Paper Table 2: expanding and dynamic. *)
let paper_table2 =
  [
    row 1 10 false true true;
    row 4 10 false true true;
    row 5 10 false false true;
    row 9 10 true false true;
    row 10 10 true false false;
  ]

let row_testable =
  Alcotest.testable
    (fun ppf (r : H.Verify.row) ->
      Format.fprintf ppf "(%d,%d) R1=%b R2=%b R3=%b" r.H.Verify.tmin
        r.H.Verify.tmax r.H.Verify.r1 r.H.Verify.r2 r.H.Verify.r3)
    ( = )

let table_matches variant expected () =
  let rows = H.Verify.table variant in
  check (Alcotest.list row_testable)
    (H.Ta_models.variant_name variant)
    expected rows

let test_two_phase_table () =
  (* The paper leaves two-phase's p[0]-inactivation rule unspecified
     (footnote 2).  With our documented choice — inactivate on a missed
     reply once t is already tmin — detection takes 2*tmax + tmin, so R1
     additionally fails at (9,10); R2/R3 match the binary results. *)
  let expected =
    [
      row 1 10 false true true;
      row 4 10 false true true;
      row 5 10 false true true;
      row 9 10 false true true;
      row 10 10 true false false;
    ]
  in
  check (Alcotest.list row_testable) "two-phase" expected
    (H.Verify.table H.Ta_models.Two_phase)

let fixed_all_hold variant () =
  List.iter
    (fun (r : H.Verify.row) ->
      let name =
        Printf.sprintf "%s fixed (%d,%d)"
          (H.Ta_models.variant_name variant)
          r.H.Verify.tmin r.H.Verify.tmax
      in
      check Alcotest.bool (name ^ " R1") true r.H.Verify.r1;
      check Alcotest.bool (name ^ " R2") true r.H.Verify.r2;
      check Alcotest.bool (name ^ " R3") true r.H.Verify.r3)
    (H.Verify.table ~fixed:true variant)

(* --- counterexample figures --- *)

let test_fig10a () =
  let s = H.Scenarios.fig10a () in
  let last = H.Scenarios.last_event s in
  check Alcotest.string "watchdog error" "errorR1_1" last.H.Scenarios.action;
  check Alcotest.int "past the claimed bound" 21 last.H.Scenarios.time

let test_fig11 () =
  let s = H.Scenarios.fig11 () in
  (* No loss and no crash anywhere in the violating run. *)
  check Alcotest.bool "no loss" false (H.Scenarios.has_action s "lose0_1");
  check Alcotest.bool "no loss'" false (H.Scenarios.has_action s "lose1_1");
  check Alcotest.bool "no crash p0" false (H.Scenarios.has_action s "crash_p0");
  check Alcotest.bool "no crash p1" false (H.Scenarios.has_action s "crash_p1");
  let last = H.Scenarios.last_event s in
  check Alcotest.string "p1 inactivated" "inactivate_nv_p1"
    last.H.Scenarios.action;
  (* at exactly 3*tmax - tmin = 20 *)
  check Alcotest.int "at the timeout" 20 last.H.Scenarios.time

let test_fig12 () =
  let s = H.Scenarios.fig12 () in
  check Alcotest.bool "no loss" false
    (H.Scenarios.has_action s "lose0_1" || H.Scenarios.has_action s "lose1_1");
  let last = H.Scenarios.last_event s in
  check Alcotest.string "p0 inactivated" "inactivate_nv_p0"
    last.H.Scenarios.action;
  check Alcotest.int "at 2*tmax" 20 last.H.Scenarios.time

let test_fig13 () =
  let s = H.Scenarios.fig13 () in
  check Alcotest.bool "join request sent" true (H.Scenarios.has_action s "join1");
  check Alcotest.bool "no loss" false
    (H.Scenarios.has_action s "lose0_1" || H.Scenarios.has_action s "lose1_1");
  let last = H.Scenarios.last_event s in
  check Alcotest.string "joiner inactivated" "inactivate_nv_p1"
    last.H.Scenarios.action;
  (* at the joining timeout 3*tmax - tmin = 2*tmax + tmin = 25 *)
  check Alcotest.int "at the join deadline" 25 last.H.Scenarios.time

(* --- deadlock freedom of the models --- *)

let test_deadlock_free () =
  List.iter
    (fun variant ->
      List.iter
        (fun (tmin, tmax) ->
          let params = H.Params.make ~tmin ~tmax () in
          List.iter
            (fun fixed ->
              check Alcotest.bool
                (Printf.sprintf "%s%s (%d,%d)"
                   (H.Ta_models.variant_name variant)
                   (if fixed then " fixed" else "")
                   tmin tmax)
                true
                (H.Verify.deadlocks ~fixed variant params = Mc.Safety.Holds))
            [ false; true ])
        [ (1, 3); (3, 3); (2, 4) ])
    H.Ta_models.all_variants

(* --- the two formalisms agree --- *)

let test_pa_ta_agree () =
  List.iter
    (fun (pv, tv) ->
      List.iter
        (fun (tmin, tmax) ->
          let params = H.Params.make ~tmin ~tmax () in
          List.iter
            (fun req ->
              let pa = H.Pa_verify.check pv params req in
              let ta = (H.Verify.check tv params req).H.Verify.holds in
              check Alcotest.bool
                (Printf.sprintf "%s (%d,%d) %s"
                   (H.Pa_models.variant_name pv)
                   tmin tmax (H.Requirements.name req))
                ta pa)
            H.Requirements.all)
        [ (1, 2); (2, 2); (1, 3); (3, 3); (2, 4) ])
    [
      (H.Pa_models.Binary, H.Ta_models.Binary);
      (H.Pa_models.Revised, H.Ta_models.Revised);
      (H.Pa_models.Two_phase, H.Ta_models.Two_phase);
      (H.Pa_models.Static, H.Ta_models.Static);
      (H.Pa_models.Expanding, H.Ta_models.Expanding);
      (H.Pa_models.Dynamic, H.Ta_models.Dynamic);
    ]

let test_pa_table2_expanding_r2 () =
  (* The PA encoding independently reproduces the R2 row of Table 2 for
     the expanding protocol: the join race appears iff 2*tmin >= tmax. *)
  List.iter2
    (fun (tmin, tmax) (expected : H.Verify.row) ->
      let params = H.Params.make ~tmin ~tmax () in
      check Alcotest.bool
        (Printf.sprintf "R2 (%d,%d)" tmin tmax)
        expected.H.Verify.r2
        (H.Pa_verify.check ~max_states:8_000_000 H.Pa_models.Expanding params
           H.Requirements.R2))
    H.Params.table_datasets paper_table2

let test_pa_table1_binary () =
  (* The process-algebra encoding reproduces Table 1 for the binary
     protocol on the paper's own data sets. *)
  List.iter2
    (fun (tmin, tmax) (expected : H.Verify.row) ->
      let params = H.Params.make ~tmin ~tmax () in
      let got req = H.Pa_verify.check H.Pa_models.Binary params req in
      check Alcotest.bool
        (Printf.sprintf "R1 (%d,%d)" tmin tmax)
        expected.H.Verify.r1 (got H.Requirements.R1);
      check Alcotest.bool
        (Printf.sprintf "R2 (%d,%d)" tmin tmax)
        expected.H.Verify.r2 (got H.Requirements.R2);
      check Alcotest.bool
        (Printf.sprintf "R3 (%d,%d)" tmin tmax)
        expected.H.Verify.r3 (got H.Requirements.R3))
    H.Params.table_datasets paper_table1

(* --- multi-party static protocol --- *)

let test_static_two_participants () =
  (* With two participants and small constants the static protocol shows
     the same violation pattern: R2/R3 fail only in the degenerate
     regime. *)
  let degenerate = H.Params.make ~n:2 ~tmin:3 ~tmax:3 () in
  check Alcotest.bool "R2 degenerate" false
    (H.Verify.check H.Ta_models.Static degenerate H.Requirements.R2).H.Verify.holds;
  check Alcotest.bool "R3 degenerate" false
    (H.Verify.check H.Ta_models.Static degenerate H.Requirements.R3).H.Verify.holds;
  let usual = H.Params.make ~n:2 ~tmin:1 ~tmax:3 () in
  check Alcotest.bool "R2 usual" true
    (H.Verify.check H.Ta_models.Static usual H.Requirements.R2).H.Verify.holds;
  check Alcotest.bool "R3 usual" true
    (H.Verify.check H.Ta_models.Static usual H.Requirements.R3).H.Verify.holds;
  check Alcotest.bool "R1 usual fails" false
    (H.Verify.check H.Ta_models.Static usual H.Requirements.R1).H.Verify.holds;
  (* And the fixed version passes everything. *)
  List.iter
    (fun req ->
      check Alcotest.bool
        ("fixed n=2 " ^ H.Requirements.name req)
        true
        (H.Verify.check ~fixed:true H.Ta_models.Static degenerate req)
          .H.Verify.holds)
    H.Requirements.all

(* --- model-measured worst-case detection --- *)

let test_worst_detection_matches_analysis () =
  (* The smallest watchdog bound under which R1 holds, binary-searched on
     the model, equals the closed-form worst case of the halving
     schedule. *)
  List.iter
    (fun (tmin, tmax) ->
      let params = H.Params.make ~tmin ~tmax () in
      check Alcotest.int
        (Printf.sprintf "binary (%d,%d)" tmin tmax)
        (H.Bounds.p0_detection_exhaustive params)
        (H.Verify.worst_detection H.Ta_models.Binary params))
    [ (1, 4); (2, 6); (3, 8); (4, 10); (10, 10) ];
  (* Two-phase: drop-to-tmin gives 2*tmax + tmin. *)
  let params = H.Params.make ~tmin:3 ~tmax:8 () in
  check Alcotest.int "two-phase (3,8)" 19
    (H.Verify.worst_detection H.Ta_models.Two_phase params)

(* --- non-zenoness (CTL) --- *)

let test_non_zeno () =
  (* From every reachable configuration, a time step remains reachable:
     AG (EF (Can tick)).  This rules out both deadlocks and timelocks in
     the models (e.g. a watchdog refusing to tick with no action to
     take). *)
  List.iter
    (fun variant ->
      List.iter
        (fun (tmin, tmax) ->
          let params = H.Params.make ~tmin ~tmax () in
          let net =
            Ta.Semantics.compile (H.Ta_models.build variant params)
          in
          let space =
            Mc.Explore.space ~max_states:2_000_000 (Ta.Semantics.system net)
          in
          check Alcotest.bool "exploration complete" true
            space.Mc.Explore.complete;
          let tick =
            Mc.Ctl.can "tick" (fun l -> l = Ta.Semantics.Delay)
          in
          check Alcotest.bool
            (Printf.sprintf "%s (%d,%d) non-zeno"
               (H.Ta_models.variant_name variant)
               tmin tmax)
            true
            (Mc.Ctl.holds space.Mc.Explore.lts (Mc.Ctl.AG (Mc.Ctl.EF tick))))
        [ (1, 3); (3, 3) ])
    H.Ta_models.all_variants

(* --- component figures --- *)

let test_figure_lts () =
  let p = H.Params.make ~tmin:1 ~tmax:2 () in
  let raw = H.Figures.p0_component p in
  let red = H.Figures.p0_reduced p in
  check Alcotest.bool "reduction shrinks p0" true
    (Lts.Graph.num_states red < Lts.Graph.num_states raw);
  (* Figure 1 of the paper has around a dozen states. *)
  check Alcotest.bool "p0 reduced is small" true
    (Lts.Graph.num_states red <= 16);
  let red1 = H.Figures.p1_reduced p in
  check Alcotest.bool "p1 reduced is small" true
    (Lts.Graph.num_states red1 <= 12);
  (* Both keep the inactivation actions observable. *)
  let has_label g name =
    List.exists
      (fun l -> H.Figures.label_to_string l = name)
      (Lts.Graph.labels g)
  in
  check Alcotest.bool "p0 nv visible" true (has_label red "inactivate_nv_p0");
  check Alcotest.bool "p1 nv visible" true (has_label red1 "inactivate_nv_p1")

(* --- counterexample traces replay on the model --- *)

let test_counterexample_is_executable () =
  (* The trace returned for a violated requirement is an actual run of
     the model: replay it transition by transition. *)
  let params = H.Params.make ~tmin:10 ~tmax:10 () in
  let outcome = H.Verify.check H.Ta_models.Binary params H.Requirements.R3 in
  match outcome.H.Verify.counterexample with
  | None -> Alcotest.fail "expected counterexample"
  | Some trace ->
      let model = H.Ta_models.build H.Ta_models.Binary params in
      let net = Ta.Semantics.compile model in
      let step states l =
        List.concat_map
          (fun c ->
            List.filter_map
              (fun (l', c') -> if l = l' then Some c' else None)
              (Ta.Semantics.successors net c))
          states
      in
      let final = List.fold_left step [ Ta.Semantics.initial net ] trace in
      check Alcotest.bool "trace is executable" true (final <> [])

(* --- engine combinations Verify.check rejects --- *)

let test_check_rejects_zone_with_slice () =
  let params = H.Params.make ~tmin:1 ~tmax:2 () in
  Alcotest.check_raises "zone and slice"
    (Invalid_argument "Verify.check: zone and slice engines are exclusive")
    (fun () ->
      ignore
        (H.Verify.check ~zone:true ~slice:true H.Ta_models.Binary params
           H.Requirements.R2))

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let tests =
  ( "heartbeat",
    [
      quick "params validation" test_params_validation;
      quick "params predicates" test_params_predicates;
      quick "bounds on the paper's data sets" test_bounds_examples;
      QCheck_alcotest.to_alcotest prop_exhaustive_below_closed_form;
      QCheck_alcotest.to_alcotest prop_violation_regime;
      QCheck_alcotest.to_alcotest prop_halving_schedule_sound;
      quick "Table 1: binary" (table_matches H.Ta_models.Binary paper_table1);
      quick "Table 1: revised" (table_matches H.Ta_models.Revised paper_table1);
      quick "Table 1: static" (table_matches H.Ta_models.Static paper_table1);
      quick "two-phase table (documented deviation)" test_two_phase_table;
      slow "Table 2: expanding" (table_matches H.Ta_models.Expanding paper_table2);
      slow "Table 2: dynamic" (table_matches H.Ta_models.Dynamic paper_table2);
      quick "fixed binary holds" (fixed_all_hold H.Ta_models.Binary);
      quick "fixed revised holds" (fixed_all_hold H.Ta_models.Revised);
      quick "fixed two-phase holds" (fixed_all_hold H.Ta_models.Two_phase);
      quick "fixed static holds" (fixed_all_hold H.Ta_models.Static);
      slow "fixed expanding holds" (fixed_all_hold H.Ta_models.Expanding);
      slow "fixed dynamic holds" (fixed_all_hold H.Ta_models.Dynamic);
      quick "Figure 10a" test_fig10a;
      quick "Figure 11" test_fig11;
      quick "Figure 12" test_fig12;
      slow "Figure 13" test_fig13;
      slow "models are deadlock-free" test_deadlock_free;
      slow "models are non-zeno (AG EF tick)" test_non_zeno;
      slow "model-measured worst detection matches analysis"
        test_worst_detection_matches_analysis;
      slow "PA and TA verdicts agree" test_pa_ta_agree;
      slow "PA reproduces Table 1 (binary)" test_pa_table1_binary;
      slow "PA reproduces Table 2 R2 (expanding)" test_pa_table2_expanding_r2;
      slow "static protocol with two participants" test_static_two_participants;
      quick "component figures" test_figure_lts;
      quick "counterexamples replay" test_counterexample_is_executable;
      quick "check rejects zone with slice" test_check_rejects_zone_with_slice;
    ] )

(* --- MSC rendering --- *)

let test_msc_columns () =
  check Alcotest.(option int) "p0 event" (Some 0) (H.Msc.column_of "timeout_p0");
  check Alcotest.(option int) "p0 beat" (Some 0) (H.Msc.column_of "beat0");
  check Alcotest.(option int) "p3 event" (Some 3)
    (H.Msc.column_of "inactivate_nv_p3");
  check Alcotest.(option int) "channel delivery" None (H.Msc.column_of "dlv0_1");
  check Alcotest.(option int) "channel loss" None (H.Msc.column_of "lose1_2")

let test_msc_render () =
  let contains chart needle =
    let n = String.length chart and m = String.length needle in
    let rec go i = i + m <= n && (String.sub chart i m = needle || go (i + 1)) in
    go 0
  in
  (* Fig 11's shortest trace ends at the violation with the beat still in
     flight: p[0] column and the violation only. *)
  let chart11 = H.Msc.render (H.Scenarios.fig11 ()) in
  check Alcotest.bool "header" true (contains chart11 "p[0]");
  check Alcotest.bool "beat shown" true (contains chart11 "beat0");
  check Alcotest.bool "violation event" true
    (contains chart11 "inactivate_nv_p1");
  check Alcotest.bool "timestamps" true (contains chart11 "t=20");
  (* Fig 13 contains actual deliveries in both directions. *)
  let chart13 = H.Msc.render (H.Scenarios.fig13 ()) in
  check Alcotest.bool "reply arrow" true (contains chart13 "<--dlv1_1--");
  check Alcotest.bool "forward arrow or absence" true
    (contains chart13 "join1")

let msc_tests =
  [
    Alcotest.test_case "msc columns" `Quick test_msc_columns;
    Alcotest.test_case "msc render" `Quick test_msc_render;
  ]

let tests = (fst tests, snd tests @ msc_tests)
