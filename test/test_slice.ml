(* Tests for the property-driven static slicer of timed automata
   (lib/slice).

   Slicing is an exact label-preserving projection, so the load-bearing
   property is verdict parity in BOTH directions: the sliced system and
   the full system agree on every safety and LTL verdict, on random
   models and on all six shipped protocol variants.  Sliced
   counterexamples must replay in the full model (the certificate), and
   the slice diagnostics must be deterministic. *)

module M = Ta.Model
module E = Ta.Expr

let check = Alcotest.check
let max_states = 100_000

(* --- random timed-automata networks ----------------------------------

   Richer than test_ta's generator on purpose: two variables (x is the
   property observable, y is often dead), two clocks (k is read by
   guards, m is usually write-only), and occasional invariants — so the
   dead-write, constant-folding and clock-activity passes all genuinely
   fire on a fair share of the samples. *)

let random_network : M.t QCheck.arbitrary =
  let open QCheck.Gen in
  let guard_gen =
    oneof
      [
        return E.True;
        return E.(v "x" = i 0);
        return E.(v "x" = i 1);
        return E.(v "y" = i 1);
        return E.(clk "k" <= i 2);
        return E.(clk "k" >= i 1);
        return E.(clk "m" >= i 2);
      ]
  in
  let updates_gen =
    oneof
      [
        return [];
        return [ M.Assign (M.Scalar "x", E.i 1) ];
        return [ M.Assign (M.Scalar "x", E.i 0) ];
        return [ M.Assign (M.Scalar "y", E.(v "x" + i 1)) ];
        return [ M.Assign (M.Scalar "y", E.i 1) ];
        return [ M.Reset "k" ];
        return [ M.Reset "m" ];
      ]
  in
  let edge_gen name locs =
    let loc_name i = Printf.sprintf "L%d" i in
    map3
      (fun src dst (g, us) ->
        M.edge ~src:(loc_name src) ~dst:(loc_name dst) ~guard:g ~updates:us
          ~act:(Printf.sprintf "%s%d%d" name src dst) ())
      (int_bound (locs - 1))
      (int_bound (locs - 1))
      (pair guard_gen updates_gen)
  in
  let location_gen i =
    oneofl
      [
        M.loc (Printf.sprintf "L%d" i);
        M.loc ~invariant:E.(clk "k" <= i 3) (Printf.sprintf "L%d" i);
      ]
  in
  let automaton_gen name =
    int_range 1 3 >>= fun locs ->
    list_size (int_bound 5) (edge_gen name locs) >>= fun edges ->
    let rec locations i =
      if i = locs then return []
      else
        location_gen i >>= fun l ->
        locations (i + 1) >>= fun rest -> return (l :: rest)
    in
    locations 0 >>= fun locations ->
    return { M.auto_name = name; locations; edges; init_loc = "L0" }
  in
  let network_gen =
    automaton_gen "a" >>= fun a ->
    automaton_gen "b" >>= fun b ->
    return
      {
        M.vars = [ M.scalar "x" 0; M.scalar "y" 0 ];
        clocks =
          [ { M.clock_name = "k"; cap = 4 }; { M.clock_name = "m"; cap = 4 } ];
        chans = [];
        automata = [ { a with M.auto_name = "A" }; { b with M.auto_name = "B" } ];
      }
  in
  QCheck.make
    ~print:(fun net ->
      Format.asprintf "%d+%d edges"
        (List.length (List.nth net.M.automata 0).M.edges)
        (List.length (List.nth net.M.automata 1).M.edges))
    network_gen

(* the property every random safety check observes: x = 1 *)
let seed = { Slice.Ta.empty_seed with Slice.Ta.seed_vars = [ "x" ] }

let bad_of net =
  let xv = Ta.Semantics.var net "x" in
  fun c -> xv c = 1

let prop_ta_safety_parity =
  QCheck.Test.make
    ~name:"TA safety verdicts agree full vs sliced, cex replays" ~count:120
    random_network (fun model ->
      let net = Ta.Semantics.compile model in
      let sys = Ta.Semantics.system net in
      let full = Mc.Safety.check_state ~max_states sys (bad_of net) in
      let sl = Slice.Ta.slice ~seed model in
      let snet = Ta.Semantics.compile sl.Slice.Ta.model in
      let sliced =
        Mc.Safety.check_state ~max_states (Slice.Ta.system sl snet)
          (bad_of snet)
      in
      match (full, sliced) with
      | Mc.Safety.Holds, Mc.Safety.Holds -> true
      | Mc.Safety.Violated _, Mc.Safety.Violated trace ->
          (* the certificate: the sliced trace is a run of the full model *)
          Slice.replay sys trace
      | _ -> false)

let prop_ta_slice_never_grows =
  QCheck.Test.make ~name:"sliced state space is never larger" ~count:120
    random_network (fun model ->
      let count sys = fst (Mc.Explore.count ~max_states sys) in
      let full = count (Ta.Semantics.system (Ta.Semantics.compile model)) in
      let sl = Slice.Ta.slice ~seed model in
      let sliced =
        count (Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model))
      in
      sliced >= 1 && sliced <= full)

let ta_label_formulas =
  let atom a =
    Ltl.Formula.lbl a (fun l -> l = Ta.Semantics.Act a)
  in
  [
    Ltl.Formula.infinitely_often (atom "a01");
    Ltl.Formula.globally (Ltl.Formula.Not (atom "b00"));
    Ltl.Formula.implies
      (Ltl.Formula.finally (atom "a00"))
      (Ltl.Formula.finally (atom "b01"));
  ]

let prop_ta_ltl_parity =
  QCheck.Test.make ~name:"TA LTL verdicts agree full vs sliced" ~count:60
    random_network (fun model ->
      (* label-only formulas: the empty seed is the right one *)
      let sys = Ta.Semantics.system (Ta.Semantics.compile model) in
      let sl = Slice.Ta.slice model in
      let ssys =
        Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model)
      in
      List.for_all
        (fun f ->
          Ltl.Check.holds (Ltl.Check.check ~max_states sys f)
          = Ltl.Check.holds (Ltl.Check.check ~max_states ssys f))
        ta_label_formulas)

(* --- pinned slicer behaviour ----------------------------------------- *)

(* A constant variable is folded, a dead one removed, and the guards
   still mean the same thing. *)
let test_ta_constant_folding () =
  let a =
    {
      M.auto_name = "A";
      locations = [ M.loc "L0"; M.loc "L1" ];
      edges =
        [
          M.edge ~src:"L0" ~dst:"L1" ~guard:E.(v "c" = i 7) ~act:"go" ();
          M.edge ~src:"L1" ~dst:"L0"
            ~updates:[ M.Assign (M.Scalar "dead", E.i 3) ]
            ~act:"back" ();
        ];
      init_loc = "L0";
    }
  in
  let model =
    {
      M.vars = [ M.scalar "c" 7; M.scalar "dead" 0; M.scalar "x" 0 ];
      clocks = [];
      chans = [];
      automata = [ a ];
    }
  in
  let sl = Slice.Ta.slice ~seed model in
  check Alcotest.(list (pair string int)) "c folded to 7" [ ("c", 7) ]
    sl.Slice.Ta.folded;
  check Alcotest.bool "dead is sliced away" true
    (List.mem "dead" sl.Slice.Ta.removed_vars);
  let count m = fst (Mc.Explore.count ~max_states (Ta.Semantics.system (Ta.Semantics.compile m))) in
  (* full = 4 (two locations x two values of dead); the slice collapses
     the dead dimension *)
  check Alcotest.int "full model has 4 states" 4 (count model);
  check Alcotest.int "sliced model has 2 states" 2 (count sl.Slice.Ta.model)

(* A clock that is reset on the way into a location where nothing reads
   it is inactive there, and the canonicalizer merges its drift. *)
let test_ta_clock_activity () =
  let a =
    {
      M.auto_name = "A";
      locations = [ M.loc "L0"; M.loc "L1" ];
      edges =
        [
          M.edge ~src:"L0" ~dst:"L1" ~updates:[ M.Reset "k" ] ~act:"go" ();
          M.edge ~src:"L1" ~dst:"L0" ~guard:E.(clk "k" >= i 2) ~act:"back" ();
        ];
      init_loc = "L0";
    }
  in
  let model =
    {
      M.vars = [ M.scalar "x" 0 ];
      clocks = [ { M.clock_name = "k"; cap = 3 } ];
      chans = [];
      automata = [ a ];
    }
  in
  let sl = Slice.Ta.slice ~seed model in
  check Alcotest.bool "k is inactive somewhere" true
    (List.exists
       (fun (auto, locs) ->
         auto = "A"
         && List.exists (fun (_, clocks) -> List.mem "k" clocks) locs)
       sl.Slice.Ta.inactive);
  let count sys = fst (Mc.Explore.count ~max_states sys) in
  let full = count (Ta.Semantics.system (Ta.Semantics.compile model)) in
  let sliced =
    count (Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model))
  in
  check Alcotest.bool
    (Printf.sprintf "canonicalization merges states (%d < %d)" sliced full)
    true (sliced < full)

(* --- the shipped protocol variants ----------------------------------- *)

let test_ta_variant_safety_parity () =
  (* tmin = tmax = 2 is the race point: the unfixed R2/R3 violations
     exercise the sliced-counterexample certificate *)
  let datasets =
    [ Heartbeat.Params.make ~tmin:2 ~tmax:2 ();
      Heartbeat.Params.make ~tmin:2 ~tmax:3 () ]
  in
  let replays = ref 0 in
  List.iter
    (fun v ->
      List.iter
        (fun params ->
          List.iter
            (fun req ->
              let full = Heartbeat.Verify.check v params req in
              let sl = Heartbeat.Verify.check ~slice:true v params req in
              check Alcotest.bool
                (Printf.sprintf "%s %s full = sliced"
                   (Heartbeat.Ta_models.variant_name v)
                   (Heartbeat.Requirements.name req))
                full.Heartbeat.Verify.holds sl.Heartbeat.Verify.holds;
              match sl.Heartbeat.Verify.counterexample with
              | None -> ()
              | Some trace ->
                  incr replays;
                  let model =
                    Heartbeat.Ta_models.build
                      ~with_r1_monitors:
                        (Heartbeat.Requirements.needs_monitors req)
                      v params
                  in
                  check Alcotest.bool
                    (Printf.sprintf "%s %s sliced cex replays in full"
                       (Heartbeat.Ta_models.variant_name v)
                       (Heartbeat.Requirements.name req))
                    true
                    (Slice.replay
                       (Ta.Semantics.system (Ta.Semantics.compile model))
                       trace))
            Heartbeat.Requirements.all)
        datasets)
    Heartbeat.Ta_models.all_variants;
  check Alcotest.bool "at least one certificate was exercised" true
    (!replays > 0)

let test_variant_liveness_parity () =
  let params = Heartbeat.Params.make ~tmin:2 ~tmax:2 () in
  List.iter
    (fun req ->
      List.iter
        (fun v ->
          check Alcotest.bool
            (Printf.sprintf "ta %s %s live full = sliced"
               (Heartbeat.Ta_models.variant_name v)
               (Heartbeat.Requirements.name req))
            (Ltl.Check.holds (Heartbeat.Verify.check_live v params req))
            (Ltl.Check.holds
               (Heartbeat.Verify.check_live ~slice:true v params req)))
        [ Heartbeat.Ta_models.Binary; Heartbeat.Ta_models.Revised ])
    Heartbeat.Requirements.all

(* --- diagnostics and caches ------------------------------------------ *)

let test_diagnostics_deterministic () =
  (* the slice summaries are rendered from hash tables internally; the
     reports must nonetheless come out in a stable order *)
  let params = Heartbeat.Params.make ~n:2 ~tmin:2 ~tmax:4 () in
  let model =
    Heartbeat.Ta_models.build ~with_r1_monitors:true
      Heartbeat.Ta_models.Dynamic params
  in
  let render_ta () =
    List.map
      (fun (d : Lint.Report.diag) -> Format.asprintf "%a" Lint.Report.pp_diag d)
      (Slice.Ta.diagnostics (Slice.Ta.slice model))
  in
  check Alcotest.(list string) "TA slice diagnostics reproduce" (render_ta ())
    (render_ta ());
  check Alcotest.bool "TA slice diagnostics are non-empty" true
    (render_ta () <> [])

let test_analysis_cache_hits () =
  (* repeated analyses of the same spec hit the memo table *)
  let spec =
    Heartbeat.Pa_models.build Heartbeat.Pa_models.Binary
      (Heartbeat.Params.make ~n:1 ~tmin:2 ~tmax:3 ())
  in
  let a1 = Por.analyze_cached spec in
  let before = snd (Por.cache_stats ()) in
  let a2 = Por.analyze_cached spec in
  let after = snd (Por.cache_stats ()) in
  check Alcotest.bool "second lookup hits" true (after > before);
  check Alcotest.bool "cached analysis is the same" true (a1 == a2)

let tests =
  ( "slice",
    [
      QCheck_alcotest.to_alcotest prop_ta_safety_parity;
      QCheck_alcotest.to_alcotest prop_ta_slice_never_grows;
      QCheck_alcotest.to_alcotest prop_ta_ltl_parity;
      Alcotest.test_case "TA constant folding" `Quick test_ta_constant_folding;
      Alcotest.test_case "TA clock activity" `Quick test_ta_clock_activity;
      Alcotest.test_case "shipped TA variants: safety parity + certificate"
        `Slow test_ta_variant_safety_parity;
      Alcotest.test_case "shipped variants: liveness parity" `Slow
        test_variant_liveness_parity;
      Alcotest.test_case "slice diagnostics deterministic" `Quick
        test_diagnostics_deterministic;
      Alcotest.test_case "analysis caches hit on repeats" `Quick
        test_analysis_cache_hits;
    ] )
