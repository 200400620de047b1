(* The location-sensitive LU analysis: backward-fixpoint units (guards
   and invariants contribute at their source, resets kill propagation,
   clock reads pin to the cap) and the soundness pins (per-location
   bounds never exceed the global ones on any shipped model; every
   heartbeat clock constraint is closed, which discrete/zone parity
   rests on; every clock the slicer finds inactive has no LU bound in
   any automaton, which lets the zone engine do without an activity
   table; fischer-broken's dense-only mutex violation survives location
   extrapolation).  Location LU is the zone engine's only
   extrapolation, so the discrete/zone verdict parity on random
   networks, the six variants and the FC suite lives in test_zone. *)

let check = Alcotest.check

module M = Ta.Model
module E = Ta.Expr

let net ?(vars = []) ?(clocks = []) ?(chans = []) automata =
  { M.vars; clocks; chans; automata }

let auto ?(init = "L0") name locations edges =
  { M.auto_name = name; locations; edges; init_loc = init }

let one_clock ?(cap = 5) () = [ { M.clock_name = "k"; cap } ]

let bounds_at m ~loc =
  let t = Lubounds.analyze m in
  Lubounds.bounds t ~auto:"A" ~loc ~clock:"k"

let pair = Alcotest.(pair int int)

(* --- backward-fixpoint units ---------------------------------------- *)

(* guard constants attach at the edge's source: k >= 2 is a lower
   bound, k <= 4 an upper one, k = 3 both *)
let test_guard_contributions () =
  let m guard =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "L0"; M.loc "L1" ]
          [ M.edge ~src:"L0" ~dst:"L1" ~guard ~act:"go" () ];
      ]
  in
  check pair "lower atom" (2, -1) (bounds_at (m E.(clk "k" >= i 2)) ~loc:"L0");
  check pair "upper atom" (-1, 4) (bounds_at (m E.(clk "k" <= i 4)) ~loc:"L0");
  check pair "equality is both" (3, 3) (bounds_at (m E.(clk "k" = i 3)) ~loc:"L0");
  check pair "target location unconstrained" (-1, -1)
    (bounds_at (m E.(clk "k" >= i 2)) ~loc:"L1")

let test_invariant_contributes_and_propagates () =
  (* L0 -> L1 (no reset), invariant k <= 3 at L1: the bound is live at
     L1 and propagates backward to L0 *)
  let m =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "L0"; M.loc ~invariant:E.(clk "k" <= i 3) "L1" ]
          [ M.edge ~src:"L0" ~dst:"L1" ~act:"go" () ];
      ]
  in
  check pair "at the invariant" (-1, 3) (bounds_at m ~loc:"L1");
  check pair "propagated backward" (-1, 3) (bounds_at m ~loc:"L0")

let test_reset_kills_propagation () =
  (* L0 -[reset k]-> L1 -[k <= 2]-> L2: the bound is live at L1 but the
     reset stops it from reaching L0 *)
  let m =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "L0"; M.loc "L1"; M.loc "L2" ]
          [
            M.edge ~src:"L0" ~dst:"L1" ~updates:[ M.Reset "k" ] ~act:"a" ();
            M.edge ~src:"L1" ~dst:"L2" ~guard:E.(clk "k" <= i 2) ~act:"b" ();
          ];
      ]
  in
  check pair "live before the guard" (-1, 2) (bounds_at m ~loc:"L1");
  check pair "reset kills backward flow" (-1, -1) (bounds_at m ~loc:"L0");
  check pair "nothing past the guard" (-1, -1) (bounds_at m ~loc:"L2")

let test_clock_read_pins_to_cap () =
  (* an update reading the clock observes its exact value, so both
     bounds at the source are the declared cap *)
  let m =
    net
      ~vars:[ M.scalar "x" 0 ]
      ~clocks:(one_clock ~cap:3 ())
      [
        auto "A"
          [ M.loc "L0"; M.loc "L1" ]
          [
            M.edge ~src:"L0" ~dst:"L1"
              ~updates:[ M.Assign (M.Scalar "x", E.clk "k") ]
              ~act:"read" ();
          ];
      ]
  in
  check pair "read pins L and U to the cap" (3, 3) (bounds_at m ~loc:"L0")

let test_cycle_fixpoint () =
  (* a loop L0 <-> L1 with the guard on the back edge: both locations
     carry the bound (the fixpoint closes the cycle) *)
  let m =
    net ~clocks:(one_clock ())
      [
        auto "A"
          [ M.loc "L0"; M.loc "L1" ]
          [
            M.edge ~src:"L0" ~dst:"L1" ~act:"a" ();
            M.edge ~src:"L1" ~dst:"L0" ~guard:E.(clk "k" >= i 4) ~act:"b" ();
          ];
      ]
  in
  check pair "on the guard source" (4, -1) (bounds_at m ~loc:"L1");
  check pair "around the cycle" (4, -1) (bounds_at m ~loc:"L0")

let test_diagonal_pins_to_global () =
  (* a diagonal guard is outside the fragment: both clocks are pinned
     to their global bounds everywhere (here bumped to the caps) *)
  let m =
    net
      ~clocks:
        [ { M.clock_name = "k"; cap = 5 }; { M.clock_name = "l"; cap = 7 } ]
      [
        auto "A"
          [ M.loc "L0"; M.loc "L1" ]
          [
            M.edge ~src:"L0" ~dst:"L1" ~guard:E.(clk "k" <= clk "l") ~act:"d" ();
          ];
      ]
  in
  let t = Lubounds.analyze m in
  Alcotest.(check (list string)) "both clocks pinned" [ "k"; "l" ]
    (List.sort compare (Lubounds.pinned t));
  List.iter
    (fun loc ->
      check pair ("k pinned at " ^ loc) (Lubounds.global_bounds t "k")
        (Lubounds.bounds t ~auto:"A" ~loc ~clock:"k"))
    [ "L0"; "L1" ]

(* --- soundness pins on the shipped models --------------------------- *)

let variant_models =
  List.concat_map
    (fun v ->
      let p = Heartbeat.Params.make ~tmin:1 ~tmax:2 ~n:2 () in
      [
        ( Heartbeat.Ta_models.variant_name v,
          Heartbeat.Ta_models.build ~with_r1_monitors:true v p );
      ])
    Heartbeat.Ta_models.all_variants

(* per-location bounds never exceed the global ones — the invariant the
   zone engine's monotonicity rests on *)
let test_location_bounds_below_global () =
  List.iter
    (fun (name, model) ->
      let t = Lubounds.analyze model in
      List.iter
        (fun (auto, locs) ->
          List.iter
            (fun (loc, row) ->
              List.iter
                (fun (clock, l, u) ->
                  let gl, gu = Lubounds.global_bounds t clock in
                  if l > gl || u > gu then
                    Alcotest.failf "%s: %s.%s clock %s (%d,%d) above global (%d,%d)"
                      name auto loc clock l u gl gu)
                row)
            locs)
        (Lubounds.tables t))
    variant_models

(* Digitisation is exact for closed clock constraints (PAPER.md), and
   every zone-decided heartbeat verdict rests on it: Verify.check
   decides on zones and runs the discrete search only to explain a
   violation, and Verify.worst_detection reads zone verdicts alone.  So
   every guard and invariant splits into the fragment with no strict
   atom, on every model those build at the points the reproduction
   checks (the table data sets, the tmax-6 points of the cross-engine
   test and the benchmark, and the extra worst-detection points), at
   n = 1 and n = 2: every variant, fixed or not, with or without the R1
   watchdogs, and with the watchdog bound overridden to each bound
   worst_detection may try (0 to 4 * tmax). *)
let test_heartbeat_atoms_closed () =
  let atoms = ref 0 in
  let points =
    List.sort_uniq compare
      (Heartbeat.Params.table_datasets
      @ [ (1, 6); (2, 6); (3, 6); (5, 6); (6, 6); (1, 4); (3, 8) ])
  in
  List.iter
    (fun v ->
      List.iter
        (fun ((tmin, tmax), n) ->
          let p = Heartbeat.Params.make ~n ~tmin ~tmax () in
          let build ?r1_bound (fixed, with_r1_monitors) =
            ( Printf.sprintf "fixed=%b watchdogs=%b bound=%s" fixed
                with_r1_monitors
                (Option.fold ~none:"default" ~some:string_of_int r1_bound),
              Heartbeat.Ta_models.build ~fixed ~with_r1_monitors ?r1_bound v
                p )
          in
          let models =
            List.map build
              [ (false, false); (false, true); (true, false); (true, true) ]
            @ List.concat_map
                (fun fixed ->
                  List.init
                    ((4 * tmax) + 1)
                    (fun r1_bound -> build ~r1_bound (fixed, true)))
                [ false; true ]
          in
          List.iter
            (fun (model, (m : M.t)) ->
              let closed where b =
                match Lubounds.split b with
                | _, xs ->
                    List.iter
                      (fun (a : Lubounds.atom) ->
                        incr atoms;
                        if a.Lubounds.strict then
                          Alcotest.failf "%s %a %s: strict atom on %s at %s"
                            (Heartbeat.Ta_models.variant_name v)
                            Heartbeat.Params.pp p model a.Lubounds.clock where)
                      xs
                | exception Lubounds.Frag (code, reason) ->
                    Alcotest.failf "%s %a %s: %s at %s (%s)"
                      (Heartbeat.Ta_models.variant_name v)
                      Heartbeat.Params.pp p model code where reason
              in
              List.iter
                (fun (a : M.automaton) ->
                  List.iter
                    (fun (l : M.location) ->
                      closed (a.M.auto_name ^ "." ^ l.M.loc_name) l.M.invariant)
                    a.M.locations;
                  List.iter
                    (fun (e : M.edge) ->
                      closed
                        (Printf.sprintf "%s: %s -> %s" a.M.auto_name e.M.src
                           e.M.dst)
                        e.M.guard)
                    a.M.edges)
                m.M.automata)
            models)
        (List.concat_map (fun pt -> [ (pt, 1); (pt, 2) ]) points))
    Heartbeat.Ta_models.all_variants;
  Alcotest.(check bool) "clock atoms were inspected" true (!atoms > 0)

(* Zone.Sym keeps no clock-activity table of its own; it relies on
   this.  A clock the slicer's Daws-Yovine pass finds inactive at a
   location (nothing reads it before its next reset) has L = U = -1
   there, and at every location of every other automaton, since only
   its owner mentions it.  The bound settle composes is then -1, and
   Extra_LU forgets the clock's value exactly as zeroing it would.  The
   slicer reads inactivity off these bounds, so the first half holds by
   construction; the second checks the slicer's ownership rule. *)
let test_inactive_clocks_unbounded () =
  let inactive = ref 0 in
  let check_model name (m : M.t) =
    let t = Lubounds.analyze m in
    let unbounded where clock (l, u) =
      if (l, u) <> (-1, -1) then
        Alcotest.failf "%s: inactive clock %s has (%d,%d) at %s" name clock l
          u where
    in
    List.iter
      (fun (auto, per_loc) ->
        List.iter
          (fun (loc, clocks) ->
            List.iter
              (fun clock ->
                incr inactive;
                unbounded (auto ^ "." ^ loc) clock
                  (Lubounds.bounds t ~auto ~loc ~clock);
                List.iter
                  (fun (other, locs) ->
                    if other <> auto then
                      List.iter
                        (fun (loc', row) ->
                          List.iter
                            (fun (c, l, u) ->
                              if c = clock then
                                unbounded (other ^ "." ^ loc') clock (l, u))
                            row)
                        locs)
                  (Lubounds.tables t))
              clocks)
          per_loc)
      (Slice_ta.inactive_of ~seed_clocks:Slice_ta.SSet.empty m)
  in
  List.iter
    (fun v ->
      List.iter
        (fun (tmin, tmax) ->
          let p = Heartbeat.Params.make ~n:2 ~tmin ~tmax () in
          List.iter
            (fun (fixed, with_r1_monitors) ->
              check_model
                (Format.asprintf "%s%s%s %a"
                   (Heartbeat.Ta_models.variant_name v)
                   (if fixed then " fixed" else "")
                   (if with_r1_monitors then " +R1" else "")
                   Heartbeat.Params.pp p)
                (Heartbeat.Ta_models.build ~fixed ~with_r1_monitors v p))
            [ (false, false); (false, true); (true, false); (true, true) ])
        Heartbeat.Params.table_datasets)
    Heartbeat.Ta_models.all_variants;
  List.iter (fun (s : Fc.spec) -> check_model s.Fc.fc_name s.Fc.model) Fc.all;
  Alcotest.(check bool)
    (Printf.sprintf "%d inactive clocks were inspected" !inactive)
    true (!inactive > 0)

(* the tables Zone.Sym serves must be the analysis's own, and its
   global bounds must agree with the analysis maxima *)
let test_zone_serves_analysis_tables () =
  List.iter
    (fun (name, model) ->
      let z = Zone.Sym.compile model in
      let t = Lubounds.analyze model in
      List.iter2
        (fun (za, zlocs) (ta, tlocs) ->
          check Alcotest.string (name ^ ": automaton order") ta za;
          List.iter2
            (fun (zl, zrow) (tl, trow) ->
              check Alcotest.string (name ^ ": location order") tl zl;
              List.iter2
                (fun (zc, zlo, zup) (tc, tlo, tup) ->
                  if (zc, zlo, zup) <> (tc, tlo, tup) then
                    Alcotest.failf "%s: %s.%s table drift (%s %d %d vs %s %d %d)"
                      name za zl zc zlo zup tc tlo tup)
                zrow trow)
            zlocs tlocs)
        (Zone.Sym.lu_tables z) (Lubounds.tables t);
      List.iter
        (fun (clock, l, u) ->
          check pair (name ^ ": global " ^ clock)
            (Lubounds.global_bounds t clock)
            (l, u))
        (Zone.Sym.lu_bounds z))
    variant_models

(* fischer-broken's mutex violation exists only in dense time; the
   sharper location extrapolation must not lose it *)
let test_fischer_broken_still_found () =
  match Fc.find "fischer-broken" with
  | None -> Alcotest.fail "fischer-broken missing from the registry"
  | Some s -> (
      let z = Zone.Sym.compile s.Fc.model in
      let goal = Zone.Sym.bad_of z (Fc.bad_predicate s (Zone.Sym.net z)) in
      match Zone.Reach.find z ~goal with
      | Mc.Explore.Reached w ->
          (* and the violation replays in the discrete semantics of the
             same model?  No: it is dense-only.  The certificate is the
             zone trace itself being non-empty. *)
          Alcotest.(check bool) "non-empty trace" true
            (w.Mc.Explore.trace <> [])
      | Mc.Explore.Unreachable ->
          Alcotest.fail "location LU lost the fischer-broken violation"
      | _ -> Alcotest.fail "bound hit")

let test_memo_hits () =
  let _, model = List.hd variant_models in
  let l0, _ = Lubounds.cache_stats () in
  let t1 = Lubounds.analyze_cached model in
  let t2 = Lubounds.analyze_cached model in
  let l1, h1 = Lubounds.cache_stats () in
  Alcotest.(check bool) "two lookups recorded" true (l1 >= l0 + 2);
  Alcotest.(check bool) "second lookup hits" true (h1 > 0);
  Alcotest.(check bool) "same table" true (t1 == t2)

let tests =
  ( "lubounds",
    [
      Alcotest.test_case "guard contributions" `Quick test_guard_contributions;
      Alcotest.test_case "invariant contributes and propagates" `Quick
        test_invariant_contributes_and_propagates;
      Alcotest.test_case "reset kills propagation" `Quick
        test_reset_kills_propagation;
      Alcotest.test_case "clock read pins to cap" `Quick
        test_clock_read_pins_to_cap;
      Alcotest.test_case "cycle fixpoint" `Quick test_cycle_fixpoint;
      Alcotest.test_case "diagonal pins to global" `Quick
        test_diagonal_pins_to_global;
      Alcotest.test_case "location bounds below global (all variants)" `Quick
        test_location_bounds_below_global;
      Alcotest.test_case "heartbeat clock atoms closed" `Quick
        test_heartbeat_atoms_closed;
      Alcotest.test_case "inactive clocks have no LU bound" `Quick
        test_inactive_clocks_unbounded;
      Alcotest.test_case "zone engine serves the analysis tables" `Quick
        test_zone_serves_analysis_tables;
      Alcotest.test_case "fischer-broken violation survives location LU"
        `Quick test_fischer_broken_still_found;
      Alcotest.test_case "analysis memoised" `Quick test_memo_hits;
    ] )
