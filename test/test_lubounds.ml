(* The location-sensitive LU analysis: backward-fixpoint units (guards
   and invariants contribute at their source, resets kill propagation,
   clock reads pin to the cap), the soundness pins (per-location bounds
   never exceed the global ones on any shipped model; every heartbeat
   clock constraint is closed, which discrete/zone parity rests on;
   fischer-broken's dense-only mutex violation survives location
   extrapolation; the FC suite keeps its verdicts), and the qcheck
   parity harness — on random closed-constraint networks the zone
   verdict under location LU must equal the discrete one, and its
   counterexamples must replay discretely. *)

let check = Alcotest.check

module M = Ta.Model
module E = Ta.Expr
module S = Ta.Semantics

let net ?(vars = []) ?(clocks = []) ?(chans = []) automata =
  { M.vars; clocks; chans; automata }

let auto ?(init = "L0") name locations edges =
  { M.auto_name = name; locations; edges; init_loc = init }

let one_clock ?(cap = 5) () = [ { M.clock_name = "k"; cap } ]

let bounds_at m ~loc =
  let t = Lubounds.analyze m in
  Lubounds.bounds t ~auto:"A" ~loc ~clock:"k"

let pair = Alcotest.(pair int int)

let discrete_reaches ?(max_states = 50_000) t goal =
  match Mc.Explore.find ~max_states ~goal (S.system t) with
  | Mc.Explore.Reached _ -> Some true
  | Mc.Explore.Unreachable -> Some false
  | Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _ -> None

let zone_reaches ?(max_states = 50_000) z goal =
  match Zone.Reach.find ~max_states z ~goal with
  | Mc.Explore.Reached w -> Some (true, Some w.Mc.Explore.trace)
  | Mc.Explore.Unreachable -> Some (false, None)
  | Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _ -> None

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
   the discrete/zone parity of every heartbeat verdict rests on it:
   every guard and invariant of every variant, fixed or not, with or
   without the R1 watchdogs, at every table point splits into the
   fragment with no strict atom. *)
let test_heartbeat_atoms_closed () =
  let atoms = ref 0 in
  List.iter
    (fun v ->
      List.iter
        (fun (tmin, tmax) ->
          let p = Heartbeat.Params.make ~n:2 ~tmin ~tmax () in
          List.iter
            (fun (fixed, with_r1_monitors) ->
              let m =
                Heartbeat.Ta_models.build ~fixed ~with_r1_monitors v p
              in
              let closed where b =
                match Lubounds.split b with
                | _, xs ->
                    List.iter
                      (fun (a : Lubounds.atom) ->
                        incr atoms;
                        if a.Lubounds.strict then
                          Alcotest.failf "%s %a: strict atom on %s at %s"
                            (Heartbeat.Ta_models.variant_name v)
                            Heartbeat.Params.pp p a.Lubounds.clock where)
                      xs
                | exception Lubounds.Frag (code, reason) ->
                    Alcotest.failf "%s %a: %s at %s (%s)"
                      (Heartbeat.Ta_models.variant_name v)
                      Heartbeat.Params.pp p code where reason
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
            [ (false, false); (false, true); (true, false); (true, true) ])
        Heartbeat.Params.table_datasets)
    Heartbeat.Ta_models.all_variants;
  Alcotest.(check bool) "clock atoms were inspected" true (!atoms > 0)

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

(* the whole FC suite keeps its verdicts under location LU, and every
   zone graph is explored to completion *)
let test_fc_verdicts () =
  List.iter
    (fun (s : Fc.spec) ->
      let z = Zone.Sym.compile s.Fc.model in
      let goal = Zone.Sym.bad_of z (Fc.bad_predicate s (Zone.Sym.net z)) in
      let safe =
        match Zone.Reach.find z ~goal with
        | Mc.Explore.Unreachable -> true
        | Mc.Explore.Reached _ -> false
        | _ -> Alcotest.failf "%s: bound hit" s.Fc.fc_name
      in
      Alcotest.(check bool) (s.Fc.fc_name ^ ": verdict") s.Fc.safe safe;
      Alcotest.(check bool)
        (s.Fc.fc_name ^ ": complete")
        true
        (snd (Zone.Reach.count ~subsume:true z)))
    Fc.all

(* --- the qcheck parity harness -------------------------------------- *)

(* one random model, one predicate: the location-LU zone verdict equals
   the discrete one, and its counterexamples replay discretely *)
let agree model (pred : S.t -> S.config -> bool) =
  let td = S.compile model in
  let z = Zone.Sym.compile model in
  let d = discrete_reaches td (pred td) in
  let l = zone_reaches z (Zone.Sym.bad_of z (pred (Zone.Sym.net z))) in
  match (d, l) with
  | Some dr, Some (lr, ltrace) ->
      if dr <> lr then
        QCheck.Test.fail_reportf "verdict mismatch: discrete %b, zone %b" dr
          lr;
      (match ltrace with
      | Some trace ->
          if
            not
              (Zone.Reach.guided_replay (S.system td) ~trace ~goal:(pred td))
          then
            QCheck.Test.fail_report
              "location-LU counterexample does not replay discretely"
      | None -> ());
      true
  | _ -> true (* bound hit: nothing to compare *)

let prop_random =
  QCheck.Test.make ~name:"location LU = discrete (random)" ~count:120
    Test_zone.zone_random_network (fun model ->
      let last =
        Printf.sprintf "L%d"
          (List.length (List.nth model.M.automata 0).M.locations - 1)
      in
      let pred t =
        let in_last = S.loc_is t ~auto:"A" ~loc:last in
        let x = S.var t "x" in
        fun c -> in_last c && x c = 1
      in
      agree model pred)

(* the shipped variants under location LU, all requirements: same
   verdicts as the discrete engine *)
let variant_parity_location ?(n = 2) variant () =
  let p = Heartbeat.Params.make ~tmin:1 ~tmax:2 ~n () in
  List.iter
    (fun r ->
      let model =
        Heartbeat.Ta_models.build
          ~with_r1_monitors:(Heartbeat.Requirements.needs_monitors r)
          variant p
      in
      let td = S.compile model in
      let zl = Zone.Sym.compile model in
      let pred t = Heartbeat.Requirements.bad_state variant p t r in
      let d = discrete_reaches ~max_states:5_000_000 td (pred td) in
      let l =
        zone_reaches ~max_states:5_000_000 zl
          (Zone.Sym.bad_of zl (pred (Zone.Sym.net zl)))
      in
      match (d, l) with
      | Some dr, Some (lr, _) ->
          if dr <> lr then
            Alcotest.failf "%s/%s: discrete %b, zone location %b"
              (Heartbeat.Ta_models.variant_name variant)
              (Heartbeat.Requirements.name r)
              dr lr
      | _ ->
          Alcotest.failf "%s/%s: state bound hit"
            (Heartbeat.Ta_models.variant_name variant)
            (Heartbeat.Requirements.name r))
    Heartbeat.Requirements.all

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
      Alcotest.test_case "zone engine serves the analysis tables" `Quick
        test_zone_serves_analysis_tables;
      Alcotest.test_case "fischer-broken violation survives location LU"
        `Quick test_fischer_broken_still_found;
      Alcotest.test_case "fc suite verdicts, location LU" `Quick
        test_fc_verdicts;
      QCheck_alcotest.to_alcotest prop_random;
      Alcotest.test_case "variant parity under location LU: binary" `Quick
        (variant_parity_location Heartbeat.Ta_models.Binary);
      Alcotest.test_case "variant parity under location LU: dynamic" `Quick
        (variant_parity_location ~n:1 Heartbeat.Ta_models.Dynamic);
      Alcotest.test_case "analysis memoised" `Quick test_memo_hits;
    ] )
