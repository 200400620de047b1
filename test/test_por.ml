(* Tests for the ample-set partial-order reduction (lib/por).

   The load-bearing properties are checked on random multi-component
   specifications AND on all six shipped protocol variants:

   - the reduced exploration is a sub-structure of the full one;
   - safety-monitor verdicts are identical full vs reduced, and reduced
     counterexample traces replay in the full system;
   - the reduced LTS is weak-trace equivalent to the full one relative
     to the property alphabet;
   - LTL verdicts on stutter-invariant formulas are identical;
   - truncated reduced runs are deterministic and report incompleteness. *)

module T = Proc.Term
module Sem = Proc.Semantics

let check = Alcotest.check

(* --- random multi-component specifications ---------------------------

   2-4 components, each a two-state guarded loop over ticks, local
   visible actions (v_i), hidden actions (h_i) and two communication
   pairs shared by everyone.  Tick-free loops are common, so the
   runtime cycle proviso is genuinely exercised (the shipped variants
   are all statically zeno-free and never reach it). *)

let random_spec : Proc.Spec.t QCheck.arbitrary =
  let open QCheck.Gen in
  let actions i =
    [ "tick"; "tick"; Printf.sprintf "v%d" i; Printf.sprintf "h%d" i;
      "snd0"; "rcv0"; "snd1"; "rcv1" ]
  in
  let summand_gen i self other =
    oneofl (actions i) >>= fun act ->
    oneofl [ self; other ] >>= fun next ->
    return (T.Prefix (T.act act [], T.call next []))
  in
  let component_gen i =
    let a = Printf.sprintf "C%d" i and b = Printf.sprintf "D%d" i in
    list_size (int_range 1 3) (summand_gen i a b) >>= fun sa ->
    list_size (int_range 1 3) (summand_gen i b a) >>= fun sb ->
    return [ T.def a [] (T.choice sa); T.def b [] (T.choice sb) ]
  in
  let spec_gen =
    int_range 2 4 >>= fun k ->
    let rec defs i =
      if i = k then return []
      else
        component_gen i >>= fun ds ->
        defs (i + 1) >>= fun rest -> return (ds @ rest)
    in
    defs 0 >>= fun defs ->
    return
      {
        Proc.Spec.defs;
        init = List.init k (fun i -> (Printf.sprintf "C%d" i, []));
        comms = [ ("snd0", "rcv0", "c0"); ("snd1", "rcv1", "c1") ];
        allow = [ "c0"; "c1"; "v0"; "v1"; "v2"; "v3" ];
        hide = [ "h0"; "h1"; "h2"; "h3" ];
      }
  in
  QCheck.make
    ~print:(fun spec ->
      String.concat " | "
        (List.map
           (fun (d : T.def) ->
             d.T.def_name ^ " = " ^ Format.asprintf "%a" Proc.Term.pp d.T.body)
           spec.Proc.Spec.defs))
    spec_gen

let max_states = 100_000

let explore_counts sys =
  let count, complete = Mc.Explore.count ~max_states sys in
  Alcotest.(check bool) "exploration complete" true complete;
  count

(* Can the label trace be replayed from the initial state of [sys]? *)
let replayable sys trace =
  let module S =
    (val sys : Mc.System.S
           with type state = Sem.state
            and type label = Sem.label)
  in
  let rec go s = function
    | [] -> true
    | l :: rest ->
        List.exists (fun (l', s') -> l' = l && go s' rest) (S.successors s)
  in
  go S.initial trace

(* The three monitor shapes used on the real models, with their
   alphabets, over the random specs' action names. *)
let name_is n (l : Sem.label) = Sem.label_name l = n
let is_tick (l : Sem.label) = l = Sem.Tick

let sample_monitors =
  [
    (Mc.Monitor.never (name_is "c0"), [ "c0" ]);
    ( Mc.Monitor.precedence ~fault:(name_is "v0") ~bad:(name_is "c1"),
      [ "v0"; "c1" ] );
    ( Mc.Monitor.deadline ~tick:is_tick ~reset:(name_is "c0")
        ~ok:(name_is "v1") 3,
      [ "tick"; "c0"; "v1" ] );
  ]

let prop_reduced_substructure =
  QCheck.Test.make ~name:"reduced explores no more states than full" ~count:150
    random_spec (fun spec ->
      let a = Por.analyze spec in
      let full = explore_counts (Sem.system spec) in
      let red = explore_counts (Por.reduced_system a) in
      red >= 1 && red <= full)

let prop_safety_parity =
  QCheck.Test.make ~name:"monitor verdicts agree full vs reduced" ~count:150
    random_spec (fun spec ->
      let a = Por.analyze spec in
      let sys = Sem.system spec in
      List.for_all
        (fun (monitor, alphabet) ->
          let full = Mc.Safety.check_monitor ~max_states sys monitor in
          let red =
            Mc.Safety.check_monitor ~max_states
              ~reduction:(Por.reduced_system ~alphabet a)
              sys monitor
          in
          match (full, red) with
          | Mc.Safety.Holds, Mc.Safety.Holds -> true
          | Mc.Safety.Violated _, Mc.Safety.Violated trace ->
              (* the reduced counterexample is a real run of the full
                 system *)
              replayable sys trace
          | _ -> false)
        sample_monitors)

let prop_weak_trace_equivalent =
  QCheck.Test.make
    ~name:"reduced LTS weak-trace equivalent to full (property alphabet)"
    ~count:75 random_spec (fun spec ->
      let a = Por.analyze spec in
      let space sys = (Mc.Explore.space ~max_states sys).Mc.Explore.lts in
      let full = space (Sem.system spec) in
      List.for_all
        (fun alphabet ->
          let red = space (Por.reduced_system ~alphabet a) in
          let hidden (l : Sem.label) =
            not (List.mem (Sem.label_name l) alphabet)
          in
          Lts.Equiv.weak_trace_equivalent ~hidden full red)
        [ [ "c0"; "v0" ]; [ "tick"; "c1" ] ])

let stutter_formulas =
  let atom name = Ltl.Formula.lbl name (name_is name) in
  [
    Ltl.Formula.infinitely_often (atom "c0");
    Ltl.Formula.globally (Ltl.Formula.Not (atom "c1"));
    Ltl.Formula.implies
      (Ltl.Formula.finally (atom "v0"))
      (Ltl.Formula.finally (atom "c0"));
  ]

let prop_ltl_parity =
  QCheck.Test.make ~name:"LTL verdicts agree full vs reduced" ~count:75
    random_spec (fun spec ->
      let a = Por.analyze spec in
      let sys = Sem.system spec in
      List.for_all
        (fun f ->
          let full = Ltl.Check.check ~max_states sys f in
          let red =
            Ltl.Check.check ~max_states ~reduction:(Por.reduction a) sys f
          in
          Ltl.Check.holds full = Ltl.Check.holds red)
        stutter_formulas)

(* --- the shipped protocol variants ----------------------------------- *)

let pa_variants =
  [ Heartbeat.Pa_models.Binary; Heartbeat.Pa_models.Revised;
    Heartbeat.Pa_models.Two_phase; Heartbeat.Pa_models.Static;
    Heartbeat.Pa_models.Expanding; Heartbeat.Pa_models.Dynamic ]

let small_params = Heartbeat.Params.make ~n:1 ~tmin:2 ~tmax:3 ()

let test_variant_safety_parity () =
  List.iter
    (fun v ->
      List.iter
        (fun req ->
          let full = Heartbeat.Pa_verify.check v small_params req in
          let red =
            Heartbeat.Pa_verify.check ~reduce:true v small_params req
          in
          check Alcotest.bool
            (Printf.sprintf "%s %s full = reduced"
               (Heartbeat.Pa_models.variant_name v)
               (Heartbeat.Requirements.name req))
            full red)
        Heartbeat.Requirements.all)
    pa_variants

let test_static_n2_safety_parity () =
  let params = Heartbeat.Params.make ~n:2 ~tmin:2 ~tmax:2 () in
  List.iter
    (fun req ->
      check Alcotest.bool
        (Printf.sprintf "static n=2 %s full = reduced"
           (Heartbeat.Requirements.name req))
        (Heartbeat.Pa_verify.check Heartbeat.Pa_models.Static params req)
        (Heartbeat.Pa_verify.check ~reduce:true Heartbeat.Pa_models.Static
           params req))
    Heartbeat.Requirements.all

let test_variant_liveness_parity () =
  let params = Heartbeat.Params.make ~tmin:2 ~tmax:2 () in
  List.iter
    (fun v ->
      List.iter
        (fun req ->
          let full = Heartbeat.Pa_verify.check_live v params req in
          let red =
            Heartbeat.Pa_verify.check_live ~reduce:true v params req
          in
          check Alcotest.bool
            (Printf.sprintf "%s %s live full = reduced"
               (Heartbeat.Pa_models.variant_name v)
               (Heartbeat.Requirements.name req))
            (Ltl.Check.holds full) (Ltl.Check.holds red))
        Heartbeat.Requirements.all)
    [ Heartbeat.Pa_models.Binary; Heartbeat.Pa_models.Revised ]

let test_variant_weak_trace_equiv () =
  (* one genuinely visible alphabet: the R3 fault/bad names of binary *)
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:2 () in
  let spec = Heartbeat.Pa_models.build Heartbeat.Pa_models.Binary params in
  let a = Por.analyze spec in
  let alphabet =
    [ Heartbeat.Pa_models.act_inactivate_nv_p0;
      Heartbeat.Pa_models.act_beat_delivered_to_p0 1 ]
  in
  let space sys = (Mc.Explore.space ~max_states sys).Mc.Explore.lts in
  let full = space (Sem.system spec) in
  let red = space (Por.reduced_system ~alphabet a) in
  check Alcotest.bool "reduced is smaller or equal" true
    (Lts.Graph.num_states red <= Lts.Graph.num_states full);
  check Alcotest.bool "weak-trace equivalent" true
    (Lts.Equiv.weak_trace_equivalent
       ~hidden:(fun l -> not (List.mem (Sem.label_name l) alphabet))
       full red)

let test_variants_zeno_free () =
  (* all six shipped variants are statically zeno-free (every global
     cycle ticks), so their reduction never needs the runtime proviso *)
  let params = Heartbeat.Params.make ~n:2 ~tmin:2 ~tmax:4 () in
  List.iter
    (fun v ->
      let a = Por.analyze (Heartbeat.Pa_models.build v params) in
      check Alcotest.bool
        (Heartbeat.Pa_models.variant_name v ^ " zeno-free")
        true (Por.zeno_free a);
      check
        Alcotest.(list int)
        (Heartbeat.Pa_models.variant_name v ^ " no suspects")
        [] (Por.zeno_suspects a))
    pa_variants

let test_zeno_suspects_detected () =
  (* a tick-free self-loop is not zeno-free, and the suspect is named *)
  let d = T.def "X" [] (T.Prefix (T.act "a" [], T.call "X" [])) in
  let spec =
    {
      Proc.Spec.defs = [ d ];
      init = [ ("X", []) ];
      comms = [];
      allow = [ "a" ];
      hide = [];
    }
  in
  let a = Por.analyze spec in
  check Alcotest.bool "not zeno-free" false (Por.zeno_free a);
  check Alcotest.(list int) "component 0 suspected" [ 0 ]
    (Por.zeno_suspects a)

(* --- the parallel-safe proviso --------------------------------------- *)

(* Satellite gate: monitor verdicts agree full vs par-reduced at 1 and 4
   domains.  The par proviso judges back edges against lock-striped
   discovery stamps instead of the sequential seen-set, so only verdict
   parity (not byte parity) is promised — which is exactly what this
   property checks, including counterexample replayability. *)
let prop_parallel_safety_parity =
  QCheck.Test.make
    ~name:"monitor verdicts agree full vs par-reduced (d in {1,4})" ~count:60
    random_spec (fun spec ->
      let a = Por.analyze spec in
      let sys = Sem.system spec in
      List.for_all
        (fun (monitor, alphabet) ->
          let full = Mc.Safety.check_monitor ~max_states sys monitor in
          List.for_all
            (fun domains ->
              let red =
                Mc.Safety.check_monitor ~max_states
                  ~reduction:(Por.reduced_system ~alphabet ~par:true a)
                  ~parallel_reduction:true ~domains sys monitor
              in
              match (full, red) with
              | Mc.Safety.Holds, Mc.Safety.Holds -> true
              | Mc.Safety.Violated _, Mc.Safety.Violated trace ->
                  replayable sys trace
              | _ -> false)
            [ 1; 4 ])
        sample_monitors)

let test_variant_parallel_reduced_parity () =
  (* the six shipped protocols through the whole stack: Pa_verify.check
     with reduce composes with domains > 1 via the parallel proviso *)
  let params = Heartbeat.Params.make ~tmin:2 ~tmax:3 () in
  List.iter
    (fun v ->
      List.iter
        (fun req ->
          let full = Heartbeat.Pa_verify.check v params req in
          List.iter
            (fun domains ->
              check Alcotest.bool
                (Printf.sprintf "%s %s full = par-reduced at %d domains"
                   (Heartbeat.Pa_models.variant_name v)
                   (Heartbeat.Requirements.name req)
                   domains)
                full
                (Heartbeat.Pa_verify.check ~reduce:true ~domains v params req))
            [ 1; 4 ])
        Heartbeat.Requirements.all)
    pa_variants

let test_cross_domain_fallback_pinned () =
  (* Pinned regression for the conservative cross-domain fallback.

     C0/D0 is a hidden tick-free 2-cycle (a genuine zeno suspect, so the
     runtime proviso is live); C1 is a visible self-loop kept out of
     every ample set by the alphabet.  A spawned domain expands the
     initial state, stamping it and its ample successor under that
     domain's id.  The main domain then expands the successor: its only
     ample candidate is the back edge to the initial state, whose stamp
     was minted by the other domain — the proviso must take the
     conservative full expansion and count it. *)
  let spec =
    {
      Proc.Spec.defs =
        [
          T.def "C0" [] (T.Prefix (T.act "h0" [], T.call "D0" []));
          T.def "D0" [] (T.Prefix (T.act "h0" [], T.call "C0" []));
          T.def "C1" [] (T.Prefix (T.act "v1" [], T.call "C1" []));
        ];
      init = [ ("C0", []); ("C1", []) ];
      comms = [];
      allow = [ "v1" ];
      hide = [ "h0" ];
    }
  in
  let a = Por.analyze spec in
  check Alcotest.bool "the hidden loop is a zeno suspect" false
    (Por.zeno_free a);
  let rsys, stats = Por.reduced_system_stats ~alphabet:[ "v1" ] ~par:true a in
  let module R =
    (val rsys : Mc.System.S
           with type state = Sem.state
            and type label = Sem.label)
  in
  (* another domain expands the initial state... *)
  let succs0 = Domain.join (Domain.spawn (fun () -> R.successors R.initial)) in
  check Alcotest.bool "initial state was ample-reduced" true
    (List.length succs0 = 1);
  check Alcotest.int "no cross-domain back edge yet" 0
    stats.Por.cross_domain_blocked;
  (* ...and the main domain expands its successor, closing the cycle *)
  let next = snd (List.hd succs0) in
  let succs1 = R.successors next in
  check Alcotest.bool "fallback fully expands the cycle-closing state" true
    (List.length succs1 >= 2);
  check Alcotest.bool "cross-domain fallback was taken and counted" true
    (stats.Por.cross_domain_blocked >= 1);
  check Alcotest.bool "it was a proviso block" true
    (stats.Por.proviso_blocked >= 1)

let test_sequential_proviso_never_cross () =
  (* the sequential proviso can never see a foreign stamp *)
  let params = Heartbeat.Params.make ~tmin:2 ~tmax:3 () in
  let a = Por.analyze (Heartbeat.Pa_models.build Heartbeat.Pa_models.Binary params) in
  let rsys, stats = Por.reduced_system_stats a in
  let _ = explore_counts rsys in
  check Alcotest.int "cross_domain_blocked is 0 sequentially" 0
    stats.Por.cross_domain_blocked

(* --- the stutter-invariance gate ------------------------------------- *)

let test_stutter_classifier () =
  let open Ltl.Formula in
  let a = lbl "a" (name_is "a") and b = lbl "b" (name_is "b") in
  check Alcotest.bool "GF a invariant" true
    (stutter_invariant (infinitely_often a));
  check Alcotest.bool "G not a invariant" true
    (stutter_invariant (globally (Not a)));
  check Alcotest.bool "Fa -> Fb invariant" true
    (stutter_invariant (implies (finally a) (finally b)));
  check Alcotest.bool "X a not invariant" false (stutter_invariant (Next a));
  check Alcotest.bool "bare atom not invariant" false (stutter_invariant a);
  check
    Alcotest.(option (list string))
    "alphabet collects atom names"
    (Some [ "a"; "b" ])
    (alphabet (And (infinitely_often a, finally b)));
  check
    Alcotest.(option (list string))
    "Enabled blocks the alphabet" None
    (alphabet (finally (enabled "a" (name_is "a"))))

(* --- truncation x reduction ------------------------------------------ *)

let test_truncated_reduction_deterministic () =
  (* a reduced run that hits the state bound reports complete = false
     with the deterministic BFS-prefix truncation, every time *)
  let params = Heartbeat.Params.make ~tmin:2 ~tmax:4 () in
  let go () =
    Heartbeat.Pa_verify.explore ~max_states:100 ~reduce:true
      Heartbeat.Pa_models.Binary params
  in
  let s1 = go () and s2 = go () in
  check Alcotest.bool "truncated" false s1.Heartbeat.Pa_verify.complete;
  check Alcotest.int "exactly the bound" 100 s1.Heartbeat.Pa_verify.states;
  check Alcotest.bool "byte-deterministic" true (s1 = s2);
  let full = Heartbeat.Pa_verify.explore ~reduce:true Heartbeat.Pa_models.Binary params in
  check Alcotest.bool "unbounded run is complete" true
    full.Heartbeat.Pa_verify.complete

(* --- diagnostics ----------------------------------------------------- *)

let test_diagnostics_deterministic () =
  let spec =
    Heartbeat.Pa_models.build Heartbeat.Pa_models.Binary
      (Heartbeat.Params.make ~tmin:2 ~tmax:4 ())
  in
  let d1 = Por.diagnostics (Por.analyze spec) in
  let d2 = Por.diagnostics (Por.analyze spec) in
  check Alcotest.bool "nonempty" true (d1 <> []);
  check Alcotest.bool "deterministic" true (d1 = d2);
  check Alcotest.bool "all PA-POR infos" true
    (List.for_all
       (fun (d : Lint.Report.diag) ->
         d.Lint.Report.code = "PA-POR"
         && d.Lint.Report.severity = Lint.Report.Info)
       d1)

let tests =
  ( "por",
    [
      Alcotest.test_case "shipped variants: safety parity" `Quick
        test_variant_safety_parity;
      Alcotest.test_case "static n=2: safety parity" `Quick
        test_static_n2_safety_parity;
      Alcotest.test_case "shipped variants: liveness parity" `Quick
        test_variant_liveness_parity;
      Alcotest.test_case "binary: weak-trace equivalence" `Quick
        test_variant_weak_trace_equiv;
      Alcotest.test_case "shipped variants are zeno-free" `Quick
        test_variants_zeno_free;
      Alcotest.test_case "zeno suspects detected" `Quick
        test_zeno_suspects_detected;
      Alcotest.test_case "shipped variants: parallel reduced parity" `Quick
        test_variant_parallel_reduced_parity;
      Alcotest.test_case "cross-domain proviso fallback (pinned)" `Quick
        test_cross_domain_fallback_pinned;
      Alcotest.test_case "sequential proviso never cross-domain" `Quick
        test_sequential_proviso_never_cross;
      QCheck_alcotest.to_alcotest prop_parallel_safety_parity;
      Alcotest.test_case "stutter classifier" `Quick test_stutter_classifier;
      Alcotest.test_case "truncation is deterministic" `Quick
        test_truncated_reduction_deterministic;
      Alcotest.test_case "diagnostics deterministic" `Quick
        test_diagnostics_deterministic;
      QCheck_alcotest.to_alcotest prop_reduced_substructure;
      QCheck_alcotest.to_alcotest prop_safety_parity;
      QCheck_alcotest.to_alcotest prop_weak_trace_equivalent;
      QCheck_alcotest.to_alcotest prop_ltl_parity;
    ] )
