(* Tests for the hblint static-analysis pass: the mutation corpus (each
   seeded defect fires exactly its intended diagnostic), cleanliness of
   every shipped model, the unified-signature regression for the mCRL2
   exporter, state-bound soundness, explorer pre-sizing parity, JSON
   determinism, and the pinning test for the leave-flag fix. *)

let check = Alcotest.check

module P = Proc.Pexpr
module T = Proc.Term
module S = Proc.Spec
module E = Ta.Expr
module M = Ta.Model
module R = Lint.Report
module H = Heartbeat

(* --- helpers ---------------------------------------------------------- *)

(* Codes of the error/warning diagnostics — the ones that gate.  Infos
   (e.g. TA-VAR-WRITE-ONLY on an auxiliary cell) are deliberately
   ignored: a mutation must introduce exactly one new gating finding. *)
let gating (r : R.t) =
  List.filter_map
    (fun (d : R.diag) ->
      match d.R.severity with
      | R.Error | R.Warning -> Some d.R.code
      | R.Info -> None)
    r.R.diags
  |> List.sort_uniq String.compare

let fires_exactly code (r : R.t) =
  check
    Alcotest.(list string)
    (Printf.sprintf "mutation fires exactly %s" code)
    [ code ] (gating r)

let spec ?(init = []) ?(comms = []) ?(allow = []) ?(hide = []) defs =
  { S.defs; init; comms; allow; hide }

let lint_pa s = Lint.Pa.analyze ~model:"mut" s

let ta ?(vars = []) ?(clocks = []) ?(chans = []) automata =
  { M.vars; clocks; chans; automata }

let auto ?(init_loc = "L0") name locations edges =
  { M.auto_name = name; locations; edges; init_loc }

let lint_ta m = Lint.Ta_model.analyze ~model:"mut" m

(* A minimal healthy recursive loop offering action [a]. *)
let loop_def name a = T.def name [] T.(act a [] @. call name [])

(* --- PA mutation corpus ----------------------------------------------- *)

let test_pa_type () =
  (* The same action carries an Int in one process and a Bool in another:
     the unified-signature inference must flag the clash (this is the
     regression for the mCRL2 exporter's per-occurrence sort guessing). *)
  let s =
    spec
      ~init:[ ("A", []); ("B", []) ]
      [
        T.def "A" [] T.(act "m" [ P.int 1 ] @. call "A" []);
        T.def "B" [] T.(act "m" [ P.tt ] @. call "B" []);
      ]
  in
  fires_exactly "PA-TYPE" (lint_pa s);
  (* and the exporter itself still renders a (best-effort) spec *)
  let rendered = Format.asprintf "%a" Proc.Mcrl2.pp s in
  check Alcotest.bool "exporter total on ill-sorted spec" true
    (String.length rendered > 0)

let test_pa_act_arity () =
  let s =
    spec
      ~init:[ ("A", []); ("B", []) ]
      [
        T.def "A" [] T.(act "m" [ P.int 1 ] @. call "A" []);
        T.def "B" [] T.(act "m" [ P.int 1; P.int 2 ] @. call "B" []);
      ]
  in
  fires_exactly "PA-ACT-ARITY" (lint_pa s)

let test_pa_unbound_var () =
  let s =
    spec ~init:[ ("A", []) ]
      [ T.def "A" [] T.(act "a" [ P.v "x" ] @. call "A" []) ]
  in
  fires_exactly "PA-UNBOUND-VAR" (lint_pa s)

let test_pa_dup_def () =
  let s = spec ~init:[ ("A", []) ] [ loop_def "A" "a"; loop_def "A" "a" ] in
  fires_exactly "PA-DUP-DEF" (lint_pa s)

let test_pa_undef () =
  let s =
    spec ~init:[ ("A", []) ] [ T.def "A" [] T.(act "a" [] @. call "B" []) ]
  in
  fires_exactly "PA-UNDEF" (lint_pa s)

let test_pa_arity () =
  let s =
    spec ~init:[ ("A", []) ]
      [ T.def "A" [ "x" ] T.(act "a" [] @. call "A" []) ]
  in
  fires_exactly "PA-ARITY" (lint_pa s)

let test_pa_sum_empty () =
  let s =
    spec ~init:[ ("A", []) ]
      [ T.def "A" [] (T.Sum ("x", 1, 0, T.(act "a" [ P.v "x" ] @. call "A" []))) ]
  in
  fires_exactly "PA-SUM-EMPTY" (lint_pa s)

let test_pa_comm_self () =
  let s =
    spec ~init:[ ("A", []) ] ~comms:[ ("a", "a", "b") ] ~allow:[ "b" ]
      [ loop_def "A" "a" ]
  in
  fires_exactly "PA-COMM-SELF" (lint_pa s)

let test_pa_hide_tick () =
  let s =
    spec ~init:[ ("A", []) ] ~allow:[ S.tick_name ] ~hide:[ S.tick_name ]
      [ loop_def "A" S.tick_name ]
  in
  fires_exactly "PA-HIDE-TICK" (lint_pa s)

let test_pa_dead_def () =
  let s = spec ~init:[ ("A", []) ] [ loop_def "A" "a"; loop_def "B" "b" ] in
  fires_exactly "PA-DEAD-DEF" (lint_pa s)

let test_pa_comm_dead () =
  (* the receive half [r] is never offered by any process *)
  let s =
    spec ~init:[ ("A", []) ] ~comms:[ ("s", "r", "c") ] [ loop_def "A" "s" ]
  in
  fires_exactly "PA-COMM-DEAD" (lint_pa s)

let test_pa_allow_dead () =
  let s = spec ~init:[ ("A", []) ] ~allow:[ "z" ] [ loop_def "A" "a" ] in
  fires_exactly "PA-ALLOW-DEAD" (lint_pa s)

let test_pa_hide_dead () =
  let s =
    spec ~init:[ ("A", []) ] ~allow:[ "a" ] ~hide:[ "b" ] [ loop_def "A" "a" ]
  in
  fires_exactly "PA-HIDE-DEAD" (lint_pa s)

let test_pa_no_tick () =
  (* one component keeps the global clock alive, the other never offers
     tick and therefore blocks it *)
  let s =
    spec
      ~init:[ ("A", []); ("B", []) ]
      [ loop_def "A" S.tick_name; loop_def "B" "b" ]
  in
  fires_exactly "PA-NO-TICK" (lint_pa s)

(* --- TA mutation corpus ----------------------------------------------- *)

let l0 = M.loc "L0"
let self ?guard ?sync ?updates () =
  M.edge ?guard ?sync ?updates ~src:"L0" ~dst:"L0" ()

let test_ta_dup_decl () =
  let m =
    ta
      ~vars:[ M.scalar "x" 0; M.scalar "x" 1 ]
      [ auto "A" [ l0 ] [] ]
  in
  fires_exactly "TA-DUP-DECL" (lint_ta m)

let test_ta_undef_var () =
  let m = ta [ auto "A" [ l0 ] [ self ~guard:E.(v "y" = i 0) () ] ] in
  fires_exactly "TA-UNDEF-VAR" (lint_ta m)

let test_ta_undef_clock () =
  let m = ta [ auto "A" [ l0 ] [ self ~updates:[ M.Reset "c" ] () ] ] in
  fires_exactly "TA-UNDEF-CLOCK" (lint_ta m)

let test_ta_undef_chan () =
  let m = ta [ auto "A" [ l0 ] [ self ~sync:(M.Send "ch") () ] ] in
  fires_exactly "TA-UNDEF-CHAN" (lint_ta m)

let test_ta_undef_loc () =
  let m =
    ta [ auto "A" [ l0 ] [ M.edge ~src:"L0" ~dst:"Nowhere" () ] ]
  in
  fires_exactly "TA-UNDEF-LOC" (lint_ta m)

let test_ta_array_as_scalar () =
  let m =
    ta
      ~vars:[ M.array "a" [ 0; 1 ] ]
      [ auto "A" [ l0 ] [ self ~guard:E.(v "a" = i 0) () ] ]
  in
  fires_exactly "TA-ARRAY" (lint_ta m)

let test_ta_idx_range () =
  let m =
    ta
      ~vars:[ M.array "a" [ 0; 1 ] ]
      [ auto "A" [ l0 ] [ self ~guard:E.(Elem ("a", i 5) = i 0) () ] ]
  in
  fires_exactly "TA-IDX-RANGE" (lint_ta m)

let test_ta_dead_loc () =
  let m = ta [ auto "A" [ l0; M.loc "L1" ] [] ] in
  fires_exactly "TA-DEAD-LOC" (lint_ta m)

let test_ta_guard_unsat () =
  (* x is initialised to 0 and never written, so x == 5 can never hold *)
  let m =
    ta
      ~vars:[ M.scalar "x" 0 ]
      [ auto "A" [ l0 ] [ self ~guard:E.(v "x" = i 5) () ] ]
  in
  fires_exactly "TA-GUARD-UNSAT" (lint_ta m)

let test_ta_guard_inv () =
  (* the guard is satisfiable on its own but contradicts the source
     location's invariant *)
  let m =
    ta
      ~clocks:[ { M.clock_name = "c"; cap = 10 } ]
      [
        auto "A"
          [ M.loc ~invariant:E.(clk "c" <= i 2) "L0" ]
          [ self ~guard:E.(clk "c" >= i 5) () ];
      ]
  in
  fires_exactly "TA-GUARD-INV" (lint_ta m)

let test_ta_chan_no_recv () =
  let m =
    ta ~chans:[ M.chan "h" ]
      [ auto "A" [ l0 ] [ self ~sync:(M.Send "h") () ] ]
  in
  fires_exactly "TA-CHAN-NO-RECV" (lint_ta m)

let test_ta_chan_no_send () =
  let m =
    ta ~chans:[ M.chan "h" ]
      [ auto "A" [ l0 ] [ self ~sync:(M.Recv "h") () ] ]
  in
  fires_exactly "TA-CHAN-NO-SEND" (lint_ta m)

let test_ta_clock_unread () =
  let m =
    ta
      ~clocks:[ { M.clock_name = "c"; cap = 3 } ]
      [ auto "A" [ l0 ] [ self ~updates:[ M.Reset "c" ] () ] ]
  in
  fires_exactly "TA-CLOCK-UNREAD" (lint_ta m)

let test_ta_var_unbounded () =
  let m =
    ta
      ~vars:[ M.scalar "x" 0 ]
      [
        auto "A" [ l0 ]
          [ self ~updates:[ M.Assign (M.Scalar "x", E.(v "x" + i 1)) ] () ];
      ]
  in
  fires_exactly "TA-VAR-UNBOUNDED" (lint_ta m)

let test_ta_zeno () =
  let m =
    ta
      [
        auto "A"
          [ M.loc ~kind:M.Urgent "L0"; M.loc ~kind:M.Urgent "L1" ]
          [
            M.edge ~src:"L0" ~dst:"L1" (); M.edge ~src:"L1" ~dst:"L0" ();
          ];
      ]
  in
  fires_exactly "TA-ZENO" (lint_ta m)

(* A clock bound by a variable that grows without limit cannot be
   closed by the interval analysis: the TA-ZONE and TA-LU sections
   together report it once, as TA-LU-DIVERGE at the guarding edge. *)
let test_ta_lu_diverge_once () =
  let m =
    ta
      ~vars:[ M.scalar "v" 0 ]
      ~clocks:[ { M.clock_name = "k"; cap = 3 } ]
      [
        auto "A" [ l0 ]
          [
            self
              ~guard:E.(clk "k" <= v "v")
              ~updates:[ M.Assign (M.Scalar "v", E.(v "v" + i 1)) ]
              ();
          ];
      ]
  in
  let warnings =
    List.filter_map
      (fun (d : R.diag) ->
        if d.R.severity = R.Warning then Some (d.R.code, d.R.where) else None)
      (Zone.Sym.diagnostics m @ Lubounds.diagnostics m)
  in
  check
    Alcotest.(list (pair string string))
    "one divergence warning"
    [ ("TA-LU-DIVERGE", "A: L0 -> L0") ]
    warnings

(* --- shipped models lint clean ---------------------------------------- *)

let lint_params = H.Params.make ~n:2 ~tmin:4 ~tmax:10 ()

let shipped_reports () =
  List.concat_map
    (fun v ->
      let name = H.Ta_models.variant_name v in
      let pa =
        match H.Pa_models.of_ta v with
        | None -> []
        | Some pv ->
            [
              Lint.Pa.analyze ~model:("pa:" ^ name)
                (H.Pa_models.build pv lint_params);
            ]
      in
      let ta fixed =
        let label = if fixed then "ta:" ^ name ^ ":fixed" else "ta:" ^ name in
        Lint.Ta_model.analyze ~model:label
          (H.Ta_models.build ~fixed ~with_r1_monitors:true v lint_params)
      in
      pa @ [ ta false; ta true ])
    H.Ta_models.all_variants

let test_shipped_clean () =
  List.iter
    (fun (r : R.t) ->
      check Alcotest.int
        (r.R.model ^ ": no lint errors")
        0 (R.errors r);
      check Alcotest.int
        (r.R.model ^ ": no lint warnings")
        0 (R.warnings r))
    (shipped_reports ())

(* --- JSON determinism -------------------------------------------------- *)

let test_json_deterministic () =
  (* Two full, independent analysis runs must serialise byte-identically:
     no hash-table iteration order may leak into the report. *)
  let j1 = R.to_json (shipped_reports ()) in
  let j2 = R.to_json (shipped_reports ()) in
  check Alcotest.string "hblint --json is byte-deterministic" j1 j2

(* --- state-bound soundness -------------------------------------------- *)

let small = H.Params.make ~n:1 ~tmin:1 ~tmax:2 ()

let test_bound_sound_ta () =
  let m = H.Ta_models.build H.Ta_models.Binary small in
  let sys = Ta.Semantics.system (Ta.Semantics.compile m) in
  let actual, complete = Mc.Explore.count sys in
  check Alcotest.bool "exploration complete" true complete;
  match Lint.Ta_model.static_bound m with
  | Lint.Interval.Unbounded ->
      Alcotest.fail "static bound for the small binary TA should be finite"
  | Lint.Interval.Finite bound ->
      if bound < actual then
        Alcotest.failf "unsound TA state bound: %d < %d actual" bound actual

let test_bound_sound_pa () =
  let s = H.Pa_models.build H.Pa_models.Binary small in
  let sys = Proc.Semantics.system s in
  let actual, complete = Mc.Explore.count sys in
  check Alcotest.bool "exploration complete" true complete;
  match Lint.Pa.static_bound s with
  | Lint.Interval.Unbounded ->
      Alcotest.fail "static bound for the small binary PA should be finite"
  | Lint.Interval.Finite bound ->
      if bound < actual then
        Alcotest.failf "unsound PA state bound: %d < %d actual" bound actual

(* --- explorer pre-sizing parity --------------------------------------- *)

let test_presize_parity () =
  (* A table-sizing hint — absent, huge, or absurdly small — must never
     change exploration results. *)
  let m = H.Ta_models.build H.Ta_models.Binary small in
  let sys = Ta.Semantics.system (Ta.Semantics.compile m) in
  let base, bc = Mc.Explore.count sys in
  let hinted, hc = Mc.Explore.count ~expected_states:1_000_000 sys in
  let tiny, tc = Mc.Explore.count ~expected_states:1 sys in
  check Alcotest.(pair int bool) "seq hinted" (base, bc) (hinted, hc);
  check Alcotest.(pair int bool) "seq tiny hint" (base, bc) (tiny, tc);
  let par, pc = Mc.Pexplore.count ~domains:2 ~expected_states:7 sys in
  check Alcotest.(pair int bool) "par hinted" (base, bc) (par, pc)

(* --- pinning: the write-only leave flag stays gone --------------------- *)

let test_dynamic_no_leave_flag () =
  (* hblint's TA-VAR-WRITE-ONLY flagged leave1/leave2 in the dynamic
     model: set on the Rcvd -> Left edge, never read (departure is
     already tracked by the Left location).  The cells were removed;
     this pins them out. *)
  let m = H.Ta_models.build H.Ta_models.Dynamic lint_params in
  List.iter
    (fun (v : M.var_decl) ->
      if
        String.length v.M.var_name >= 5
        && String.sub v.M.var_name 0 5 = "leave"
      then Alcotest.failf "write-only leave flag resurrected: %s" v.M.var_name)
    m.M.vars;
  (* the trimmed model still compiles and explores *)
  let sys = Ta.Semantics.system (Ta.Semantics.compile m) in
  let count, _ = Mc.Explore.count ~max_states:1_000 sys in
  check Alcotest.bool "dynamic model still explores" true (count > 0)

(* --- suite ------------------------------------------------------------- *)

(* --- allowlist bookkeeping ------------------------------------------- *)

let test_unused_allows () =
  let r =
    R.make ~model:"pa:binary"
      ~diags:[ R.diag ~code:"PA-DEAD-DEF" ~where:"X" "dead" ]
      ~stats:R.no_stats
  in
  (* matched: bare code, and model-qualified with the right model *)
  check
    Alcotest.(list string)
    "matched entries are not reported" []
    (R.unused_allows [ "PA-DEAD-DEF"; "pa:binary/PA-DEAD-DEF" ] [ r ]);
  (* unmatched: unknown code, and right code under the wrong model *)
  check
    Alcotest.(list string)
    "stale entries are reported in order"
    [ "NO-SUCH-CODE"; "ta:binary/PA-DEAD-DEF" ]
    (R.unused_allows
       [ "PA-DEAD-DEF"; "NO-SUCH-CODE"; "ta:binary/PA-DEAD-DEF" ]
       [ r ]);
  check
    Alcotest.(list string)
    "everything is stale against no reports" [ "PA-DEAD-DEF" ]
    (R.unused_allows [ "PA-DEAD-DEF" ] [])

let tests =
  ( "lint",
    [
      Alcotest.test_case "mutation: PA-TYPE (+ mcrl2 regression)" `Quick
        test_pa_type;
      Alcotest.test_case "mutation: PA-ACT-ARITY" `Quick test_pa_act_arity;
      Alcotest.test_case "mutation: PA-UNBOUND-VAR" `Quick test_pa_unbound_var;
      Alcotest.test_case "mutation: PA-DUP-DEF" `Quick test_pa_dup_def;
      Alcotest.test_case "mutation: PA-UNDEF" `Quick test_pa_undef;
      Alcotest.test_case "mutation: PA-ARITY" `Quick test_pa_arity;
      Alcotest.test_case "mutation: PA-SUM-EMPTY" `Quick test_pa_sum_empty;
      Alcotest.test_case "mutation: PA-COMM-SELF" `Quick test_pa_comm_self;
      Alcotest.test_case "mutation: PA-HIDE-TICK" `Quick test_pa_hide_tick;
      Alcotest.test_case "mutation: PA-DEAD-DEF" `Quick test_pa_dead_def;
      Alcotest.test_case "mutation: PA-COMM-DEAD" `Quick test_pa_comm_dead;
      Alcotest.test_case "mutation: PA-ALLOW-DEAD" `Quick test_pa_allow_dead;
      Alcotest.test_case "mutation: PA-HIDE-DEAD" `Quick test_pa_hide_dead;
      Alcotest.test_case "mutation: PA-NO-TICK" `Quick test_pa_no_tick;
      Alcotest.test_case "mutation: TA-DUP-DECL" `Quick test_ta_dup_decl;
      Alcotest.test_case "mutation: TA-UNDEF-VAR" `Quick test_ta_undef_var;
      Alcotest.test_case "mutation: TA-UNDEF-CLOCK" `Quick test_ta_undef_clock;
      Alcotest.test_case "mutation: TA-UNDEF-CHAN" `Quick test_ta_undef_chan;
      Alcotest.test_case "mutation: TA-UNDEF-LOC" `Quick test_ta_undef_loc;
      Alcotest.test_case "mutation: TA-ARRAY" `Quick test_ta_array_as_scalar;
      Alcotest.test_case "mutation: TA-IDX-RANGE" `Quick test_ta_idx_range;
      Alcotest.test_case "mutation: TA-DEAD-LOC" `Quick test_ta_dead_loc;
      Alcotest.test_case "mutation: TA-GUARD-UNSAT" `Quick test_ta_guard_unsat;
      Alcotest.test_case "mutation: TA-GUARD-INV" `Quick test_ta_guard_inv;
      Alcotest.test_case "mutation: TA-CHAN-NO-RECV" `Quick
        test_ta_chan_no_recv;
      Alcotest.test_case "mutation: TA-CHAN-NO-SEND" `Quick
        test_ta_chan_no_send;
      Alcotest.test_case "mutation: TA-CLOCK-UNREAD" `Quick
        test_ta_clock_unread;
      Alcotest.test_case "mutation: TA-VAR-UNBOUNDED" `Quick
        test_ta_var_unbounded;
      Alcotest.test_case "mutation: TA-ZENO" `Quick test_ta_zeno;
      Alcotest.test_case "TA-LU-DIVERGE reported once" `Quick
        test_ta_lu_diverge_once;
      Alcotest.test_case "all shipped models lint clean" `Quick
        test_shipped_clean;
      Alcotest.test_case "json output is deterministic" `Quick
        test_json_deterministic;
      Alcotest.test_case "TA state bound is sound" `Quick test_bound_sound_ta;
      Alcotest.test_case "PA state bound is sound" `Quick test_bound_sound_pa;
      Alcotest.test_case "expected_states hint preserves results" `Quick
        test_presize_parity;
      Alcotest.test_case "dynamic model has no leave flag" `Quick
        test_dynamic_no_leave_flag;
      Alcotest.test_case "unused allow entries are reported" `Quick
        test_unused_allows;
    ] )
