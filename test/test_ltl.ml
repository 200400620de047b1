(* Tests for the LTL subsystem: the formula layer, the Büchi pipeline
   checked against a reference evaluator on ultimately-periodic words,
   engine agreement on random systems, fairness, stutter policies, and
   agreement with the CTL and safety checkers. *)

let check = Alcotest.check

module F = Ltl.Formula
module C = Ltl.Check

let lbl l = F.lbl l (String.equal l)
let enb l = F.enabled l (String.equal l)

(* --- reference semantics on ultimately-periodic words --- *)

(* One position of a run: the label taken (None on a stutter step) and
   the labels enabled at the source state. *)
type pos = { tk : string option; en : string list }

let pos_of_label l = { tk = Some l; en = [ l ] }

let pos_of_step = function
  | C.Step l -> pos_of_label l
  | C.Stutter -> { tk = None; en = [] }

(* Satisfaction of [f] on the word [prefix . cycle^ω], by fixpoint
   iteration over the finitely many positions (Until least, Release
   greatest).  Independent of the tableau pipeline: the oracle. *)
let lasso_sat (f : string F.t) (prefix : pos list) (cycle : pos list) : bool =
  let n_pre = List.length prefix in
  let pos = Array.of_list (prefix @ cycle) in
  let n = Array.length pos in
  let next i = if i + 1 < n then i + 1 else n_pre in
  let fixpoint init a b step =
    let x = Array.make n init in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        let v = step a.(i) b.(i) x.(next i) in
        if v <> x.(i) then (
          x.(i) <- v;
          changed := true)
      done
    done;
    x
  in
  let rec eval = function
    | F.True -> Array.make n true
    | F.False -> Array.make n false
    | F.Lbl (_, p) ->
        Array.map (fun x -> match x.tk with Some l -> p l | None -> false) pos
    | F.Enabled (_, p) -> Array.map (fun x -> List.exists p x.en) pos
    | F.Not f -> Array.map not (eval f)
    | F.And (a, b) -> Array.map2 ( && ) (eval a) (eval b)
    | F.Or (a, b) -> Array.map2 ( || ) (eval a) (eval b)
    | F.Next f ->
        let a = eval f in
        Array.init n (fun i -> a.(next i))
    | F.Until (a, b) ->
        fixpoint false (eval a) (eval b) (fun ai bi xi -> bi || (ai && xi))
    | F.Release (a, b) ->
        fixpoint true (eval a) (eval b) (fun ai bi xi -> bi && (ai || xi))
  in
  (eval f).(0)

(* --- toy systems --- *)

let table transitions : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0

    let successors s =
      List.filter_map
        (fun (u, l, v) -> if u = s then Some (l, v) else None)
        transitions

    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

(* The system whose unique run is [pre . cyc^ω]: one state per word
   position, a single outgoing transition each. *)
let lasso_system pre cyc : (int, string) Mc.System.t =
  let labels = Array.of_list (pre @ cyc) in
  let n = Array.length labels and n_pre = List.length pre in
  (module struct
    type state = int
    type label = string

    let initial = 0
    let successors s = [ (labels.(s), if s + 1 < n then s + 1 else n_pre) ]
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

(* --- generators --- *)

let alphabet = [ "a"; "b"; "c" ]

let formula_gen ?(alphabet = alphabet) depth =
  let open QCheck.Gen in
  let atom = oneofl alphabet >>= fun l -> oneofl [ lbl l; enb l ] in
  let rec go depth =
    if depth = 0 then oneof [ return F.True; return F.False; atom ]
    else
      let sub = go (depth - 1) in
      frequency
        [
          (2, atom);
          (1, map (fun f -> F.Not f) sub);
          (1, map2 (fun a b -> F.And (a, b)) sub sub);
          (1, map2 (fun a b -> F.Or (a, b)) sub sub);
          (1, map (fun f -> F.Next f) sub);
          (2, map2 (fun a b -> F.Until (a, b)) sub sub);
          (2, map2 (fun a b -> F.Release (a, b)) sub sub);
        ]
  in
  go depth

let formula_arb = QCheck.make ~print:(Format.asprintf "%a" F.pp) (formula_gen 3)

let word_gen alphabet =
  let open QCheck.Gen in
  pair
    (list_size (int_bound 3) (oneofl alphabet))
    (list_size (int_range 1 3) (oneofl alphabet))

let print_word (p, c) =
  Printf.sprintf "%s (%s)^w" (String.concat "." p) (String.concat "." c)

let word_arb = QCheck.make ~print:print_word (word_gen alphabet)

(* --- pipeline vs reference evaluator --- *)

(* On a single-lasso system there is exactly one run, so [check] holds
   iff the reference evaluator accepts the word — this exercises the
   whole tableau / degeneralization / product / emptiness pipeline
   against an independent semantics.  A refutation must additionally be
   a word refuting the formula.  Both engines. *)
let agrees_with_reference f (pre, cyc) =
  let sys = lasso_system pre cyc in
  let expected =
    lasso_sat f (List.map pos_of_label pre) (List.map pos_of_label cyc)
  in
  let refutation_refutes = function
    | C.Refuted l ->
        not
          (lasso_sat f
             (List.map pos_of_step l.C.prefix)
             (List.map pos_of_step l.C.cycle))
    | C.Holds -> true
    | C.Unknown _ | C.Exhausted _ -> false
  in
  List.for_all
    (fun engine ->
      let v = C.check ~engine sys f in
      C.holds v = expected && refutation_refutes v)
    [ C.Ndfs; C.Scc ]

let prop_pipeline_vs_reference =
  QCheck.Test.make ~name:"verdict = reference evaluator on single lassos"
    ~count:500
    (QCheck.pair formula_arb word_arb)
    (fun (f, w) -> agrees_with_reference f w)

(* Guards are bit masks with [Sys.int_size] atoms to a word, and no
   limit on the number of atoms.  [G (l0 || ... || l69)] brings 70
   label atoms, numbered in that order, and negates to one guard over
   all of them; the random conjunct reads atoms on both sides of the
   first word's end (l62, l63, l69), as labels and as [Enabled] atoms,
   which come after the 70.  The words use those labels and one outside
   the disjunction. *)
let wide_all =
  F.globally (F.disj (List.init 70 (fun i -> lbl (Printf.sprintf "l%d" i))))

let prop_wide_guards =
  let read = [ "l1"; "l62"; "l63"; "l69" ] in
  QCheck.Test.make ~name:"verdict = reference evaluator with 70 atoms"
    ~count:150
    (QCheck.pair
       (QCheck.make ~print:(Format.asprintf "%a" F.pp)
          (formula_gen ~alphabet:read 2))
       (QCheck.make ~print:print_word (word_gen ("x" :: "l0" :: read))))
    (fun (g, w) -> agrees_with_reference (F.And (wide_all, g)) w)

(* The same, pair by pair: an atom past the first word, as [F h] and as
   [G !h], on the word [l^w] for labels [l] on both sides of the
   boundary.  A mask that folds the second word onto the first (bit
   [a mod 63] or [a mod 64]) or drops it makes some [h] read as some
   other [l]. *)
let test_wide_pairs () =
  let high = [ "l62"; "l63"; "l64"; "l69" ] in
  List.iter
    (fun h ->
      List.iter
        (fun l ->
          List.iter
            (fun (what, g) ->
              check Alcotest.bool
                (Printf.sprintf "%s %s on %s^w" what h l)
                true
                (agrees_with_reference (F.And (wide_all, g)) ([], [ l ])))
            [ ("F", F.finally (lbl h)); ("G!", F.globally (F.Not (lbl h))) ])
        ([ "l0"; "l1"; "l5"; "l6" ] @ high))
    high

let prop_nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf preserves word semantics" ~count:500
    (QCheck.pair formula_arb word_arb)
    (fun (f, (pre, cyc)) ->
      let pre = List.map pos_of_label pre and cyc = List.map pos_of_label cyc in
      lasso_sat f pre cyc = lasso_sat (F.nnf f) pre cyc)

(* --- engine agreement on random branching systems --- *)

let rand_edges_arb =
  let open QCheck.Gen in
  let gen =
    int_range 1 7 >>= fun n ->
    let edge =
      triple (int_bound (n - 1)) (oneofl alphabet) (int_bound (n - 1))
    in
    list_size (int_bound 10) edge >>= fun es -> return (n, es)
  in
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "%d states: %s" n
        (String.concat " "
           (List.map (fun (u, l, v) -> Printf.sprintf "%d-%s->%d" u l v) es)))
    gen

(* Deadlocks are likely here, so this also exercises both stutter
   policies on branching state spaces. *)
let prop_engines_agree =
  QCheck.Test.make ~name:"ndfs and scc agree on random systems" ~count:300
    (QCheck.pair formula_arb rand_edges_arb)
    (fun (f, (_, es)) ->
      let sys = table es in
      List.for_all
        (fun stutter ->
          C.holds (C.check ~engine:C.Ndfs ~stutter sys f)
          = C.holds (C.check ~engine:C.Scc ~stutter sys f))
        [ C.Extend; C.Ignore ])

(* --- random process-algebra models --- *)

module T = Proc.Term

let pa_spec_arb =
  let open QCheck.Gen in
  (* Guarded loops over {tick, a, b, snd, rcv}; snd/rcv communicate
     into c — same shape as the exploration properties in test_proc. *)
  let summand self =
    oneofl [ "tick"; "a"; "b"; "snd"; "rcv" ] >>= fun act ->
    return (T.Prefix (T.act act [], T.call self []))
  in
  let component name =
    list_size (int_range 1 4) (summand name) >>= fun summands ->
    return (T.def name [] (T.choice summands))
  in
  let gen =
    component "X" >>= fun x ->
    component "Y" >>= fun y ->
    return
      {
        Proc.Spec.defs = [ x; y ];
        init = [ ("X", []); ("Y", []) ];
        comms = [ ("snd", "rcv", "c") ];
        allow = [ "a"; "b"; "c" ];
        hide = [];
      }
  in
  QCheck.make
    ~print:(fun spec ->
      String.concat " | "
        (List.map
           (fun (d : T.def) -> Format.asprintf "%a" Proc.Term.pp d.T.body)
           spec.Proc.Spec.defs))
    gen

let pa_name name l = Proc.Semantics.label_name l = name
let pa_lbl name = F.lbl name (pa_name name)

let pa_formula_gen =
  let open QCheck.Gen in
  let atom = oneofl [ "tick"; "a"; "b"; "c" ] >>= fun l -> return (pa_lbl l) in
  let rec go depth =
    if depth = 0 then atom
    else
      let sub = go (depth - 1) in
      frequency
        [
          (2, atom);
          (1, map (fun f -> F.Not f) sub);
          (1, map2 (fun a b -> F.Or (a, b)) sub sub);
          (1, map (fun f -> F.Next f) sub);
          (2, map2 (fun a b -> F.Until (a, b)) sub sub);
          (2, map2 (fun a b -> F.Release (a, b)) sub sub);
        ]
  in
  go 3

let prop_engines_agree_pa =
  QCheck.Test.make ~name:"ndfs and scc agree on random PA models" ~count:150
    (QCheck.pair (QCheck.make ~print:(Format.asprintf "%a" F.pp) pa_formula_gen)
       pa_spec_arb)
    (fun (f, spec) ->
      let sys = Proc.Semantics.system spec in
      C.holds (C.check ~engine:C.Ndfs sys f)
      = C.holds (C.check ~engine:C.Scc sys f))

(* For the syntactic-safety fragment, the LTL verdict must agree with
   the regex-based safety checker: forbidding the pattern
   [any* a1 any* a2 ... any* ak] is the formula
   [¬ F (a1 ∧ X F (a2 ∧ ... X F ak))]. *)
let prop_safety_fragment_vs_forbidden =
  let names_arb =
    QCheck.make
      ~print:(String.concat ".")
      QCheck.Gen.(list_size (int_range 1 3) (oneofl [ "a"; "b"; "c" ]))
  in
  QCheck.Test.make ~name:"safety-fragment LTL = Safety.check_forbidden"
    ~count:150
    (QCheck.pair names_arb pa_spec_arb)
    (fun (names, spec) ->
      let r =
        Mc.Regex.seq_list
          (List.concat_map
             (fun nm ->
               [ Mc.Regex.star Mc.Regex.any; Mc.Regex.atom nm (pa_name nm) ])
             names)
      in
      let rec chase = function
        | [] -> assert false
        | [ nm ] -> F.finally (pa_lbl nm)
        | nm :: rest -> F.finally (F.And (pa_lbl nm, F.Next (chase rest)))
      in
      let f = F.Not (chase names) in
      let sys = Proc.Semantics.system spec in
      let safe = Mc.Safety.holds (Mc.Safety.check_forbidden sys r) in
      List.for_all
        (fun engine -> C.holds (C.check ~engine sys f) = safe)
        [ C.Ndfs; C.Scc ])

(* --- fairness --- *)

let both_engines sys ?(fairness = []) f =
  let v = C.check ~engine:C.Ndfs ~fairness sys f in
  let v' = C.check ~engine:C.Scc ~fairness sys f in
  check Alcotest.bool "engines agree" (C.holds v) (C.holds v');
  v

let test_weak_fairness () =
  (* 0 can loop on b forever, but a stays enabled throughout: the b-loop
     is unfair under weak fairness on a. *)
  let sys = table [ (0, "a", 1); (0, "b", 0); (1, "a", 1) ] in
  let f = F.finally (lbl "a") in
  check Alcotest.bool "refuted unfair" false (C.holds (both_engines sys f));
  (* justice as a premise: GF (¬enabled(a) ∨ a) *)
  let a = String.equal "a" in
  let fairness =
    [
      {
        C.fname = "sched";
        premise =
          F.infinitely_often
            (F.Or (F.Not (F.enabled "sched.enabled" a), F.lbl "sched.taken" a));
      };
    ]
  in
  check Alcotest.bool "holds weakly fair" true
    (C.holds (both_engines sys ~fairness f))

let test_response_fairness () =
  (* The fair-lossy channel: dropping every message forever is excluded
     by response fairness, so delivery becomes inevitable. *)
  let sys =
    table [ (0, "snd", 1); (1, "lose", 0); (1, "dlv", 0) ]
  in
  let f = F.infinitely_often (lbl "dlv") in
  check Alcotest.bool "refuted lossy" false (C.holds (both_engines sys f));
  let fairness =
    [ C.response "ch" ~trigger:(String.equal "snd") ~response:(String.equal "dlv") ]
  in
  check Alcotest.bool "holds fair-lossy" true
    (C.holds (both_engines sys ~fairness f))

let test_often_fairness () =
  let sys = table [ (0, "tick", 0); (0, "a", 0) ] in
  let f = F.finally (lbl "a") in
  check Alcotest.bool "refuted (tick loop)" false
    (C.holds (both_engines sys f));
  let fairness = [ C.often "acts" (String.equal "a") ] in
  check Alcotest.bool "holds under often" true
    (C.holds (both_engines sys ~fairness f))

(* One acceptance set per Until of the negated formula: GF a && GF b is
   refuted by a run that settles in an a-only loop (one set visited
   forever, the other never), and holds when the only loop takes both. *)
let test_acceptance_sets () =
  let f = F.And (F.infinitely_often (lbl "a"), F.infinitely_often (lbl "b")) in
  let a_loop = table [ (0, "b", 1); (1, "a", 1) ] in
  check Alcotest.bool "a-only loop refutes" false
    (C.holds (both_engines a_loop f));
  let ab_loop = table [ (0, "a", 1); (1, "b", 0) ] in
  check Alcotest.bool "a-b loop holds" true (C.holds (both_engines ab_loop f))

(* --- stutter policies and the CTL deadlock divergence --- *)

let test_stutter_policies () =
  let chain = [ (0, "a", 1) ] in
  let sys = table chain in
  (* Extend: the deadlock is observable — nothing is ever enabled again. *)
  (match C.check ~stutter:C.Extend sys (F.globally (enb "a")) with
  | C.Refuted l ->
      check
        Alcotest.(list string)
        "stuttering cycle" []
        (C.strip l.C.cycle);
      check Alcotest.bool "cycle nonempty" true (l.C.cycle <> [])
  | _ -> Alcotest.fail "expected Refuted under Extend");
  check Alcotest.bool "F b refuted under Extend" false
    (C.holds (C.check ~stutter:C.Extend sys (F.finally (lbl "b"))));
  (* Ignore: no infinite path, every property holds vacuously. *)
  check Alcotest.bool "G false holds under Ignore" true
    (C.holds (C.check ~stutter:C.Ignore sys (F.globally F.False)));
  (* CTL on the same chain: AF is vacuously true at the deadlock, so the
     two logics diverge under Extend and agree under Ignore. *)
  let space = Mc.Explore.space sys in
  let g = space.Mc.Explore.lts in
  let af_can_b = Mc.Ctl.AF (Mc.Ctl.can "b" (String.equal "b")) in
  check Alcotest.bool "CTL AF (Can b) vacuously true" true
    (Mc.Ctl.holds g af_can_b);
  check Alcotest.bool "LTL Extend disagrees" false
    (C.holds (C.check ~stutter:C.Extend sys (F.finally (enb "b"))));
  check Alcotest.bool "LTL Ignore agrees" true
    (C.holds (C.check ~stutter:C.Ignore sys (F.finally (enb "b"))))

(* --- CTL/LTL agreement on a shipped model --- *)

(* On a deadlock-free system, [AG (Can p)] coincides with [G enabled(p)]
   and [AF (Can p)] with [F enabled(p)] — checked on the binary protocol
   model, where the CTL side runs on the explored graph and the LTL side
   on the fly. *)
let test_ctl_ltl_agreement_shipped () =
  let open Heartbeat in
  let p = Params.make ~n:1 ~tmin:2 ~tmax:2 () in
  let net = Ta.Semantics.compile (Ta_models.build ~fixed:false Ta_models.Binary p) in
  let sys = Ta.Semantics.system net in
  let space = Mc.Explore.space sys in
  let g = space.Mc.Explore.lts in
  check Alcotest.bool "explored" true space.Mc.Explore.complete;
  let deadlock_free =
    Mc.Ctl.holds g (Mc.Ctl.AG (Mc.Ctl.can "any" (fun _ -> true)))
  in
  check Alcotest.bool "binary model deadlock-free" true deadlock_free;
  let preds =
    [
      ("any", fun _ -> true);
      ("delay", fun l -> l = Ta.Semantics.Delay);
      ("timeout_p0", fun l -> l = Ta.Semantics.Act "timeout_p0");
      ("crash_p0", fun l -> l = Ta.Semantics.Act "crash_p0");
      ("never", fun _ -> false);
    ]
  in
  List.iter
    (fun (name, pred) ->
      let ctl_ag = Mc.Ctl.holds g (Mc.Ctl.AG (Mc.Ctl.can name pred)) in
      let ctl_af = Mc.Ctl.holds g (Mc.Ctl.AF (Mc.Ctl.can name pred)) in
      let ltl v = C.holds (C.check sys v) in
      check Alcotest.bool
        ("AG Can = G enabled: " ^ name)
        ctl_ag
        (ltl (F.globally (F.enabled name pred)));
      check Alcotest.bool
        ("AF Can = F enabled: " ^ name)
        ctl_af
        (ltl (F.finally (F.enabled name pred))))
    preds

(* --- shipped-model liveness gate --- *)

(* The §5.5 race on the binary variant, as a tier-1 test: R2-live is
   refuted on the unfixed model at the tmin = tmax race point by a fair
   benign lasso, and holds once fixed; R1-live holds even unfixed. *)
let test_binary_liveness_gate () =
  let open Heartbeat in
  let p = Params.make ~n:1 ~tmin:4 ~tmax:4 () in
  let is_fault = function
    | Ta.Semantics.Act a ->
        let has pre =
          String.length a >= String.length pre
          && String.sub a 0 (String.length pre) = pre
        in
        has "lose" || has "crash_" || has "leave"
    | Ta.Semantics.Delay -> false
  in
  (match Verify.check_live ~fixed:false Ta_models.Binary p Requirements.R2 with
  | Ltl.Check.Refuted l ->
      let steps = C.strip l.C.prefix @ C.strip l.C.cycle in
      check Alcotest.bool "cycle nonempty" true (l.C.cycle <> []);
      check Alcotest.bool "lasso is benign" true
        (not (List.exists is_fault steps));
      check Alcotest.bool "cycle is time-divergent" true
        (List.mem Ta.Semantics.Delay (C.strip l.C.cycle))
  | _ -> Alcotest.fail "expected R2-live refuted on unfixed binary");
  List.iter
    (fun engine ->
      check Alcotest.bool "R2 unfixed refuted (both engines)" false
        (C.holds
           (Verify.check_live ~fixed:false ~engine Ta_models.Binary p
              Requirements.R2));
      check Alcotest.bool "R2 fixed holds (both engines)" true
        (C.holds
           (Verify.check_live ~fixed:true ~engine Ta_models.Binary p
              Requirements.R2)))
    [ Ltl.Check.Ndfs; Ltl.Check.Scc ];
  check Alcotest.bool "R1 holds unfixed" true
    (C.holds (Verify.check_live ~fixed:false Ta_models.Binary p Requirements.R1));
  check Alcotest.bool "R3 fixed holds" true
    (C.holds (Verify.check_live ~fixed:true Ta_models.Binary p Requirements.R3))

(* --- truncation and budget counts --- *)

(* The nested DFS reports the product states it interned when a bound
   or a budget stops it: [Unknown] the bound itself, [Exhausted] the
   states met before the tripping poll (one poll per state touched).
   The counts are pinned on two fixed models whose products are larger
   than every bound, so they fix the search order too. *)
let test_ndfs_counts () =
  let open Heartbeat in
  let p = Params.make ~n:1 ~tmin:2 ~tmax:2 () in
  List.iter
    (fun (variant, req, trips) ->
      let net = Ta.Semantics.compile (Ta_models.build ~fixed:true variant p) in
      let sys = Ta.Semantics.system net in
      let f = Requirements.live_formula variant p req in
      let run ?max_states ?budget () =
        match
          C.check ~engine:C.Ndfs ~fairness:Requirements.live_fairness
            ?max_states ?budget sys f
        with
        | C.Unknown n -> `Unknown n
        | C.Exhausted e -> `Exhausted e.Mc.Explore.states_so_far
        | C.Holds | C.Refuted _ -> `Concluded
      in
      let name = Ta_models.variant_name variant in
      check Alcotest.bool (name ^ " holds") true (run () = `Concluded);
      List.iter
        (fun k ->
          check Alcotest.bool
            (Printf.sprintf "%s: bound %d" name k)
            true
            (run ~max_states:k () = `Unknown k))
        [ 1; 100; 1000 ];
      List.iter
        (fun (k, n) ->
          check Alcotest.bool
            (Printf.sprintf "%s: trip at poll %d" name k)
            true
            (run ~budget:(Test_resilience.tripping_budget k) ()
            = `Exhausted n))
        trips)
    [
      ( Ta_models.Binary,
        Requirements.R1,
        [ (1, 0); (2, 1); (100, 52); (1000, 333); (5000, 1423) ] );
      ( Ta_models.Expanding,
        Requirements.R2,
        [ (1, 0); (2, 1); (100, 64); (1000, 301); (5000, 1585) ] );
    ]

let tests =
  ( "ltl",
    [
      Alcotest.test_case "acceptance sets" `Quick test_acceptance_sets;
      Alcotest.test_case "weak fairness" `Quick test_weak_fairness;
      Alcotest.test_case "response fairness" `Quick test_response_fairness;
      Alcotest.test_case "often fairness" `Quick test_often_fairness;
      Alcotest.test_case "stutter policies vs CTL" `Quick test_stutter_policies;
      Alcotest.test_case "CTL/LTL agreement on binary model" `Quick
        test_ctl_ltl_agreement_shipped;
      Alcotest.test_case "binary liveness gate" `Quick test_binary_liveness_gate;
      Alcotest.test_case "ndfs counts under a bound and a budget" `Quick
        test_ndfs_counts;
      QCheck_alcotest.to_alcotest prop_pipeline_vs_reference;
      QCheck_alcotest.to_alcotest prop_wide_guards;
      Alcotest.test_case "70 atoms, pair by pair" `Quick test_wide_pairs;
      QCheck_alcotest.to_alcotest prop_nnf_preserves_semantics;
      QCheck_alcotest.to_alcotest prop_engines_agree;
      QCheck_alcotest.to_alcotest prop_engines_agree_pa;
      QCheck_alcotest.to_alcotest prop_safety_fragment_vs_forbidden;
    ] )
