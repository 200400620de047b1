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
               (Heartbeat.Ta_models.variant_name v)
               (Heartbeat.Requirements.name req))
            full red)
        Heartbeat.Requirements.all)
    Heartbeat.Ta_models.all_variants

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
               (Heartbeat.Ta_models.variant_name v)
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
        (Heartbeat.Ta_models.variant_name v ^ " zeno-free")
        true (Por.zeno_free a);
      check
        Alcotest.(list int)
        (Heartbeat.Ta_models.variant_name v ^ " no suspects")
        [] (Por.zeno_suspects a))
    Heartbeat.Ta_models.all_variants

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

(* --- one domain --------------------------------------------------------- *)

let test_foreign_domain_refused () =
  (* the reducer's seen-set and memo are unsynchronised: a call from a
     domain that did not build the system raises before touching them,
     and the building domain still expands *)
  let a = Por.analyze (Heartbeat.Pa_models.build Heartbeat.Pa_models.Binary small_params) in
  let module R =
    (val Por.reduced_system a : Mc.System.S
           with type state = Sem.state
            and type label = Sem.label)
  in
  let refused =
    Domain.join
      (Domain.spawn (fun () ->
           match R.successors R.initial with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  check Alcotest.bool "a spawned domain raises Invalid_argument" true refused;
  check Alcotest.bool "the building domain expands" true (R.successors R.initial <> [])

(* --- differential: the string-set reducer ----------------------------

   [Reference] is the ample search [Por] ran before it worked on masks
   over one tagged transition list: it closes each seed's group by
   probing string sets of future offers ([Lint_pa]'s syntactic
   analysis) and pairs the transitions of every candidate group anew.
   It runs over the term interpreter ([Pa_reference]), so beyond the
   static zeno verdict it shares no code with [Por] or
   [Proc.Semantics]'s menus.  The reducer must match it exactly: the
   same successor lists (labels, states, order) and the same
   [Por.stats]. *)

module Reference = struct
  module R = Pa_reference
  module SSet = Lint_pa.SSet

  (* [compare] rather than [=]: only the total order skips physically
     shared subterms, and successors share their terms with the
     definitions. *)
  module H = Hashtbl.Make (struct
    type t = R.state

    let equal a b = compare a b = 0
    let hash = Hashtbl.hash_param 128 256
  end)

  module C = Hashtbl.Make (struct
    type t = R.component

    let equal a b = compare a b = 0
    let hash = Hashtbl.hash_param 128 256
  end)

  let reduced_successors (a : Por.analysis) ~alphabet =
    let spec = Sem.spec_of (Por.compiled a) in
    let defs = Lint_pa.def_table spec in
    let comm = Hashtbl.create 16 in
    List.iter
      (fun (s, r, res) ->
        Hashtbl.add comm s (r, res);
        Hashtbl.add comm r (s, res))
      spec.Proc.Spec.comms;
    let prop = SSet.of_list alphabet in
    let proviso = Por.zeno_suspects a <> [] in
    let stats =
      {
        Por.states = 0;
        ample_states = 0;
        no_refuser = 0;
        proviso_blocked = 0;
        visible_blocked = 0;
      }
    in
    let seen = H.create 64 and memo = H.create 64 in
    let note s =
      match H.find_opt seen s with
      | Some d -> d
      | None ->
          let d = H.length seen in
          H.add seen s d;
          d
    in
    let futures = C.create 64 in
    let future (comp : R.component) =
      match C.find_opt futures comp with
      | Some set -> set
      | None ->
          let t = comp.R.proc in
          let roots = SSet.elements (Lint_pa.callees SSet.empty t) in
          let set =
            SSet.union (Lint_pa.offered SSet.empty t)
              (Lint_pa.offered_by defs (Lint_pa.reachable_from defs roots))
          in
          C.add futures comp set;
          set
    in
    let expand s ~disc =
      let n = Array.length s in
      let locals = Array.map (R.local_steps defs) s in
      let future = Array.map future s in
      let partners =
        Array.map
          (List.concat_map (fun (name, _, _) ->
               List.map fst (Hashtbl.find_all comm name)))
          locals
      in
      let offers_tick =
        Array.map
          (List.exists (fun (name, _, _) -> name = Proc.Spec.tick_name))
          locals
      in
      let group seed =
        let in_g = Array.make n false in
        in_g.(seed) <- true;
        let rec close = function
          | [] -> ()
          | m :: rest ->
              let pulled = ref rest in
              List.iter
                (fun partner ->
                  for j = 0 to n - 1 do
                    if (not in_g.(j)) && SSet.mem partner future.(j) then begin
                      in_g.(j) <- true;
                      pulled := j :: !pulled
                    end
                  done)
                partners.(m);
              close !pulled
        in
        close [ seed ];
        in_g
      in
      let depth = ref 0 in
      let try_seed seed =
        let in_g = group seed in
        let refused = ref false in
        Array.iteri (fun i g -> if g && not offers_tick.(i) then refused := true) in_g;
        if not !refused then None
        else
          let amples =
            R.successors_from spec comm ~among:(fun i -> in_g.(i)) ~tick:false locals s
          in
          let visible (l, _) = SSet.mem (Sem.label_name l) prop in
          let back (_, s') =
            match H.find_opt seen s' with Some d -> d <= disc | None -> false
          in
          if amples = [] || List.exists visible amples then begin
            depth := max !depth 1;
            None
          end
          else if proviso && List.exists back amples then begin
            depth := 2;
            None
          end
          else Some amples
      in
      let best = ref None in
      for seed = 0 to n - 1 do
        match (try_seed seed, !best) with
        | None, _ -> ()
        | Some amples, Some (k0, _) when k0 <= List.length amples -> ()
        | Some amples, _ -> best := Some (List.length amples, amples)
      done;
      match !best with
      | Some (_, amples) ->
          stats.ample_states <- stats.ample_states + 1;
          amples
      | None ->
          (match !depth with
          | 0 -> stats.no_refuser <- stats.no_refuser + 1
          | 1 -> stats.visible_blocked <- stats.visible_blocked + 1
          | _ -> stats.proviso_blocked <- stats.proviso_blocked + 1);
          R.successors_from spec comm ~among:(fun _ -> true) ~tick:true locals s
    in
    let successors s =
      match H.find_opt memo s with
      | Some r -> r
      | None ->
          let disc = if proviso then note s else 0 in
          stats.states <- stats.states + 1;
          let r = expand s ~disc in
          if proviso then List.iter (fun (_, s') -> ignore (note s' : int)) r;
          H.add memo s r;
          r
    in
    (successors, stats)
end

module SH = Hashtbl.Make (struct
  type t = Sem.state

  let equal = Sem.equal_state
  let hash = Sem.hash_state
end)

(* Drive the reducer and [Reference] through the same expansions —
   breadth-first over the reduced graph, at most [limit] states — and
   compare every successor list, then the statistics. *)
let same_as_reference ?(limit = max_int) a ~alphabet =
  let sys, stats = Por.reduced_system_stats ~alphabet a in
  let module S =
    (val sys : Mc.System.S with type state = Sem.state and type label = Sem.label)
  in
  let reference, ref_stats = Reference.reduced_successors a ~alphabet in
  let seen = SH.create 1024 and queue = Queue.create () in
  SH.add seen S.initial ();
  Queue.push S.initial queue;
  let same = ref true and expanded = ref 0 in
  while !same && !expanded < limit && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    incr expanded;
    let mine = S.successors s in
    let theirs = reference (Pa_reference.view s) in
    same :=
      List.length mine = List.length theirs
      && List.for_all2
           (fun (l, s') (l', r') -> l = l' && compare (Pa_reference.view s') r' = 0)
           mine theirs;
    List.iter
      (fun (_, s') ->
        if not (SH.mem seen s') then begin
          SH.add seen s' ();
          Queue.push s' queue
        end)
      mine
  done;
  !same && stats = ref_stats

let prop_same_as_reference =
  QCheck.Test.make ~name:"reduced successors and stats = string-set reference"
    ~count:150 random_spec (fun spec ->
      let a = Por.analyze spec in
      List.for_all
        (fun alphabet -> same_as_reference a ~alphabet)
        ([] :: List.map snd sample_monitors))

(* The six variants at the benchmark's points (static at n = 2 with
   (2,2), the others at n = 1 with (2,3)), under the empty alphabet and
   each monitor alphabet of R1-R3. *)
let test_variants_same_as_reference () =
  List.iter
    (fun v ->
      let p =
        if v = Heartbeat.Pa_models.Static then
          Heartbeat.Params.make ~n:2 ~tmin:2 ~tmax:2 ()
        else Heartbeat.Params.make ~tmin:2 ~tmax:3 ()
      in
      let a = Por.analyze (Heartbeat.Pa_models.build v p) in
      let alphabets =
        [] :: List.concat_map
                (fun req -> List.map snd (Heartbeat.Pa_verify.monitors v p req))
                Heartbeat.Requirements.all
      in
      List.iteri
        (fun k alphabet ->
          check Alcotest.bool
            (Printf.sprintf "%s alphabet %d: reduced = reference"
               (Heartbeat.Ta_models.variant_name v) k)
            true (same_as_reference a ~alphabet))
        alphabets)
    Heartbeat.Ta_models.all_variants

(* More than 62 communication halves: the partner and future-offer masks
   span two words.  The first 2 000 expansions of each, under the empty
   alphabet and R3's. *)
let test_multiword_same_as_reference () =
  List.iter
    (fun (v, p) ->
      let spec = Heartbeat.Pa_models.build v p in
      let halves =
        List.sort_uniq compare
          (List.concat_map (fun (s, r, _) -> [ s; r ]) spec.Proc.Spec.comms)
      in
      let what = Heartbeat.Ta_models.variant_name v in
      check Alcotest.bool (what ^ ": more than 62 halves") true
        (List.length halves > 62);
      let a = Por.analyze spec in
      List.iter
        (fun alphabet ->
          check Alcotest.bool (what ^ ": reduced = reference") true
            (same_as_reference ~limit:2_000 a ~alphabet))
        ([] :: List.map snd (Heartbeat.Pa_verify.monitors v p Heartbeat.Requirements.R3)))
    [
      (Heartbeat.Pa_models.Dynamic, Heartbeat.Params.make ~n:2 ~tmin:1 ~tmax:1 ());
      (Heartbeat.Pa_models.Static, Heartbeat.Params.make ~n:4 ~tmin:1 ~tmax:1 ());
    ]

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
      Alcotest.test_case "reduced system refuses a foreign domain" `Quick
        test_foreign_domain_refused;
      Alcotest.test_case "stutter classifier" `Quick test_stutter_classifier;
      Alcotest.test_case "truncation is deterministic" `Quick
        test_truncated_reduction_deterministic;
      Alcotest.test_case "diagnostics deterministic" `Quick
        test_diagnostics_deterministic;
      QCheck_alcotest.to_alcotest prop_same_as_reference;
      Alcotest.test_case "six variants: reduced = string-set reference" `Quick
        test_variants_same_as_reference;
      Alcotest.test_case "multi-word masks: reduced = string-set reference" `Quick
        test_multiword_same_as_reference;
      QCheck_alcotest.to_alcotest prop_reduced_substructure;
      QCheck_alcotest.to_alcotest prop_safety_parity;
      QCheck_alcotest.to_alcotest prop_weak_trace_equivalent;
      QCheck_alcotest.to_alcotest prop_ltl_parity;
    ] )
