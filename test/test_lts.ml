(* Tests for the LTS substrate: graph construction, queries, reductions
   and dot export. *)

let check = Alcotest.check
let diamond = [ (0, "a", 1); (0, "b", 2); (1, "c", 3); (2, "c", 3) ]

let mk ?(initial = 0) ?(n = 4) trans =
  Lts.Graph.make ~num_states:n ~initial trans

let test_make_valid () =
  let g = mk diamond in
  check Alcotest.int "states" 4 (Lts.Graph.num_states g);
  check Alcotest.int "transitions" 4 (Lts.Graph.num_transitions g);
  check Alcotest.int "initial" 0 (Lts.Graph.initial g)

let test_make_out_of_range () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Lts.Graph.make: state 7 out of range") (fun () ->
      ignore (mk [ (0, "a", 7) ]))

let test_successors_order () =
  let g = mk diamond in
  check
    Alcotest.(list (pair string int))
    "succ 0"
    [ ("a", 1); ("b", 2) ]
    (Lts.Graph.successors g 0);
  check Alcotest.(list (pair string int)) "succ 3" [] (Lts.Graph.successors g 3)

(* [make] sorts by source stably: a list that is not grouped by source
   keeps each source's order, and [transitions] comes out in source
   order. *)
let test_make_ungrouped () =
  let g =
    mk [ (2, "c", 3); (0, "a", 1); (1, "d", 3); (0, "b", 2); (2, "e", 0) ]
  in
  check
    Alcotest.(list (pair string int))
    "succ 0"
    [ ("a", 1); ("b", 2) ]
    (Lts.Graph.successors g 0);
  check
    Alcotest.(list (pair string int))
    "succ 2"
    [ ("c", 3); ("e", 0) ]
    (Lts.Graph.successors g 2);
  check
    Alcotest.(list (triple int string int))
    "source order"
    [ (0, "a", 1); (0, "b", 2); (1, "d", 3); (2, "c", 3); (2, "e", 0) ]
    (Lts.Graph.transitions g);
  check Alcotest.(list string) "labels" [ "a"; "b"; "d"; "c"; "e" ]
    (Lts.Graph.labels g)

(* [of_rows] takes the rows [make] would build, and rejects rows whose
   offsets do not frame them or whose targets are not states. *)
let test_of_rows () =
  let g =
    Lts.Graph.of_rows ~initial:0 ~offsets:[| 0; 2; 3; 4; 4 |]
      ~targets:[| 1; 2; 3; 3 |] ~labels:[| "a"; "b"; "c"; "c" |]
  in
  check
    Alcotest.(list (triple int string int))
    "same graph as make" (Lts.Graph.transitions (mk diamond))
    (Lts.Graph.transitions g);
  check Alcotest.int "states" 4 (Lts.Graph.num_states g);
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "decreasing offsets" (fun () ->
      Lts.Graph.of_rows ~initial:0 ~offsets:[| 0; 2; 1; 2 |]
        ~targets:[| 1; 2 |] ~labels:[| "a"; "b" |]);
  rejects "short labels" (fun () ->
      Lts.Graph.of_rows ~initial:0 ~offsets:[| 0; 2; 2 |] ~targets:[| 1; 1 |]
        ~labels:[| "a" |]);
  rejects "target out of range" (fun () ->
      Lts.Graph.of_rows ~initial:0 ~offsets:[| 0; 1; 1 |] ~targets:[| 2 |]
        ~labels:[| "a" |])

let test_labels_dedup () =
  let g = mk diamond in
  check Alcotest.(list string) "labels" [ "a"; "b"; "c" ] (Lts.Graph.labels g)

let test_deadlocks () =
  let g = mk diamond in
  check Alcotest.(list int) "deadlocks" [ 3 ] (Lts.Graph.deadlocks g)

let test_reachable () =
  let g = mk ~n:5 diamond in
  let r = Lts.Graph.reachable g in
  check Alcotest.(list bool) "reachable" [ true; true; true; true; false ]
    (Array.to_list r)

let test_trace_to () =
  let g = mk diamond in
  (match Lts.Graph.trace_to g (fun s -> s = 3) with
  | Some w -> check Alcotest.int "shortest length" 2 (List.length w)
  | None -> Alcotest.fail "expected a trace");
  check Alcotest.bool "unreachable" true
    (Lts.Graph.trace_to (mk ~n:5 diamond) (fun s -> s = 4) = None);
  check Alcotest.bool "initial goal" true
    (Lts.Graph.trace_to g (fun s -> s = 0) = Some [])

(* Whether [word] labels a path from the initial state: the oracle of
   the trace_to and determinisation tests below. *)
let has_trace g word =
  let rec step states = function
    | [] -> states <> []
    | l :: rest ->
        let next =
          List.concat_map
            (fun s ->
              List.filter_map
                (fun (l', s') -> if String.equal l l' then Some s' else None)
                (Lts.Graph.successors g s))
            states
        in
        let next = List.sort_uniq compare next in
        next <> [] && step next rest
  in
  step [ Lts.Graph.initial g ] word

let test_has_trace () =
  let g = mk diamond in
  check Alcotest.bool "a.c" true (has_trace g [ "a"; "c" ]);
  check Alcotest.bool "b.c" true (has_trace g [ "b"; "c" ]);
  check Alcotest.bool "c first" false (has_trace g [ "c" ]);
  check Alcotest.bool "empty" true (has_trace g [])

let test_fold () =
  let g = mk diamond in
  let total = Lts.Graph.fold_transitions (fun _ _ _ n -> n + 1) g 0 in
  check Alcotest.int "fold counts" 4 total

(* --- minimisation --- *)

let test_strong_merges_equivalent () =
  (* Two branches with identical futures collapse. *)
  let g = mk diamond in
  let q, map = Lts.Minimize.strong g in
  check Alcotest.int "quotient size" 3 (Lts.Graph.num_states q);
  check Alcotest.int "1 ~ 2" map.(2) map.(1)

let test_strong_keeps_distinct () =
  let g = mk [ (0, "a", 1); (0, "b", 2); (1, "c", 3); (2, "d", 3) ] in
  let q, _ = Lts.Minimize.strong g in
  check Alcotest.int "no merge" 4 (Lts.Graph.num_states q)

let test_strong_self_loop () =
  (* An infinite 'a' chain is bisimilar to a single 'a' self-loop. *)
  let chain =
    Lts.Graph.make ~num_states:5 ~initial:0
      [ (0, "a", 1); (1, "a", 2); (2, "a", 3); (3, "a", 4); (4, "a", 0) ]
  in
  let q, _ = Lts.Minimize.strong chain in
  check Alcotest.int "loop collapses" 1 (Lts.Graph.num_states q)

let test_determinize_hides_tau () =
  let g =
    Lts.Graph.make ~num_states:4 ~initial:0
      [ (0, "tau", 1); (1, "a", 2); (0, "a", 3) ]
  in
  let d = Lts.Minimize.determinize ~hidden:(String.equal "tau") g in
  check Alcotest.(list string) "only visible" [ "a" ] (Lts.Graph.labels d);
  check Alcotest.bool "a possible" true
    (has_trace d [ "a" ]);
  check Alcotest.bool "aa impossible" false
    (has_trace d [ "a"; "a" ])

let test_weak_trace_reduction () =
  (* tau.a + a is weak-trace equivalent to a. *)
  let g =
    Lts.Graph.make ~num_states:4 ~initial:0
      [ (0, "tau", 1); (1, "a", 2); (0, "a", 3) ]
  in
  let w = Lts.Minimize.weak_trace ~hidden:(String.equal "tau") g in
  check Alcotest.int "two states" 2 (Lts.Graph.num_states w);
  check Alcotest.int "one transition" 1 (Lts.Graph.num_transitions w)

let test_dot_output () =
  let g = mk diamond in
  let s = Lts.Dot.to_string ~pp_label:Format.pp_print_string g in
  check Alcotest.bool "digraph" true
    (String.length s > 0 && String.sub s 0 7 = "digraph");
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "initial doublecircle" true (has "doublecircle");
  check Alcotest.bool "edge label" true (has "label=\"a\"")

(* --- equivalence --- *)

let test_equiv_basic () =
  let g1 =
    Lts.Graph.make ~num_states:2 ~initial:0 [ (0, "a", 1); (1, "a", 0) ]
  in
  let g2 = Lts.Graph.make ~num_states:1 ~initial:0 [ (0, "a", 0) ] in
  check Alcotest.bool "a-loop ~ a-cycle" true (Lts.Equiv.strong_bisimilar g1 g2);
  let g3 = Lts.Graph.make ~num_states:2 ~initial:0 [ (0, "b", 1) ] in
  check Alcotest.bool "different labels" false
    (Lts.Equiv.strong_bisimilar g1 g3)

let test_equiv_branching () =
  (* a.(b + c) vs a.b + a.c: trace equivalent but not bisimilar. *)
  let branching =
    Lts.Graph.make ~num_states:4 ~initial:0
      [ (0, "a", 1); (1, "b", 2); (1, "c", 3) ]
  in
  let split =
    Lts.Graph.make ~num_states:5 ~initial:0
      [ (0, "a", 1); (0, "a", 2); (1, "b", 3); (2, "c", 4) ]
  in
  check Alcotest.bool "not bisimilar" false
    (Lts.Equiv.strong_bisimilar branching split);
  check Alcotest.bool "trace equivalent" true
    (Lts.Equiv.weak_trace_equivalent ~hidden:(fun _ -> false) branching split)

let test_equiv_weak () =
  (* tau.a ~weak~ a *)
  let with_tau =
    Lts.Graph.make ~num_states:3 ~initial:0 [ (0, "tau", 1); (1, "a", 2) ]
  in
  let without = Lts.Graph.make ~num_states:2 ~initial:0 [ (0, "a", 1) ] in
  let hidden = String.equal "tau" in
  check Alcotest.bool "weak trace equivalent" true
    (Lts.Equiv.weak_trace_equivalent ~hidden with_tau without);
  check Alcotest.bool "not strongly bisimilar" false
    (Lts.Equiv.strong_bisimilar with_tau without)

(* --- property-based --- *)

let random_lts =
  QCheck.make ~print:(fun (n, edges) ->
      Printf.sprintf "%d states, %d edges" n (List.length edges))
    QCheck.Gen.(
      sized (fun size ->
          let n = max 1 (min 12 (size + 1)) in
          let edge =
            map3 (fun s l t -> (s, l, t)) (int_bound (n - 1))
              (map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound 2))
              (int_bound (n - 1))
          in
          map (fun es -> (n, es)) (list_size (int_bound (3 * n)) edge)))

let by_source (u, _, _) (v, _, _) = compare u v

let prop_make_stable =
  QCheck.Test.make ~name:"make is a stable sort by source" ~count:300
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      Lts.Graph.transitions g = List.stable_sort by_source edges
      && List.for_all
           (fun s ->
             Lts.Graph.successors g s
             = List.filter_map
                 (fun (u, l, v) -> if u = s then Some (l, v) else None)
                 edges)
           (List.init n Fun.id))

let prop_weak_trace_reflexive =
  QCheck.Test.make ~name:"weak-trace equivalence is reflexive" ~count:100
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      Lts.Equiv.weak_trace_equivalent ~hidden:(fun l -> l = "a") g g)

let prop_weak_trace_tau_insertion =
  (* Splitting every edge u -l-> v into u -tau-> w -l-> v inserts one
     hidden step before each visible one; the weak traces are unchanged. *)
  QCheck.Test.make ~name:"weak traces invariant under tau-insertion" ~count:100
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let edges' =
        List.concat
          (List.mapi
             (fun k (u, l, v) ->
               let w = n + k in
               [ (u, "tau", w); (w, l, v) ])
             edges)
      in
      let g' =
        Lts.Graph.make ~num_states:(n + List.length edges) ~initial:0 edges'
      in
      Lts.Equiv.weak_trace_equivalent ~hidden:(fun l -> l = "tau") g g')

let prop_minimize_idempotent =
  QCheck.Test.make ~name:"strong minimisation is idempotent" ~count:200
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let q1, _ = Lts.Minimize.strong g in
      let q2, _ = Lts.Minimize.strong q1 in
      Lts.Graph.num_states q2 = Lts.Graph.num_states q1)

let prop_minimize_shrinks =
  QCheck.Test.make ~name:"quotient is no larger" ~count:200 random_lts
    (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let q, _ = Lts.Minimize.strong g in
      Lts.Graph.num_states q <= Lts.Graph.num_states g)

let prop_trace_to_is_a_trace =
  QCheck.Test.make ~name:"trace_to yields an actual trace" ~count:200
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let goal s = s = n - 1 in
      match Lts.Graph.trace_to g goal with
      | None -> true
      | Some w -> has_trace g w)

let prop_determinize_preserves_traces =
  QCheck.Test.make ~name:"determinisation preserves visible traces"
    ~count:100 random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let hidden = String.equal "a" in
      let d = Lts.Minimize.determinize ~hidden g in
      (* Any short visible word has the same status in both. *)
      let words = [ [ "b" ]; [ "c" ]; [ "b"; "b" ]; [ "b"; "c" ]; [ "c"; "b" ] ] in
      List.for_all
        (fun w ->
          (* weak trace in g: interleave arbitrary 'a's — approximate by
             checking in the determinised LTS of g twice. *)
          has_trace d w
          = has_trace (Lts.Minimize.weak_trace ~hidden g) w)
        words)

let prop_quotient_bisimilar =
  QCheck.Test.make ~name:"quotient is bisimilar to the original" ~count:150
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let q, _ = Lts.Minimize.strong g in
      Lts.Equiv.strong_bisimilar g q)

let prop_weak_trace_reduction_equivalent =
  QCheck.Test.make ~name:"weak-trace reduction preserves weak traces"
    ~count:150 random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let hidden = String.equal "a" in
      Lts.Equiv.weak_trace_equivalent ~hidden g
        (Lts.Minimize.weak_trace ~hidden g))

(* --- reverse edges and strongly connected components --- *)

let test_predecessors () =
  let g = mk diamond in
  let preds = Lts.Graph.predecessors g in
  check Alcotest.(list int) "into 0" [] preds.(0);
  check Alcotest.(list int) "into 1" [ 0 ] preds.(1);
  check Alcotest.(list int) "into 3" [ 1; 2 ] preds.(3);
  (* one entry per transition: parallel edges appear twice *)
  let m = mk ~n:2 [ (0, "a", 1); (0, "b", 1) ] in
  check Alcotest.(list int) "multi-edge" [ 0; 0 ] (Lts.Graph.predecessors m).(1)

let test_scc_basic () =
  (* A 3-cycle feeding a deadlock state, plus an unreachable state: three
     components, numbered in reverse topological order. *)
  let g =
    mk ~n:5 [ (0, "a", 1); (1, "b", 2); (2, "c", 0); (2, "d", 3) ]
  in
  let count, comp = Lts.Graph.scc g in
  check Alcotest.int "count" 3 count;
  check Alcotest.bool "cycle is one component" true
    (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check Alcotest.bool "sink separate" true (comp.(3) <> comp.(0));
  check Alcotest.bool "unreachable covered" true
    (comp.(4) <> comp.(0) && comp.(4) <> comp.(3));
  (* reverse topological: the sink's component completes first *)
  check Alcotest.bool "reverse topological" true (comp.(3) < comp.(0))

(* Oracle: mutual reachability by transitive closure. *)
let naive_reach n edges =
  let r = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    r.(i).(i) <- true
  done;
  List.iter (fun (u, _, v) -> r.(u).(v) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
      done
    done
  done;
  r

let prop_scc_is_mutual_reachability =
  QCheck.Test.make ~name:"scc partition = mutual reachability" ~count:200
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let _, comp = Lts.Graph.scc g in
      let r = naive_reach n edges in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if (comp.(i) = comp.(j)) <> (r.(i).(j) && r.(j).(i)) then ok := false
        done
      done;
      (* and the numbering is reverse topological *)
      List.iter
        (fun (u, _, v) -> if comp.(u) <> comp.(v) && comp.(v) >= comp.(u) then ok := false)
        edges;
      !ok)

let prop_predecessors_invert_successors =
  QCheck.Test.make ~name:"predecessors is the reverse-edge table" ~count:200
    random_lts (fun (n, edges) ->
      let g = Lts.Graph.make ~num_states:n ~initial:0 edges in
      let preds = Lts.Graph.predecessors g in
      let expected = Array.make n 0 in
      List.iter (fun (_, _, v) -> expected.(v) <- expected.(v) + 1) edges;
      let sorted l = List.sort compare l in
      Array.for_all (fun b -> b)
        (Array.init n (fun v ->
             List.length preds.(v) = expected.(v)
             && sorted preds.(v)
                = sorted
                    (List.filter_map
                       (fun (u, _, v') -> if v' = v then Some u else None)
                       edges))))

let tests =
  ( "lts",
    [
      Alcotest.test_case "make valid" `Quick test_make_valid;
      Alcotest.test_case "make rejects bad indices" `Quick test_make_out_of_range;
      Alcotest.test_case "successors in order" `Quick test_successors_order;
      Alcotest.test_case "make groups by source" `Quick test_make_ungrouped;
      Alcotest.test_case "of_rows" `Quick test_of_rows;
      QCheck_alcotest.to_alcotest prop_make_stable;
      Alcotest.test_case "labels deduplicated" `Quick test_labels_dedup;
      Alcotest.test_case "deadlocks" `Quick test_deadlocks;
      Alcotest.test_case "reachable" `Quick test_reachable;
      Alcotest.test_case "trace_to shortest" `Quick test_trace_to;
      Alcotest.test_case "has_trace" `Quick test_has_trace;
      Alcotest.test_case "fold_transitions" `Quick test_fold;
      Alcotest.test_case "strong merges equivalent states" `Quick
        test_strong_merges_equivalent;
      Alcotest.test_case "strong keeps distinct states" `Quick
        test_strong_keeps_distinct;
      Alcotest.test_case "strong collapses a-loop" `Quick test_strong_self_loop;
      Alcotest.test_case "determinize hides tau" `Quick test_determinize_hides_tau;
      Alcotest.test_case "weak-trace reduction" `Quick test_weak_trace_reduction;
      Alcotest.test_case "dot export" `Quick test_dot_output;
      QCheck_alcotest.to_alcotest prop_minimize_idempotent;
      QCheck_alcotest.to_alcotest prop_minimize_shrinks;
      QCheck_alcotest.to_alcotest prop_trace_to_is_a_trace;
      QCheck_alcotest.to_alcotest prop_determinize_preserves_traces;
      Alcotest.test_case "equivalence basics" `Quick test_equiv_basic;
      Alcotest.test_case "bisimulation vs traces" `Quick test_equiv_branching;
      Alcotest.test_case "weak equivalence" `Quick test_equiv_weak;
      QCheck_alcotest.to_alcotest prop_quotient_bisimilar;
      QCheck_alcotest.to_alcotest prop_weak_trace_reduction_equivalent;
      QCheck_alcotest.to_alcotest prop_weak_trace_reflexive;
      QCheck_alcotest.to_alcotest prop_weak_trace_tau_insertion;
      Alcotest.test_case "predecessors" `Quick test_predecessors;
      Alcotest.test_case "scc basics" `Quick test_scc_basic;
      QCheck_alcotest.to_alcotest prop_scc_is_mutual_reachability;
      QCheck_alcotest.to_alcotest prop_predecessors_invert_successors;
    ] )
