(* Tests for the timed-automata substrate: expressions, compilation
   errors, and the discrete-time successor semantics (delay, urgency,
   committedness, handshake, broadcast, invariants, clock caps). *)

let check = Alcotest.check
module M = Ta.Model
module E = Ta.Expr

let label = Alcotest.testable Ta.Semantics.pp_label ( = )

(* Minimal network builder. *)
let net ?(vars = []) ?(clocks = []) ?(chans = []) automata =
  { M.vars; clocks; chans; automata }

let auto ?(init = "A") name locations edges =
  { M.auto_name = name; locations; edges; init_loc = init }

let labels_of t c = List.map fst (Ta.Semantics.successors t c)

(* --- expression evaluation through a one-step automaton --- *)

let eval_expr expr =
  (* x := expr on the single edge; read the result in the successor. *)
  let m =
    net
      ~vars:[ M.scalar "x" 0; M.scalar "y" 5; M.array "a" [ 10; 20; 30 ] ]
      [
        auto "A"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~updates:[ M.Assign (M.Scalar "x", expr) ] () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  let actions =
    List.filter
      (fun (l, _) -> l <> Ta.Semantics.Delay)
      (Ta.Semantics.successors t (Ta.Semantics.initial t))
  in
  match actions with
  | [ (_, c) ] -> Ta.Semantics.var t "x" c
  | _ -> Alcotest.fail "expected exactly one action successor"

let test_expr_arith () =
  check Alcotest.int "add" 7 (eval_expr E.(i 3 + i 4));
  check Alcotest.int "sub" (-2) (eval_expr E.(i 3 - i 5));
  check Alcotest.int "mul" 12 (eval_expr E.(i 3 * i 4));
  check Alcotest.int "div" 2 (eval_expr E.(i 5 / i 2));
  check Alcotest.int "min" 3 (eval_expr (E.Min (E.i 3, E.i 9)));
  check Alcotest.int "max" 9 (eval_expr (E.Max (E.i 3, E.i 9)));
  check Alcotest.int "var" 5 (eval_expr (E.v "y"));
  check Alcotest.int "array" 20 (eval_expr (E.Elem ("a", E.i 1)))

let test_compile_errors () =
  let bad_var =
    net [ auto "A" [ M.loc "A" ] [ M.edge ~src:"A" ~dst:"A" ~guard:E.(v "nope" = i 0) () ] ]
  in
  Alcotest.check_raises "unknown variable"
    (Invalid_argument "unknown variable nope") (fun () ->
      ignore (Ta.Semantics.compile bad_var));
  let dup =
    net ~vars:[ M.scalar "x" 0; M.scalar "x" 1 ] [ auto "A" [ M.loc "A" ] [] ]
  in
  Alcotest.check_raises "duplicate variable"
    (Invalid_argument "duplicate variable x") (fun () ->
      ignore (Ta.Semantics.compile dup));
  let bad_loc = net [ auto ~init:"Z" "A" [ M.loc "A" ] [] ] in
  Alcotest.check_raises "unknown initial location"
    (Invalid_argument "unknown initial location Z in A") (fun () ->
      ignore (Ta.Semantics.compile bad_loc))

(* --- delay and invariants --- *)

let test_delay_and_invariant () =
  (* One clock, invariant x <= 2: exactly two delays then the edge. *)
  let m =
    net
      ~clocks:[ { M.clock_name = "x"; cap = 5 } ]
      [
        auto "A"
          [ M.loc ~invariant:E.(clk "x" <= i 2) "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~guard:E.(clk "x" = i 2) ~act:"go" () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  let c0 = Ta.Semantics.initial t in
  check (Alcotest.list label) "only delay at 0" [ Ta.Semantics.Delay ]
    (labels_of t c0);
  let step c =
    match Ta.Semantics.successors t c with
    | (_, c') :: _ -> c'
    | [] -> Alcotest.fail "stuck"
  in
  let c1 = step c0 in
  let c2 = step c1 in
  (* at x = 2: the invariant blocks further delay, only the edge fires *)
  check (Alcotest.list label) "forced edge" [ Ta.Semantics.Act "go" ]
    (labels_of t c2)

let test_urgent_blocks_delay () =
  let m =
    net
      ~clocks:[ { M.clock_name = "x"; cap = 3 } ]
      [
        auto "A"
          [ M.loc ~kind:M.Urgent "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~act:"leave" () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  check (Alcotest.list label) "no delay" [ Ta.Semantics.Act "leave" ]
    (labels_of t (Ta.Semantics.initial t))

let test_committed_priority () =
  (* Two automata; one committed: only the committed one may move. *)
  let m =
    net
      [
        auto "A"
          [ M.loc ~kind:M.Committed "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~act:"a_moves" () ];
        auto "C"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~act:"c_moves" () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  check (Alcotest.list label) "committed first" [ Ta.Semantics.Act "a_moves" ]
    (labels_of t (Ta.Semantics.initial t))

let test_clock_cap_saturates () =
  (* cap 2: delays keep working past the cap (value pegged). *)
  let m =
    net
      ~clocks:[ { M.clock_name = "x"; cap = 2 } ]
      [ auto "A" [ M.loc "A" ] [] ]
  in
  let t = Ta.Semantics.compile m in
  let rec advance c k = if k = 0 then c else
    match Ta.Semantics.successors t c with
    | [ (Ta.Semantics.Delay, c') ] -> advance c' (k - 1)
    | _ -> Alcotest.fail "expected a delay"
  in
  let c = advance (Ta.Semantics.initial t) 10 in
  check Alcotest.int "saturated" 2 (Ta.Semantics.clock t "x" c)

(* --- synchronisation --- *)

let test_handshake () =
  let m =
    net
      ~vars:[ M.scalar "x" 0 ]
      ~chans:[ M.chan "c" ]
      [
        auto "S"
          [ M.loc "A"; M.loc "B" ]
          [
            M.edge ~src:"A" ~dst:"B" ~sync:(M.Send "c") ~act:"sync"
              ~updates:[ M.Assign (M.Scalar "x", E.i 1) ]
              ();
          ];
        auto "R"
          [ M.loc "A"; M.loc "B" ]
          [
            (* The receiver's update reads the sender's write: sender
               updates are applied first (UPPAAL order). *)
            M.edge ~src:"A" ~dst:"B" ~sync:(M.Recv "c")
              ~updates:[ M.Assign (M.Scalar "x", E.(v "x" + i 10)) ]
              ();
          ];
      ]
  in
  let t = Ta.Semantics.compile m in
  match
    List.filter
      (fun (l, _) -> l <> Ta.Semantics.Delay)
      (Ta.Semantics.successors t (Ta.Semantics.initial t))
  with
  | [ (Ta.Semantics.Act "sync", c) ] ->
      check Alcotest.int "sender then receiver" 11 (Ta.Semantics.var t "x" c);
      check Alcotest.bool "both moved" true
        (Ta.Semantics.loc_is t ~auto:"S" ~loc:"B" c
        && Ta.Semantics.loc_is t ~auto:"R" ~loc:"B" c)
  | other ->
      Alcotest.failf "expected one sync, got %d successors" (List.length other)

let test_handshake_blocks_without_partner () =
  let m =
    net ~chans:[ M.chan "c" ]
      [
        auto "S"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~sync:(M.Send "c") () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  (* only the delay remains *)
  check (Alcotest.list label) "blocked" [ Ta.Semantics.Delay ]
    (labels_of t (Ta.Semantics.initial t))

let test_broadcast () =
  let recv name =
    auto name
      [ M.loc "A"; M.loc "B" ]
      [ M.edge ~src:"A" ~dst:"B" ~sync:(M.Recv "b") () ]
  in
  let m =
    net
      ~chans:[ M.chan ~broadcast:true "b" ]
      [
        auto "S"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~sync:(M.Send "b") ~act:"bcast" () ];
        recv "R1";
        recv "R2";
      ]
  in
  let t = Ta.Semantics.compile m in
  match
    List.filter
      (fun (l, _) -> l = Ta.Semantics.Act "bcast")
      (Ta.Semantics.successors t (Ta.Semantics.initial t))
  with
  | [ (_, c) ] ->
      check Alcotest.bool "all receivers moved" true
        (Ta.Semantics.loc_is t ~auto:"R1" ~loc:"B" c
        && Ta.Semantics.loc_is t ~auto:"R2" ~loc:"B" c)
  | l -> Alcotest.failf "expected one broadcast, got %d" (List.length l)

let test_broadcast_never_blocks () =
  (* No enabled receiver: the send still fires, alone. *)
  let m =
    net
      ~chans:[ M.chan ~broadcast:true "b" ]
      [
        auto "S"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~sync:(M.Send "b") ~act:"bcast" () ];
        auto "R"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~sync:(M.Recv "b") ~guard:E.False () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  match
    List.filter
      (fun (l, _) -> l <> Ta.Semantics.Delay)
      (Ta.Semantics.successors t (Ta.Semantics.initial t))
  with
  | [ (Ta.Semantics.Act "bcast", c) ] ->
      check Alcotest.bool "receiver stayed" true
        (Ta.Semantics.loc_is t ~auto:"R" ~loc:"A" c)
  | _ -> Alcotest.fail "expected the lone broadcast"

let test_guard_blocks_edge () =
  let m =
    net
      ~vars:[ M.scalar "x" 0 ]
      [
        auto "A"
          [ M.loc "A"; M.loc "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~guard:E.(v "x" = i 1) ~act:"go" () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  check Alcotest.bool "only delay" true
    (List.for_all (fun (l, _) -> l = Ta.Semantics.Delay)
       (Ta.Semantics.successors t (Ta.Semantics.initial t)))

let test_invariant_rejects_target () =
  (* An edge into a location whose invariant is already false is not
     taken. *)
  let m =
    net
      ~clocks:[ { M.clock_name = "x"; cap = 5 } ]
      [
        auto "A"
          [ M.loc "A"; M.loc ~invariant:E.(clk "x" <= i 0) "B" ]
          [ M.edge ~src:"A" ~dst:"B" ~guard:E.(clk "x" >= i 1) ~act:"go" () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  let c1 =
    match Ta.Semantics.successors t (Ta.Semantics.initial t) with
    | [ (Ta.Semantics.Delay, c) ] -> c
    | _ -> Alcotest.fail "expected delay"
  in
  check Alcotest.bool "edge suppressed" true
    (List.for_all (fun (l, _) -> l = Ta.Semantics.Delay)
       (Ta.Semantics.successors t c1))

let test_initial_invariant_checked () =
  let m =
    net
      ~vars:[ M.scalar "x" 1 ]
      [ auto "A" [ M.loc ~invariant:E.(v "x" = i 0) "A" ] [] ]
  in
  Alcotest.check_raises "initial invariant"
    (Invalid_argument "initial invariant of A violated") (fun () ->
      ignore (Ta.Semantics.compile m))

let test_observers () =
  let m =
    net
      ~vars:[ M.scalar "x" 3; M.array "a" [ 1; 2 ] ]
      ~clocks:[ { M.clock_name = "k"; cap = 9 } ]
      [ auto "A" [ M.loc "A" ] [] ]
  in
  let t = Ta.Semantics.compile m in
  let c = Ta.Semantics.initial t in
  check Alcotest.int "var" 3 (Ta.Semantics.var t "x" c);
  check Alcotest.int "clock" 0 (Ta.Semantics.clock t "k" c);
  check Alcotest.bool "loc" true (Ta.Semantics.loc_is t ~auto:"A" ~loc:"A" c)

(* Determinism / purity: successors does not mutate its argument. *)
let test_successors_pure () =
  let m =
    net
      ~vars:[ M.scalar "x" 0 ]
      [
        auto "A" [ M.loc "A" ]
          [ M.edge ~src:"A" ~dst:"A" ~updates:[ M.Assign (M.Scalar "x", E.(v "x" + i 1)) ] () ];
      ]
  in
  let t = Ta.Semantics.compile m in
  let c = Ta.Semantics.initial t in
  ignore (Ta.Semantics.successors t c);
  ignore (Ta.Semantics.successors t c);
  check Alcotest.int "unchanged" 0 (Ta.Semantics.var t "x" c)

let tests =
  ( "ta",
    [
      Alcotest.test_case "expression evaluation" `Quick test_expr_arith;
      Alcotest.test_case "compile errors" `Quick test_compile_errors;
      Alcotest.test_case "delay bounded by invariant" `Quick
        test_delay_and_invariant;
      Alcotest.test_case "urgent location blocks delay" `Quick
        test_urgent_blocks_delay;
      Alcotest.test_case "committed location has priority" `Quick
        test_committed_priority;
      Alcotest.test_case "clock saturation at cap" `Quick test_clock_cap_saturates;
      Alcotest.test_case "handshake with update order" `Quick test_handshake;
      Alcotest.test_case "handshake blocks without partner" `Quick
        test_handshake_blocks_without_partner;
      Alcotest.test_case "broadcast reaches all enabled receivers" `Quick
        test_broadcast;
      Alcotest.test_case "broadcast never blocks" `Quick test_broadcast_never_blocks;
      Alcotest.test_case "guards block edges" `Quick test_guard_blocks_edge;
      Alcotest.test_case "target invariant filters transitions" `Quick
        test_invariant_rejects_target;
      Alcotest.test_case "initial invariant is checked" `Quick
        test_initial_invariant_checked;
      Alcotest.test_case "configuration observers" `Quick test_observers;
      Alcotest.test_case "successors is pure" `Quick test_successors_pure;
    ] )

(* --- property-based: random small networks --- *)

let random_network : Ta.Model.t QCheck.arbitrary =
  let open QCheck.Gen in
  let guard_gen =
    oneof
      [
        return E.True;
        return E.(v "x" = i 0);
        return E.(v "x" = i 1);
        return E.(clk "k" <= i 2);
        return E.(clk "k" >= i 1);
      ]
  in
  let updates_gen =
    oneof
      [
        return [];
        return [ M.Assign (M.Scalar "x", E.i 1) ];
        return [ M.Assign (M.Scalar "x", E.i 0) ];
        return [ M.Reset "k" ];
      ]
  in
  let edge_gen locs =
    let loc_name i = Printf.sprintf "L%d" i in
    map3
      (fun src dst (g, us) ->
        M.edge ~src:(loc_name src) ~dst:(loc_name dst) ~guard:g ~updates:us
          ~act:(Printf.sprintf "e%d%d" src dst) ())
      (int_bound (locs - 1))
      (int_bound (locs - 1))
      (pair guard_gen updates_gen)
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
        chans = [];
        automata = [ a; b ];
      }
  in
  QCheck.make
    ~print:(fun net ->
      Printf.sprintf "network with %d+%d edges"
        (List.length (List.nth net.M.automata 0).M.edges)
        (List.length (List.nth net.M.automata 1).M.edges))
    network_gen

let prop_exploration_terminates =
  QCheck.Test.make ~name:"random network exploration terminates" ~count:100
    random_network (fun net ->
      let t = Ta.Semantics.compile net in
      let count, _complete =
        Mc.Explore.count ~max_states:10_000 (Ta.Semantics.system t)
      in
      count >= 1)

let prop_successors_deterministic =
  QCheck.Test.make ~name:"successors is deterministic and pure" ~count:100
    random_network (fun net ->
      let t = Ta.Semantics.compile net in
      let c = Ta.Semantics.initial t in
      let s1 = Ta.Semantics.successors t c in
      let s2 = Ta.Semantics.successors t c in
      s1 = s2)

let prop_delay_advances_clock =
  QCheck.Test.make ~name:"a delay advances every clock by one up to its cap"
    ~count:100 random_network (fun net ->
      let t = Ta.Semantics.compile net in
      (* follow up to 20 arbitrary steps, checking every delay *)
      let rec walk c steps =
        steps = 0
        ||
        match Ta.Semantics.successors t c with
        | [] -> true
        | succs ->
            List.for_all
              (fun (l, c') ->
                (match l with
                | Ta.Semantics.Delay ->
                    let before = Ta.Semantics.clock t "k" c in
                    let after = Ta.Semantics.clock t "k" c' in
                    after = min (before + 1) 3
                | Ta.Semantics.Act _ -> true)
                &&
                (* continue along the first successor only *)
                true)
              succs
            && walk (snd (List.hd succs)) (steps - 1)
      in
      walk (Ta.Semantics.initial t) 20)

let prop_tests =
  [
    QCheck_alcotest.to_alcotest prop_exploration_terminates;
    QCheck_alcotest.to_alcotest prop_successors_deterministic;
    QCheck_alcotest.to_alcotest prop_delay_advances_clock;
  ]

let tests = (fst tests, snd tests @ prop_tests)
