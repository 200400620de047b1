(* Differential oracle for the compiled PA step relation.

   [Pa_reference] is the term interpreter [Proc.Semantics] used before
   it interned configurations and memoised their step menus.  The
   compiled relation must match it exactly: the same states in the same
   discovery order, the same labelled edges.

   The second half checks the hash/equality contract states rely on
   when [Mc.Store.fingerprint] marshals them and checkpoints reload
   them: a Marshal round trip yields an equal state with the same hash,
   and its successors through a freshly compiled spec match. *)

module T = Proc.Term
module Sem = Proc.Semantics
module H = Heartbeat

let check = Alcotest.check

let max_states = 200_000

(* The compiled and the reference exploration: same completeness, same
   states in discovery order, same labelled edges. *)
let same_as_reference spec =
  let sp = Mc.Explore.space ~max_states (Sem.system spec) in
  let rp = Mc.Explore.space ~max_states (Pa_reference.system spec) in
  sp.Mc.Explore.complete = rp.Mc.Explore.complete
  && Array.length sp.Mc.Explore.states = Array.length rp.Mc.Explore.states
  && Array.for_all2
       (fun s r -> Pa_reference.view s = r)
       sp.Mc.Explore.states rp.Mc.Explore.states
  && Lts.Graph.transitions sp.Mc.Explore.lts = Lts.Graph.transitions rp.Mc.Explore.lts

let prop_random_por_specs =
  QCheck.Test.make ~name:"compiled = reference on random POR specs" ~count:200
    Test_por.random_spec same_as_reference

let prop_random_proc_specs =
  QCheck.Test.make ~name:"compiled = reference on random two-component specs"
    ~count:200 Test_proc.random_spec same_as_reference

(* Corners the generators do not reach: [tick] doubling as a
   communication half, a blocked and a hidden result, one half in two
   pairs, equal components in one state, an initial body that is a
   call, sums shadowing a parameter, data-carrying handshakes. *)
let corner_specs =
  let a n = T.act n [] in
  let v = Proc.Pexpr.v and int = Proc.Pexpr.int in
  T.
    [
      {
        Proc.Spec.defs =
          [
            def "X" [] (choice [ a "tick" @. call "X" []; a "s" @. call "Y" [] ]);
            def "Y" [] (choice [ a "tick" @. call "X" []; a "r" @. call "Y" [] ]);
          ];
        init = [ ("X", []); ("Y", []); ("X", []) ];
        comms = [ ("tick", "r", "tr"); ("s", "r", "sr"); ("s", "q", "sq") ];
        allow = [ "tr" ];
        hide = [ "sr" ];
      };
      {
        Proc.Spec.defs =
          [
            def "A" [ "x" ] (call "B" [ v "x" ]);
            def "B" [ "x" ] (Sum ("x", 0, 2, act "snd" [ v "x" ] @. call "A" [ int 1 ]));
            def "C" [] (Sum ("y", 1, 2, act "rcv" [ v "y" ] @. call "C" []));
            def "D" [] (choice [ a "tick" @. call "D" []; a "loc" @. call "D" [] ]);
          ];
        init = [ ("A", [ Proc.Value.Int 0 ]); ("C", []); ("D", []); ("C", []) ];
        comms = [ ("snd", "rcv", "c"); ("rcv", "snd", "c2") ];
        allow = [ "c"; "loc" ];
        hide = [ "c2" ];
      };
    ]

let test_corner_specs () =
  List.iteri
    (fun i spec ->
      check Alcotest.bool
        (Printf.sprintf "corner spec %d: compiled = reference" i)
        true (same_as_reference spec))
    corner_specs

(* The six variants at the benchmark's points: static at n = 2 with
   (2,2), the others at n = 1 with (2,3); full and reduced reachable
   counts as states/transitions. *)
let variants =
  H.Pa_models.
    [
      (Binary, H.Params.make ~tmin:2 ~tmax:3 (), (331, 746), (239, 455));
      (Revised, H.Params.make ~tmin:2 ~tmax:3 (), (393, 892), (266, 503));
      (Two_phase, H.Params.make ~tmin:2 ~tmax:3 (), (976, 2292), (565, 1055));
      (Static, H.Params.make ~n:2 ~tmin:2 ~tmax:2 (), (16256, 54836), (5449, 11282));
      (Expanding, H.Params.make ~tmin:2 ~tmax:3 (), (2137, 6005), (1511, 3509));
      (Dynamic, H.Params.make ~tmin:2 ~tmax:3 (), (2482, 6921), (1641, 3850));
    ]

let vname v = H.Ta_models.variant_name v

let test_variants_match_reference () =
  List.iter
    (fun (v, p, _, _) ->
      check Alcotest.bool (vname v ^ ": compiled = reference") true
        (same_as_reference (H.Pa_models.build v p)))
    variants

let test_variant_counts () =
  let counts (s : H.Pa_verify.explore_stats) =
    check Alcotest.bool "complete" true s.H.Pa_verify.complete;
    (s.H.Pa_verify.states, s.H.Pa_verify.transitions)
  in
  List.iter
    (fun (v, p, full, reduced) ->
      check
        Alcotest.(pair int int)
        (vname v ^ " full") full
        (counts (H.Pa_verify.explore v p));
      check
        Alcotest.(pair int int)
        (vname v ^ " reduced") reduced
        (counts (H.Pa_verify.explore ~reduce:true v p)))
    variants

(* --- hash/equality contract across Marshal and a fresh compile ------ *)

let same_successors a b =
  List.length a = List.length b
  && List.for_all2 (fun (l, s) (l', s') -> l = l' && Sem.equal_state s s') a b

let test_marshal_contract () =
  List.iter
    (fun (v, p, _, _) ->
      let spec = H.Pa_models.build v p in
      let c = Sem.compile spec in
      let states = (Mc.Explore.space ~max_states (Sem.system_of c)).Mc.Explore.states in
      let step = max 1 (Array.length states / 40) in
      let fresh = Sem.compile spec in
      Array.iteri
        (fun k s ->
          if k mod step = 0 then
            List.iter
              (fun flags ->
                let s' : Sem.state = Marshal.from_string (Marshal.to_string s flags) 0 in
                let what = Printf.sprintf "%s state %d" (vname v) k in
                check Alcotest.bool (what ^ " equal after round trip") true
                  (Sem.equal_state s s' && Sem.equal_state s' s);
                check Alcotest.int (what ^ " same hash") (Sem.hash_state s)
                  (Sem.hash_state s');
                check Alcotest.bool (what ^ " same successors in a fresh compile") true
                  (same_successors (Sem.successors_of c s) (Sem.successors_of fresh s')))
              [ []; [ Marshal.No_sharing ] ])
        states)
    variants

(* Keys are a pure function of the configuration: an independent compile
   rediscovers the same states with the same hashes. *)
let test_hash_independent_of_compile () =
  List.iter
    (fun (v, p, _, _) ->
      let spec = H.Pa_models.build v p in
      let a = (Mc.Explore.space ~max_states (Sem.system spec)).Mc.Explore.states in
      let b = (Mc.Explore.space ~max_states (Sem.system spec)).Mc.Explore.states in
      check Alcotest.bool (vname v ^ " same hashes") true
        (Array.for_all2
           (fun s s' -> Sem.hash_state s = Sem.hash_state s' && Sem.equal_state s s')
           a b))
    variants

let tests =
  ( "pa compiled",
    [
      QCheck_alcotest.to_alcotest prop_random_por_specs;
      QCheck_alcotest.to_alcotest prop_random_proc_specs;
      Alcotest.test_case "corner specs: compiled = reference" `Quick
        test_corner_specs;
      Alcotest.test_case "six variants: compiled = reference" `Quick
        test_variants_match_reference;
      Alcotest.test_case "six variants: full and reduced counts" `Quick
        test_variant_counts;
      Alcotest.test_case "Marshal round trip: equal, same hash, same successors"
        `Quick test_marshal_contract;
      Alcotest.test_case "hashes independent of the compile" `Quick
        test_hash_independent_of_compile;
    ] )
