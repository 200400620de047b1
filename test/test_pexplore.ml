(* qcheck parity harness for the parallel exploration engine: on random
   finite systems and on the heartbeat models, Mc.Pexplore must agree with
   Mc.Explore — byte-for-byte on spaces, on witness length and truncation
   behaviour for goal searches — for every domain count in {1, 2, 4}. *)

let check = Alcotest.check
let domain_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Random finite systems: a sparse successor table over states 0..n-1. *)
(* ------------------------------------------------------------------ *)

type rand_sys = { n : int; succ : (string * int) array array }

let table_system { succ; _ } : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0
    let successors s = Array.to_list succ.(s)
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let rand_sys_gen : rand_sys QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 40 >>= fun n ->
  let edge = pair (oneofl [ "a"; "b"; "c" ]) (int_bound (n - 1)) in
  array_size (return n) (array_size (int_bound 3) edge) >>= fun succ ->
  return { n; succ }

let print_rand_sys { n; succ } =
  let b = Buffer.create 128 in
  Printf.bprintf b "system with %d states:" n;
  Array.iteri
    (fun s edges ->
      Printf.bprintf b " %d->[%s]" s
        (String.concat ","
           (List.map (fun (l, t) -> l ^ string_of_int t) (Array.to_list edges))))
    succ;
  Buffer.contents b

let rand_sys_arb = QCheck.make ~print:print_rand_sys rand_sys_gen

(* Structural space equality: numbering, transition order, state array and
   completeness must all coincide. *)
let same_space (a : ('s, 'l) Mc.Explore.space)
    (b : ('s, 'l) Mc.Explore.space) =
  a.Mc.Explore.complete = b.Mc.Explore.complete
  && a.Mc.Explore.states = b.Mc.Explore.states
  && Lts.Graph.num_states a.Mc.Explore.lts = Lts.Graph.num_states b.Mc.Explore.lts
  && Lts.Graph.initial a.Mc.Explore.lts = Lts.Graph.initial b.Mc.Explore.lts
  && Lts.Graph.transitions a.Mc.Explore.lts
     = Lts.Graph.transitions b.Mc.Explore.lts

(* Replay a label trace on the system as a set-of-states simulation and
   test whether it can end in a goal state. *)
let trace_reaches sys_tbl ~goal trace =
  let step states l =
    List.sort_uniq compare
      (List.concat_map
         (fun s ->
           List.filter_map
             (fun (l', t) -> if String.equal l l' then Some t else None)
             (Array.to_list sys_tbl.succ.(s)))
         states)
  in
  let finals = List.fold_left step [ 0 ] trace in
  List.exists goal finals

(* Property (a): parallel and sequential full exploration agree on the
   whole space — state count, transition list (hence multiset), state
   numbering and the complete flag — for every domain count. *)
let prop_space_parity =
  QCheck.Test.make ~name:"pexplore space = explore space (d in {1,2,4})"
    ~count:150 rand_sys_arb (fun rs ->
      let sys = table_system rs in
      let seq = Mc.Explore.space sys in
      List.for_all
        (fun d -> same_space seq (Mc.Pexplore.space ~domains:d sys))
        domain_counts)

(* Property (b): goal searches agree on the verdict; witnesses have the
   sequential (shortest) length and replay to a goal state. *)
let prop_find_parity =
  QCheck.Test.make ~name:"pexplore find parity (length + replay)" ~count:150
    QCheck.(pair rand_sys_arb small_nat)
    (fun (rs, g) ->
      let sys = table_system rs in
      let goal s = s = g mod rs.n in
      let seq = Mc.Explore.find ~goal sys in
      List.for_all
        (fun d ->
          match (seq, Mc.Pexplore.find ~domains:d ~goal sys) with
          | Mc.Explore.Unreachable, Mc.Explore.Unreachable -> true
          | Mc.Explore.Reached w, Mc.Explore.Reached w' ->
              List.length w.Mc.Explore.trace
              = List.length w'.Mc.Explore.trace
              && goal w'.Mc.Explore.state
              && trace_reaches rs ~goal w'.Mc.Explore.trace
          | Mc.Explore.Bound_hit n, Mc.Explore.Bound_hit n' -> n = n'
          | _ -> false)
        domain_counts)

(* Property (c): truncation under max_states bounds behaves identically —
   same retained prefix, same induced transitions, same complete flag, and
   identical find/count verdicts at the bound. *)
let prop_bound_parity =
  QCheck.Test.make ~name:"pexplore truncation parity under max_states"
    ~count:150
    QCheck.(triple rand_sys_arb small_nat small_nat)
    (fun (rs, m, g) ->
      let sys = table_system rs in
      let max_states = m mod (rs.n + 3) in
      let goal s = s = g mod rs.n in
      let seq_space = Mc.Explore.space ~max_states sys in
      let seq_count = Mc.Explore.count ~max_states sys in
      let seq_find = Mc.Explore.find ~max_states ~goal sys in
      List.for_all
        (fun d ->
          same_space seq_space (Mc.Pexplore.space ~max_states ~domains:d sys)
          && seq_count = Mc.Pexplore.count ~max_states ~domains:d sys
          &&
          match (seq_find, Mc.Pexplore.find ~max_states ~domains:d ~goal sys) with
          | Mc.Explore.Unreachable, Mc.Explore.Unreachable -> true
          | Mc.Explore.Reached w, Mc.Explore.Reached w' ->
              List.length w.Mc.Explore.trace = List.length w'.Mc.Explore.trace
          | Mc.Explore.Bound_hit n, Mc.Explore.Bound_hit n' -> n = n'
          | _ -> false)
        domain_counts)

(* ------------------------------------------------------------------ *)
(* Reference systems: the counter and the heartbeat models.             *)
(* ------------------------------------------------------------------ *)

let counter n : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0
    let successors s = if s = n - 1 then [ ("reset", 0) ] else [ ("inc", s + 1) ]
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let test_counter_parity () =
  let sys = counter 500 in
  let seq = Mc.Explore.space sys in
  List.iter
    (fun d ->
      let par = Mc.Pexplore.space ~domains:d sys in
      check Alcotest.bool
        (Printf.sprintf "counter identical at %d domains" d)
        true
        (Marshal.to_string
           (seq.Mc.Explore.lts, seq.Mc.Explore.states, seq.Mc.Explore.complete)
           []
        = Marshal.to_string
            (par.Mc.Explore.lts, par.Mc.Explore.states, par.Mc.Explore.complete)
            []))
    domain_counts

(* Acceptance check: on the binary-heartbeat model the parallel space is
   byte-identical (via Marshal) to the sequential one for d in {1,2,4}. *)
let heartbeat_system () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:4 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary params in
  Ta.Semantics.system (Ta.Semantics.compile model)

let test_heartbeat_byte_identical () =
  let sys = heartbeat_system () in
  let seq = Mc.Explore.space sys in
  let bytes_of (s : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space)
      =
    Marshal.to_string (s.Mc.Explore.lts, s.Mc.Explore.states, s.Mc.Explore.complete) []
  in
  let seq_bytes = bytes_of seq in
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "binary heartbeat byte-identical at %d domains" d)
        true
        (String.equal seq_bytes (bytes_of (Mc.Pexplore.space ~domains:d sys))))
    domain_counts

let test_heartbeat_truncated_parity () =
  let sys = heartbeat_system () in
  List.iter
    (fun max_states ->
      let seq = Mc.Explore.space ~max_states sys in
      check Alcotest.bool "seq truncated" false seq.Mc.Explore.complete;
      List.iter
        (fun d ->
          let par = Mc.Pexplore.space ~max_states ~domains:d sys in
          check Alcotest.bool
            (Printf.sprintf "truncated space identical (bound %d, %d domains)"
               max_states d)
            true
            (Marshal.to_string
               (seq.Mc.Explore.lts, seq.Mc.Explore.states,
                seq.Mc.Explore.complete)
               []
            = Marshal.to_string
                (par.Mc.Explore.lts, par.Mc.Explore.states,
                 par.Mc.Explore.complete)
                []))
        domain_counts)
    [ 100; 777 ]

let test_heartbeat_find_parity () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:4 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary params in
  let net = Ta.Semantics.compile model in
  let sys = Ta.Semantics.system net in
  let goal = Ta.Semantics.loc_is net ~auto:"P0" ~loc:"VInact" in
  match Mc.Explore.find ~goal sys with
  | Mc.Explore.Reached w ->
      List.iter
        (fun d ->
          match Mc.Pexplore.find ~domains:d ~goal sys with
          | Mc.Explore.Reached w' ->
              check Alcotest.int
                (Printf.sprintf "witness length at %d domains" d)
                (List.length w.Mc.Explore.trace)
                (List.length w'.Mc.Explore.trace)
          | _ -> Alcotest.fail "parallel find missed a reachable goal")
        domain_counts
  | _ -> Alcotest.fail "expected P0 inactivation to be reachable"

(* ------------------------------------------------------------------ *)
(* Stores x engines: compression and the legacy level-sync engine.      *)
(* ------------------------------------------------------------------ *)

let pid_stores = [ Mc.Store.exact; Mc.Store.hash_compaction ]

(* Property (d): both engines (work-stealing and the level-synchronised
   baseline), both pid-tracking stores, every domain count: spaces are
   structurally equal to the sequential oracle (62-bit fingerprints have
   ~2^-62 collision odds per state pair, so hash compaction is exact on
   these spaces) and count/find verdicts agree. *)
let prop_store_engine_parity =
  QCheck.Test.make ~name:"stores x engines x domains parity vs Mc.Explore"
    ~count:60
    QCheck.(pair rand_sys_arb small_nat)
    (fun (rs, g) ->
      let sys = table_system rs in
      let goal s = s = g mod rs.n in
      let seq_space = Mc.Explore.space sys in
      let seq_count = Mc.Explore.count sys in
      let seq_find = Mc.Explore.find ~goal sys in
      List.for_all
        (fun workstealing ->
          List.for_all
            (fun store ->
              List.for_all
                (fun d ->
                  same_space seq_space
                    (Mc.Pexplore.space ~domains:d ~store ~workstealing sys)
                  && seq_count
                     = Mc.Pexplore.count ~domains:d ~store ~workstealing sys
                  &&
                  match
                    ( seq_find,
                      Mc.Pexplore.find ~domains:d ~store ~workstealing ~goal
                        sys )
                  with
                  | Mc.Explore.Unreachable, Mc.Explore.Unreachable -> true
                  | Mc.Explore.Reached w, Mc.Explore.Reached w' ->
                      List.length w.Mc.Explore.trace
                      = List.length w'.Mc.Explore.trace
                      && trace_reaches rs ~goal w'.Mc.Explore.trace
                  | Mc.Explore.Bound_hit n, Mc.Explore.Bound_hit n' -> n = n'
                  | _ -> false)
                domain_counts)
            pid_stores)
        [ true; false ])

(* The process-algebra protocol models under the same matrix: the spaces
   must be byte-identical to the sequential engine's (random PA specs are
   exercised by the POR suite; here the shipped variants pin the real
   state shapes — nested records, lists — through the marshalling
   fingerprint path). *)
let test_pa_store_engine_byte_identical () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:3 () in
  List.iter
    (fun variant ->
      let spec = Heartbeat.Pa_models.build variant params in
      let sys = Proc.Semantics.system spec in
      (* No_sharing: PA states physically share subterms with whichever
         parent produced them first, which differs between engines even
         for structurally identical spaces *)
      let bytes_of (s : (_, _) Mc.Explore.space) =
        Marshal.to_string
          (s.Mc.Explore.lts, s.Mc.Explore.states, s.Mc.Explore.complete)
          [ Marshal.No_sharing ]
      in
      let seq = bytes_of (Mc.Explore.space sys) in
      List.iter
        (fun workstealing ->
          List.iter
            (fun store ->
              List.iter
                (fun d ->
                  check Alcotest.bool
                    (Printf.sprintf "%s ws=%b %s d=%d byte-identical"
                       (Heartbeat.Pa_models.variant_name variant)
                       workstealing
                       (Mc.Store.mode_name store)
                       d)
                    true
                    (String.equal seq
                       (bytes_of
                          (Mc.Pexplore.space ~domains:d ~store ~workstealing
                             sys))))
                domain_counts)
            pid_stores)
        [ true; false ])
    [ Heartbeat.Pa_models.Binary; Heartbeat.Pa_models.Static ]

let test_noreplay_same_structure () =
  (* replay:false skips canonical renumbering on completed runs: the
     numbering is free but the state set, the counts and the complete
     flag must still match the sequential engine *)
  let sys = heartbeat_system () in
  let seq = Mc.Explore.space sys in
  let seq_set = List.sort compare (Array.to_list seq.Mc.Explore.states) in
  List.iter
    (fun d ->
      let par = Mc.Pexplore.space ~replay:false ~domains:d sys in
      check Alcotest.bool
        (Printf.sprintf "complete at %d domains" d)
        true par.Mc.Explore.complete;
      check Alcotest.int
        (Printf.sprintf "state count at %d domains" d)
        (Lts.Graph.num_states seq.Mc.Explore.lts)
        (Lts.Graph.num_states par.Mc.Explore.lts);
      check Alcotest.int
        (Printf.sprintf "transition count at %d domains" d)
        (Lts.Graph.num_transitions seq.Mc.Explore.lts)
        (Lts.Graph.num_transitions par.Mc.Explore.lts);
      check Alcotest.bool
        (Printf.sprintf "same state set at %d domains" d)
        true
        (seq_set = List.sort compare (Array.to_list par.Mc.Explore.states)))
    domain_counts

let test_stats_consistency () =
  let sys = counter 500 in
  let space, stats = Mc.Pexplore.space_stats ~domains:2 sys in
  check Alcotest.int "stats states" 500 stats.Mc.Pexplore.states;
  check Alcotest.int "stats transitions"
    (Lts.Graph.num_transitions space.Mc.Explore.lts)
    stats.Mc.Pexplore.transitions;
  check Alcotest.int "histogram covers all states" 500
    (Array.fold_left ( + ) 0 stats.Mc.Pexplore.depth_histogram);
  check Alcotest.int "shards cover all states" 500
    (Array.fold_left ( + ) 0 stats.Mc.Pexplore.shard_occupancy);
  check Alcotest.int "peak frontier of a cycle" 1 stats.Mc.Pexplore.peak_frontier;
  check Alcotest.int "domains recorded" 2 stats.Mc.Pexplore.domains_used

let test_progress_callback () =
  let calls = ref 0 in
  let last_states = ref 0 in
  let (_ : (int, string) Mc.Explore.space) =
    Mc.Pexplore.space ~domains:2
      ~progress:(fun ~depth:_ ~states ~frontier:_ ->
        incr calls;
        last_states := states)
      (counter 50)
  in
  check Alcotest.bool "progress called per level" true (!calls >= 50);
  check Alcotest.bool "progress saw interned states" true (!last_states > 0)

let tests =
  ( "pexplore",
    [
      QCheck_alcotest.to_alcotest prop_space_parity;
      QCheck_alcotest.to_alcotest prop_find_parity;
      QCheck_alcotest.to_alcotest prop_bound_parity;
      Alcotest.test_case "counter parity (marshal)" `Quick test_counter_parity;
      Alcotest.test_case "binary heartbeat byte-identical" `Quick
        test_heartbeat_byte_identical;
      Alcotest.test_case "binary heartbeat truncated parity" `Quick
        test_heartbeat_truncated_parity;
      Alcotest.test_case "binary heartbeat find parity" `Quick
        test_heartbeat_find_parity;
      QCheck_alcotest.to_alcotest prop_store_engine_parity;
      Alcotest.test_case "PA models: stores x engines byte-identical" `Quick
        test_pa_store_engine_byte_identical;
      Alcotest.test_case "replay:false keeps the structure" `Quick
        test_noreplay_same_structure;
      Alcotest.test_case "exploration stats consistency" `Quick
        test_stats_consistency;
      Alcotest.test_case "progress callback" `Quick test_progress_callback;
    ] )
