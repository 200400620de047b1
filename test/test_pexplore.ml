(* qcheck parity harness for the parallel exploration engine: on random
   finite systems and on the heartbeat models, Mc.Pexplore must agree with
   Mc.Explore — byte-for-byte on spaces, on witness length and truncation
   behaviour for goal searches — for every domain count in {1, 2, 4}. *)

let check = Alcotest.check
let domain_counts = [ 1; 2; 4 ]

(* The parallel space and count through the engine's entry points; with
   no budget a run cannot suspend. *)
let par_space_stats ?max_states ?store ~domains sys =
  match Mc.Pexplore.space_run ?max_states ?store ~domains sys with
  | Mc.Explore.Done sp, stats -> (sp, stats)
  | Mc.Explore.Suspended _, _ -> Alcotest.fail "suspended without a budget"

let par_space ?max_states ?store ~domains sys =
  fst (par_space_stats ?max_states ?store ~domains sys)

let par_count ?max_states ?store ?domains sys =
  fst (Mc.Pexplore.count_stats ?max_states ?store ?domains sys)

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
        (fun d -> same_space seq (par_space ~domains:d sys))
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
          same_space seq_space (par_space ~max_states ~domains:d sys)
          && seq_count = par_count ~max_states ~domains:d sys
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
      let par = par_space ~domains:d sys in
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
        (String.equal seq_bytes (bytes_of (par_space ~domains:d sys))))
    domain_counts

let test_heartbeat_truncated_parity () =
  let sys = heartbeat_system () in
  List.iter
    (fun max_states ->
      let seq = Mc.Explore.space ~max_states sys in
      check Alcotest.bool "seq truncated" false seq.Mc.Explore.complete;
      List.iter
        (fun d ->
          let par = par_space ~max_states ~domains:d sys in
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
(* Stores: the parallel engine under compression.                       *)
(* ------------------------------------------------------------------ *)

let pid_stores = [ Mc.Store.exact; Mc.Store.hash_compaction ]

(* Property (d): both pid-tracking stores, every domain count: spaces
   are structurally equal to the sequential oracle (62-bit fingerprints
   have ~2^-62 collision odds per state pair, so hash compaction is
   exact on these spaces) and count/find verdicts agree. *)
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
        (fun store ->
          List.for_all
            (fun d ->
              same_space seq_space (par_space ~domains:d ~store sys)
              && seq_count = par_count ~domains:d ~store sys
              &&
              match (seq_find, Mc.Pexplore.find ~domains:d ~store ~goal sys) with
              | Mc.Explore.Unreachable, Mc.Explore.Unreachable -> true
              | Mc.Explore.Reached w, Mc.Explore.Reached w' ->
                  List.length w.Mc.Explore.trace
                  = List.length w'.Mc.Explore.trace
                  && trace_reaches rs ~goal w'.Mc.Explore.trace
              | Mc.Explore.Bound_hit n, Mc.Explore.Bound_hit n' -> n = n'
              | _ -> false)
            domain_counts)
        pid_stores)

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
        (fun store ->
          List.iter
            (fun d ->
              check Alcotest.bool
                (Printf.sprintf "%s %s d=%d byte-identical"
                   (Heartbeat.Ta_models.variant_name variant)
                   (Mc.Store.mode_name store)
                   d)
                true
                (String.equal seq
                   (bytes_of (par_space ~domains:d ~store sys))))
            domain_counts)
        pid_stores)
    [ Heartbeat.Pa_models.Binary; Heartbeat.Pa_models.Static ]

let test_stats_consistency () =
  let sys = counter 500 in
  let space, stats = par_space_stats ~domains:2 sys in
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

(* Sizes of the BFS levels of a space, from its initial state: the
   per-level counts a parallel run's [depth_histogram] must report. *)
let bfs_levels (sp : ('s, 'l) Mc.Explore.space) =
  let g = sp.Mc.Explore.lts in
  let depth = Array.make (Lts.Graph.num_states g) (-1) in
  let queue = Queue.create () in
  let visit d s =
    if depth.(s) < 0 then begin
      depth.(s) <- d;
      Queue.add s queue
    end
  in
  visit 0 (Lts.Graph.initial g);
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter (fun (_, t) -> visit (depth.(s) + 1) t) (Lts.Graph.successors g s)
  done;
  let levels = Array.make (Array.fold_left max 0 depth + 1) 0 in
  Array.iter (fun d -> levels.(d) <- levels.(d) + 1) depth;
  levels

(* Both stats entry points report one bin per BFS level of the
   sequential space and no bin past the deepest one (relaxation lowers
   depth stamps, so deep bins can empty out during a run). *)
let histograms_match sys levels d =
  let _, space_stats = par_space_stats ~domains:d sys in
  let _, count_stats = Mc.Pexplore.count_stats ~domains:d sys in
  space_stats.Mc.Pexplore.depth_histogram = levels
  && count_stats.Mc.Pexplore.depth_histogram = levels

let prop_depth_histogram =
  QCheck.Test.make ~name:"depth histogram = BFS level sizes (d in {1,2,4})"
    ~count:100 rand_sys_arb (fun rs ->
      let sys = table_system rs in
      let levels = bfs_levels (Mc.Explore.space sys) in
      List.for_all (histograms_match sys levels) domain_counts)

(* A model deep and diamond-rich enough that two domains relax depth
   stamps on most runs; the reported depth must still be the true one. *)
let test_expanding_depth_histogram () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:8 () in
  let sys =
    Ta.Semantics.system
      (Ta.Semantics.compile
         (Heartbeat.Ta_models.build Heartbeat.Ta_models.Expanding params))
  in
  let levels = bfs_levels (Mc.Explore.space sys) in
  for run = 1 to 10 do
    check Alcotest.bool
      (Printf.sprintf "expanding (1,8) histogram at 2 domains, run %d" run)
      true
      (histograms_match sys levels 2)
  done

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
      Alcotest.test_case "exploration stats consistency" `Quick
        test_stats_consistency;
      QCheck_alcotest.to_alcotest prop_depth_histogram;
      Alcotest.test_case "expanding depth histogram at 2 domains" `Quick
        test_expanding_depth_histogram;
    ] )
