(* qcheck parity harness for the parallel counter: on random finite
   systems and on the heartbeat and process-algebra models,
   Mc.Pexplore.count_stats must agree with Mc.Explore — the count and the
   completeness flag, also under a max_states bound and with every store
   that keeps state identities, and the transitions of the sequential
   space — for every domain count in {1, 2, 4}. *)

let check = Alcotest.check
let domain_counts = [ 1; 2; 4 ]

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

(* Truncation under max_states bounds: identical counts and complete
   flags at the bound. *)
let prop_bound_parity =
  QCheck.Test.make ~name:"pexplore truncation parity under max_states"
    ~count:150
    QCheck.(pair rand_sys_arb small_nat)
    (fun (rs, m) ->
      let sys = table_system rs in
      let max_states = m mod (rs.n + 3) in
      let seq = Mc.Explore.count ~max_states sys in
      List.for_all
        (fun d -> seq = par_count ~max_states ~domains:d sys)
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

let heartbeat_system () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:4 () in
  let model = Heartbeat.Ta_models.build Heartbeat.Ta_models.Binary params in
  Ta.Semantics.system (Ta.Semantics.compile model)

(* The binary-heartbeat model truncated well inside its 1 795 states:
   the count stops at the bound and reports the run incomplete. *)
let test_heartbeat_truncated_parity () =
  let sys = heartbeat_system () in
  List.iter
    (fun max_states ->
      let seq = Mc.Explore.count ~max_states sys in
      check Alcotest.(pair int bool) "seq truncated" (max_states, false) seq;
      List.iter
        (fun d ->
          check
            Alcotest.(pair int bool)
            (Printf.sprintf "truncated count (bound %d, %d domains)"
               max_states d)
            seq
            (par_count ~max_states ~domains:d sys))
        domain_counts)
    [ 100; 777 ]

(* ------------------------------------------------------------------ *)
(* Stores: the parallel counter under compression.                      *)
(* ------------------------------------------------------------------ *)

let keyed_stores = [ Mc.Store.exact; Mc.Store.hash_compaction ]

(* Both stores that keep a key per state, every domain count: counts
   agree with the sequential oracle, and the counter expands every state
   once, so its transitions are those of the sequential space (62-bit
   fingerprints have ~2^-62 collision odds per state pair, so hash
   compaction is exact on these spaces). *)
let prop_store_engine_parity =
  QCheck.Test.make ~name:"stores x engines x domains parity vs Mc.Explore"
    ~count:60 rand_sys_arb (fun rs ->
      let sys = table_system rs in
      let seq = Mc.Explore.count sys in
      let transitions =
        Lts.Graph.num_transitions (Mc.Explore.space sys).Mc.Explore.lts
      in
      List.for_all
        (fun store ->
          List.for_all
            (fun d ->
              let result, stats =
                Mc.Pexplore.count_stats ~domains:d ~store sys
              in
              seq = result && stats.Mc.Pexplore.transitions = transitions)
            domain_counts)
        keyed_stores)

(* The summary of a count — states and completeness — marshalled, from
   the sequential engine and from the parallel counter. *)
let summary_bytes (count, complete) = Marshal.to_string (count, complete) []

(* Under both keyed stores at every domain count, the parallel summary
   is byte-identical to the sequential one. *)
let agree : type s l. string -> (s, l) Mc.System.t -> unit =
 fun name sys ->
  let seq = Mc.Explore.count sys in
  check Alcotest.bool (name ^ " complete") true (snd seq);
  let seq_bytes = summary_bytes seq in
  List.iter
    (fun store ->
      List.iter
        (fun d ->
          check Alcotest.bool
            (Printf.sprintf "%s %s d=%d byte-identical" name
               (Mc.Store.mode_name store) d)
            true
            (String.equal seq_bytes
               (summary_bytes (par_count ~store ~domains:d sys))))
        domain_counts)
    keyed_stores

let test_counter_parity () = agree "counter 500" (counter 500)

let test_heartbeat_byte_identical () =
  agree "binary heartbeat (1,4)" (heartbeat_system ())

(* The process-algebra protocol models pin the real state shapes —
   nested records and lists — through the marshalling fingerprint path
   (random PA specs are exercised by the POR suite). *)
let test_pa_store_engine_byte_identical () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:3 () in
  List.iter
    (fun variant ->
      agree
        ("PA " ^ Heartbeat.Ta_models.variant_name variant)
        (Proc.Semantics.system (Heartbeat.Pa_models.build variant params)))
    [ Heartbeat.Pa_models.Binary; Heartbeat.Pa_models.Static ]

let test_stats_consistency () =
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:2 (counter 500)
  in
  check Alcotest.(pair int bool) "count" (500, true) (count, complete);
  check Alcotest.int "stats states" 500 stats.Mc.Pexplore.states;
  check Alcotest.int "one transition per state of a cycle" 500
    stats.Mc.Pexplore.transitions;
  check Alcotest.int "shards cover all states" 500
    (Array.fold_left ( + ) 0 stats.Mc.Pexplore.shard_occupancy);
  check Alcotest.int "domains recorded" 2 stats.Mc.Pexplore.domains_used

let tests =
  ( "pexplore",
    [
      QCheck_alcotest.to_alcotest prop_bound_parity;
      Alcotest.test_case "counter parity (marshal)" `Quick test_counter_parity;
      Alcotest.test_case "binary heartbeat byte-identical" `Quick
        test_heartbeat_byte_identical;
      Alcotest.test_case "binary heartbeat truncated parity" `Quick
        test_heartbeat_truncated_parity;
      QCheck_alcotest.to_alcotest prop_store_engine_parity;
      Alcotest.test_case "PA models: stores x engines byte-identical" `Quick
        test_pa_store_engine_byte_identical;
      Alcotest.test_case "exploration stats consistency" `Quick
        test_stats_consistency;
    ] )
