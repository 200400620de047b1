(* Units and soundness checks for the state-compression layer (Mc.Store):
   exact-store roundtrips, CLI-spelling parses, forced fingerprint
   collisions (conflation under-reports, never over-reports, never
   crashes), the bitstate coverage estimate against the true
   omission rate on an enumerable model, and the fingerprint function
   itself. *)

let check = Alcotest.check

module S = Mc.Store.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* ------------------------------------------------------------------ *)
(* CLI spellings                                                       *)
(* ------------------------------------------------------------------ *)

let test_of_string () =
  let ok s m =
    match Mc.Store.of_string s with
    | Ok m' -> check Alcotest.bool (s ^ " parses") true (m = m')
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  let err s =
    match Mc.Store.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should be rejected" s
  in
  ok "exact" Mc.Store.Exact;
  ok " Exact " Mc.Store.Exact;
  ok "hashcompact" (Mc.Store.Hash_compaction { bits = 62 });
  ok "hashcompact:8" (Mc.Store.Hash_compaction { bits = 8 });
  ok "hashcompact:999" (Mc.Store.Hash_compaction { bits = 62 });
  ok "bitstate" (Mc.Store.Bitstate { log2_bits = 25; hashes = 3 });
  ok "bitstate:12" (Mc.Store.Bitstate { log2_bits = 12; hashes = 3 });
  ok "bitstate:12:5" (Mc.Store.Bitstate { log2_bits = 12; hashes = 5 });
  ok "bitstate:5" (Mc.Store.Bitstate { log2_bits = 10; hashes = 3 });
  ok "bitstate:12:99" (Mc.Store.Bitstate { log2_bits = 12; hashes = 8 });
  err "hashcompact:x";
  err "hashcompact:0";
  err "bitstate:0";
  err "supertrace";
  err ""

(* ------------------------------------------------------------------ *)
(* Exact-store roundtrip                                               *)
(* ------------------------------------------------------------------ *)

let test_exact_roundtrip () =
  let t = S.create ~shards:8 Mc.Store.Exact in
  check Alcotest.bool "tracks pids" true (S.tracks_pids t);
  for i = 0 to 99 do
    match S.intern t i ~depth:i with
    | S.Fresh pid -> check Alcotest.int "dense insertion-order pid" i pid
    | _ -> Alcotest.failf "state %d should be Fresh" i
  done;
  check Alcotest.int "total" 100 (S.total t);
  (match S.intern t 7 ~depth:50 with
  | S.Known pid -> check Alcotest.int "re-intern keeps its pid" 7 pid
  | _ -> Alcotest.fail "worse depth must be Known");
  (match S.intern t 7 ~depth:2 with
  | S.Relaxed (pid, old) ->
      check Alcotest.int "relaxed pid" 7 pid;
      check Alcotest.int "previous depth reported" 7 old
  | _ -> Alcotest.fail "better depth must be Relaxed");
  check Alcotest.int "find_pid known" 7 (S.find_pid t 7);
  check Alcotest.int "find_pid unknown" (-1) (S.find_pid t 100);
  check Alcotest.int "total unchanged by re-interns" 100 (S.total t);
  check Alcotest.int "occupancy sums to total" 100
    (Array.fold_left ( + ) 0 (S.occupancy t));
  let c = S.coverage t in
  check Alcotest.bool "exact coverage is certain" true
    (c.Mc.Store.exact
    && c.Mc.Store.omission_prob = 0.
    && c.Mc.Store.est_coverage = 1.)

(* ------------------------------------------------------------------ *)
(* Forced fingerprint collisions                                       *)
(* ------------------------------------------------------------------ *)

let test_forced_collision_conflates () =
  (* every state hashes to the same fingerprint: the store must conflate
     them onto one pid (pure under-report), never mint a second id and
     never crash *)
  let t =
    S.create ~shards:4 ~fingerprint:(fun _ -> 0x1234) Mc.Store.hash_compaction
  in
  (match S.intern t 1 ~depth:3 with
  | S.Fresh 0 -> ()
  | _ -> Alcotest.fail "first state must be Fresh 0");
  (match S.intern t 2 ~depth:5 with
  | S.Known 0 -> ()
  | _ -> Alcotest.fail "colliding state must conflate to pid 0, not relax");
  (match S.intern t 3 ~depth:1 with
  | S.Relaxed (0, 3) -> ()
  | _ -> Alcotest.fail "shallower colliding state must relax pid 0's stamp");
  check Alcotest.int "conflation under-reports total" 1 (S.total t);
  check Alcotest.int "colliding lookup resolves to the one pid" 0
    (S.find_pid t 2)

let test_forced_collision_bitstate () =
  let t =
    S.create ~shards:4
      ~fingerprint:(fun _ -> 0x1234)
      (Mc.Store.Bitstate { log2_bits = 10; hashes = 3 })
  in
  check Alcotest.bool "bitstate tracks no pids" false (S.tracks_pids t);
  (match S.intern t 1 ~depth:0 with
  | S.Fresh 0 -> ()
  | _ -> Alcotest.fail "first state must be Fresh 0");
  (match S.intern t 2 ~depth:0 with
  | S.Known -1 -> ()
  | _ -> Alcotest.fail "colliding state must read as already seen");
  check Alcotest.int "one state stored" 1 (S.total t);
  check Alcotest.int "no pid lookups" (-1) (S.find_pid t 1)

let test_bitstate_distinct_fresh () =
  let t = S.create ~shards:4 (Mc.Store.Bitstate { log2_bits = 20; hashes = 3 }) in
  for i = 0 to 199 do
    match S.intern t i ~depth:0 with
    | S.Fresh pid -> check Alcotest.int "dense pid" i pid
    | _ -> Alcotest.failf "state %d unexpectedly collided in a 1 Mbit array" i
  done;
  (match S.intern t 42 ~depth:0 with
  | S.Known -1 -> ()
  | _ -> Alcotest.fail "re-intern must be Known");
  check Alcotest.int "total" 200 (S.total t)

(* ------------------------------------------------------------------ *)
(* Engine-level collision behaviour                                    *)
(* ------------------------------------------------------------------ *)

let test_narrow_compact_underreports () =
  (* 8-bit fingerprints give 256 slots for a 1000-state chain: collisions
     are certain.  The run must finish, report complete, and only ever
     under-count. *)
  let n = 1000 in
  let sys = Test_pexplore.counter n in
  List.iter
    (fun d ->
      let count, complete =
        Mc.Pexplore.count ~domains:d
          ~store:(Mc.Store.Hash_compaction { bits = 8 })
          sys
      in
      check Alcotest.bool
        (Printf.sprintf "completes without crashing (d=%d)" d)
        true complete;
      check Alcotest.bool
        (Printf.sprintf "never over-reports (d=%d)" d)
        true (count <= n);
      check Alcotest.bool
        (Printf.sprintf "256 fingerprints force under-report (d=%d)" d)
        true
        (count < n))
    [ 1; 4 ]

let test_compact_find_never_fabricates () =
  (* the chain's last state is hidden behind a collision: find answers
     Unreachable (a probabilistic miss) — it must never invent a witness
     for a state it did not visit *)
  let n = 1000 in
  let sys = Test_pexplore.counter n in
  match
    Mc.Pexplore.find ~domains:2
      ~store:(Mc.Store.Hash_compaction { bits = 8 })
      ~goal:(fun s -> s = n - 1)
      sys
  with
  | Mc.Explore.Unreachable -> ()
  | Mc.Explore.Reached _ ->
      Alcotest.fail "fabricated a witness beyond the collision cut"
  | Mc.Explore.Bound_hit _ -> Alcotest.fail "unexpected bound"
  | Mc.Explore.Exhausted _ -> Alcotest.fail "unexpected exhaustion"

let prop_compressed_never_overreport =
  QCheck.Test.make ~name:"compressed stores never over-report" ~count:100
    QCheck.(pair Test_pexplore.rand_sys_arb (int_range 1 16))
    (fun (rs, bits) ->
      let sys = Test_pexplore.table_system rs in
      let exact, _ = Mc.Pexplore.count ~domains:2 sys in
      let compact, _ =
        Mc.Pexplore.count ~domains:2
          ~store:(Mc.Store.Hash_compaction { bits })
          sys
      in
      let bit, _ =
        Mc.Pexplore.count ~domains:2
          ~store:(Mc.Store.Bitstate { log2_bits = 10; hashes = 2 })
          sys
      in
      compact <= exact && bit <= exact && compact >= 1 && bit >= 1)

let test_fullwidth_compact_exact_parity () =
  (* at the default 62-bit width a collision on a few thousand states has
     probability ~1e-12: the count matches the exact store *)
  let sys = Test_pexplore.counter 5000 in
  let exact, _ = Mc.Pexplore.count sys in
  List.iter
    (fun d ->
      let compact, complete =
        Mc.Pexplore.count ~domains:d ~store:Mc.Store.hash_compaction sys
      in
      check Alcotest.bool "complete" true complete;
      check Alcotest.int
        (Printf.sprintf "62-bit fingerprints count exactly (d=%d)" d)
        exact compact)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Bitstate coverage estimate vs. ground truth                          *)
(* ------------------------------------------------------------------ *)

(* A dense DAG over 0..n-1 (six well-spread forward edges per state):
   nearly every state has six predecessors, so an omitted state almost
   never disconnects downstream states and the measured omissions are
   the direct bitstate false positives — the regime the store's
   independent-omission estimate models (a bare chain would cascade and
   defeat any estimator). *)
let dag n : (int, string) Mc.System.t =
  (module struct
    type state = int
    type label = string

    let initial = 0

    let successors s =
      List.filter_map
        (fun d ->
          if s + d < n then Some (string_of_int d, s + d) else None)
        [ 1; 3; 7; 13; 29; 53 ]

    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

let test_bitstate_coverage_estimate () =
  let n = 2000 in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:1
      ~store:(Mc.Store.Bitstate { log2_bits = 12; hashes = 2 })
      (dag n)
  in
  check Alcotest.bool "run completes" true complete;
  check Alcotest.bool "never over-reports" true (count <= n);
  check Alcotest.bool "a saturated 4 Kbit array forces omissions" true
    (count < n);
  let c = stats.Mc.Pexplore.coverage in
  check Alcotest.bool "coverage is flagged probabilistic" false
    c.Mc.Store.exact;
  check Alcotest.int "coverage counts the stored states" count
    c.Mc.Store.stored;
  check Alcotest.bool "omission probability is substantial" true
    (c.Mc.Store.omission_prob > 0.05 && c.Mc.Store.omission_prob < 1.);
  (* ground truth: the DAG has exactly n reachable states *)
  let true_coverage = float_of_int count /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "estimate %.3f within 0.1 of true coverage %.3f"
       c.Mc.Store.est_coverage true_coverage)
    true
    (Float.abs (c.Mc.Store.est_coverage -. true_coverage) <= 0.1)

let test_bitstate_ample_array_full_coverage () =
  (* with a comfortably sized array the estimate reports near-certain
     coverage and the count is exact *)
  let n = 2000 in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:2
      ~store:(Mc.Store.Bitstate { log2_bits = 24; hashes = 3 })
      (dag n)
  in
  check Alcotest.bool "complete" true complete;
  check Alcotest.int "16 Mbit array stores every state" n count;
  let c = stats.Mc.Pexplore.coverage in
  check Alcotest.bool "near-certain estimated coverage" true
    (c.Mc.Store.est_coverage > 0.999);
  check Alcotest.bool "hash factor is reported" true
    (c.Mc.Store.hash_factor > 1000.)

(* ------------------------------------------------------------------ *)
(* Fingerprint function                                                *)
(* ------------------------------------------------------------------ *)

(* [fingerprint] is 64-bit FNV-1a over the [No_sharing] marshalling, and
   hashing allocates nothing beyond the marshalled string: PA
   configuration keys are fingerprints, built for every step of every
   step menu. *)
let test_fingerprint () =
  let reference x =
    let s = Marshal.to_string x [ Marshal.No_sharing ] in
    Int64.to_int
      (String.fold_left
         (fun h c ->
           Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
         0xcbf29ce484222325L s)
    land max_int
  in
  let same name x =
    check Alcotest.int name (reference x) (Mc.Store.fingerprint x)
  in
  same "int" 0;
  same "negative int" (-42);
  same "string" "heartbeat";
  same "empty list" ([] : int list);
  same "nested" [ ("p0", [ 1; 2; 3 ]); ("p1", []) ];
  let big = List.init 10_000 (fun i -> (i, string_of_int i)) in
  same "large value" big;
  let bytes = String.length (Marshal.to_string big [ Marshal.No_sharing ]) in
  ignore (Mc.Store.fingerprint big);
  let before = Gc.allocated_bytes () in
  ignore (Mc.Store.fingerprint big);
  let allocated = Gc.allocated_bytes () -. before in
  check Alcotest.bool
    (Printf.sprintf "allocates ~the marshalled string (%.0f bytes for %d)"
       allocated bytes)
    true
    (allocated < float_of_int (2 * bytes))

let tests =
  ( "store",
    [
      Alcotest.test_case "of_string spellings" `Quick test_of_string;
      Alcotest.test_case "exact roundtrip" `Quick test_exact_roundtrip;
      Alcotest.test_case "forced collision conflates (hashcompact)" `Quick
        test_forced_collision_conflates;
      Alcotest.test_case "forced collision conflates (bitstate)" `Quick
        test_forced_collision_bitstate;
      Alcotest.test_case "bitstate distinct states are fresh" `Quick
        test_bitstate_distinct_fresh;
      Alcotest.test_case "narrow fingerprints under-report" `Quick
        test_narrow_compact_underreports;
      Alcotest.test_case "find never fabricates witnesses" `Quick
        test_compact_find_never_fabricates;
      Alcotest.test_case "full-width fingerprints count exactly" `Quick
        test_fullwidth_compact_exact_parity;
      Alcotest.test_case "bitstate coverage estimate vs ground truth" `Quick
        test_bitstate_coverage_estimate;
      Alcotest.test_case "bitstate ample array reaches full coverage" `Quick
        test_bitstate_ample_array_full_coverage;
      Alcotest.test_case "fingerprint is FNV-1a, allocation-free" `Quick
        test_fingerprint;
      QCheck_alcotest.to_alcotest prop_compressed_never_overreport;
    ] )
