(* Resilience harness for budgets, suspension/resume, checkpoint
   container integrity, in-place store degradation and the quarantine of
   raising successor functions.

   The deterministic lever everywhere is [Budget.make ~probe
   ~check_every:1]: the probe fires on every poll, so a counter inside
   it trips the budget after an exact number of engine polls — no
   wall-clock or heap-size flakiness in CI. *)

let check = Alcotest.check

(* Trip with [Cancelled] on the k-th budget poll. *)
let tripping_budget k =
  let calls = Atomic.make 0 in
  let probe () =
    if Atomic.fetch_and_add calls 1 >= k - 1 then Some Mc.Budget.Cancelled
    else None
  in
  Mc.Budget.make ~probe ~check_every:1 ()

(* Trip with [Memory] on [shots] probes in a row, the [from]-th on (the
   budget re-arms after each degradation, so each shot costs one rung of
   the store ladder). *)
let memory_budget ~from shots =
  let calls = Atomic.make 0 in
  let probe () =
    let c = Atomic.fetch_and_add calls 1 + 1 in
    if c >= from && c < from + shots then Some (Mc.Budget.Memory 1) else None
  in
  Mc.Budget.make ~probe ~check_every:1 ()

let sys_of_succ (succ : int -> (string * int) list) : (int, string) Mc.System.t
    =
  (module struct
    type state = int
    type label = string

    let initial = 0
    let successors = succ
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Format.pp_print_int
    let pp_label = Format.pp_print_string
  end)

(* Structural space equality: numbering, transition order, state array
   and completeness must all coincide. *)
let same_space (a : ('s, 'l) Mc.Explore.space)
    (b : ('s, 'l) Mc.Explore.space) =
  a.Mc.Explore.complete = b.Mc.Explore.complete
  && a.Mc.Explore.states = b.Mc.Explore.states
  && Lts.Graph.num_states a.Mc.Explore.lts = Lts.Graph.num_states b.Mc.Explore.lts
  && Lts.Graph.initial a.Mc.Explore.lts = Lts.Graph.initial b.Mc.Explore.lts
  && Lts.Graph.transitions a.Mc.Explore.lts
     = Lts.Graph.transitions b.Mc.Explore.lts

(* ------------------------------------------------------------------ *)
(* Sequential suspend/resume: byte-identical to an uninterrupted run.   *)
(* ------------------------------------------------------------------ *)

let prop_seq_resume_byte_identical =
  QCheck.Test.make
    ~name:"seq suspend/resume byte-identical to uninterrupted run" ~count:200
    QCheck.(pair Test_pexplore.rand_sys_arb small_nat)
    (fun (rs, k) ->
      let sys = Test_pexplore.table_system rs in
      let oracle = Mc.Explore.space sys in
      let budget = tripping_budget (1 + (k mod (rs.n + 2))) in
      match Mc.Explore.space_run ~budget sys with
      | Mc.Explore.Done sp -> same_space oracle sp
      | Mc.Explore.Suspended (_, cur) -> (
          match Mc.Explore.space_run ~resume:cur sys with
          | Mc.Explore.Done sp -> same_space oracle sp
          | Mc.Explore.Suspended _ -> false))

let prop_seq_resume_bounded =
  QCheck.Test.make
    ~name:"seq suspend/resume under max_states keeps truncation contract"
    ~count:200
    QCheck.(triple Test_pexplore.rand_sys_arb small_nat small_nat)
    (fun (rs, m, k) ->
      let sys = Test_pexplore.table_system rs in
      let max_states = m mod (rs.n + 3) in
      let oracle = Mc.Explore.space ~max_states sys in
      let budget = tripping_budget (1 + (k mod (rs.n + 2))) in
      match Mc.Explore.space_run ~max_states ~budget sys with
      | Mc.Explore.Done sp -> same_space oracle sp
      | Mc.Explore.Suspended (_, cur) -> (
          match Mc.Explore.space_run ~max_states ~resume:cur sys with
          | Mc.Explore.Done sp -> same_space oracle sp
          | Mc.Explore.Suspended _ -> false))

(* Two interrupts in a row, resumed each time, still land on the exact
   sequential result. *)
let test_seq_double_interrupt () =
  let sys = Test_pexplore.counter 300 in
  let oracle = Mc.Explore.space sys in
  let rec drain budgets r =
    match (r, budgets) with
    | Mc.Explore.Done sp, _ -> sp
    | Mc.Explore.Suspended (_, cur), b :: rest ->
        drain rest (Mc.Explore.space_run ?budget:b ~resume:cur sys)
    | Mc.Explore.Suspended _, [] ->
        Alcotest.fail "suspended again with no budget"
  in
  let first = Mc.Explore.space_run ~budget:(tripping_budget 50) sys in
  (match first with
  | Mc.Explore.Suspended _ -> ()
  | Mc.Explore.Done _ -> Alcotest.fail "expected the first run to suspend");
  let sp = drain [ Some (tripping_budget 100); None ] first in
  check Alcotest.bool "double interrupt/resume = uninterrupted" true
    (same_space oracle sp)

(* Periodic checkpoints: callbacks fire at the configured granularity
   and resuming from the last snapshot of a *completed* run still
   reproduces the full space. *)
let test_periodic_checkpoint () =
  let sys = Test_pexplore.counter 200 in
  let calls = ref 0 in
  let last = ref None in
  match
    Mc.Explore.space_run
      ~checkpoint:
        ( 50,
          fun c ->
            incr calls;
            last := Some c )
      sys
  with
  | Mc.Explore.Suspended _ -> Alcotest.fail "unexpected suspension"
  | Mc.Explore.Done sp -> (
      check Alcotest.bool "periodic checkpoints fired" true (!calls >= 3);
      match !last with
      | None -> Alcotest.fail "no checkpoint captured"
      | Some cur -> (
          match Mc.Explore.space_run ~resume:cur sys with
          | Mc.Explore.Done sp' ->
              check Alcotest.bool "resume from periodic snapshot" true
                (same_space sp sp')
          | Mc.Explore.Suspended _ -> Alcotest.fail "resume suspended"))

(* Resuming with a different max_states than the cursor was taken with
   is a parameter mismatch, not a silent wrong answer. *)
let test_resume_max_states_mismatch () =
  let sys = Test_pexplore.counter 100 in
  match Mc.Explore.space_run ~max_states:80 ~budget:(tripping_budget 10) sys with
  | Mc.Explore.Done _ -> Alcotest.fail "expected suspension"
  | Mc.Explore.Suspended (_, cur) -> (
      try
        ignore (Mc.Explore.space_run ~max_states:60 ~resume:cur sys);
        Alcotest.fail "resume accepted a max_states mismatch"
      with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Checkpoint files: round trip, kind guard, corruption, truncation,   *)
(* an older format version.                                            *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_container () =
  let sys = Test_pexplore.counter 200 in
  let kind = "test/resilience/counter200" in
  match Mc.Explore.space_run ~budget:(tripping_budget 60) sys with
  | Mc.Explore.Done _ -> Alcotest.fail "expected suspension"
  | Mc.Explore.Suspended (_, cur) ->
      let file = Filename.temp_file "hbckpt" ".ck" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
      @@ fun () ->
      Mc.Checkpoint.save ~file ~kind cur;
      (match Mc.Checkpoint.load ~file ~kind with
      | Error e -> Alcotest.failf "load of a fresh checkpoint failed: %s" e
      | Ok (cur' : (int, string) Mc.Explore.cursor) -> (
          match Mc.Explore.space_run ~resume:cur' sys with
          | Mc.Explore.Done sp ->
              check Alcotest.bool "resume through the file = uninterrupted"
                true
                (same_space (Mc.Explore.space sys) sp)
          | Mc.Explore.Suspended _ -> Alcotest.fail "file resume suspended"));
      (match Mc.Checkpoint.load ~file ~kind:"test/resilience/other" with
      | Error _ -> ()
      | Ok (_ : (int, string) Mc.Explore.cursor) ->
          Alcotest.fail "kind mismatch was accepted");
      let bytes =
        let ic = open_in_bin file in
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        really_input_string ic (in_channel_length ic)
      in
      let rewrite s =
        let oc = open_out_bin file in
        output_string oc s;
        close_out oc
      in
      let flipped = Bytes.of_string bytes in
      let last = Bytes.length flipped - 1 in
      Bytes.set flipped last
        (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
      rewrite (Bytes.to_string flipped);
      (match Mc.Checkpoint.load ~file ~kind with
      | Error _ -> ()
      | Ok (_ : (int, string) Mc.Explore.cursor) ->
          Alcotest.fail "corrupted payload was accepted");
      rewrite (String.sub bytes 0 (String.length bytes / 2));
      (match Mc.Checkpoint.load ~file ~kind with
      | Error _ -> ()
      | Ok (_ : (int, string) Mc.Explore.cursor) ->
          Alcotest.fail "truncated file was accepted");
      (* A container of format version 1, written before PA states
         carried configuration keys, is rejected even though its magic,
         kind and digest are intact. *)
      let magic_len = String.length "HBCKPT01" in
      check Alcotest.int "saved with the current version"
        Mc.Checkpoint.version
        (Int32.to_int (String.get_int32_be bytes magic_len));
      check Alcotest.bool "PA key format is version 2 or later" true
        (Mc.Checkpoint.version >= 2);
      let old = Bytes.of_string bytes in
      Bytes.set_int32_be old magic_len 1l;
      rewrite (Bytes.to_string old);
      match Mc.Checkpoint.load ~file ~kind with
      | Error e ->
          check Alcotest.bool "version named in the error" true
            (String.starts_with ~prefix:"checkpoint version 1 " e)
      | Ok (_ : (int, string) Mc.Explore.cursor) ->
          Alcotest.fail "version 1 container was accepted"

(* A PA liveness check (SCC engine) tripped mid-build, saved and
   reloaded through [Mc.Checkpoint], resumes to the verdict and lasso of
   the uninterrupted run: the cursor's PA states survive Marshal with
   their hashes and equality intact. *)
let test_pa_checkpoint_resume () =
  let module H = Heartbeat in
  let run ?budget ?resume () =
    H.Pa_verify.check_live_run ~engine:Ltl.Check.Scc ?budget ?resume
      H.Pa_models.Binary
      (H.Params.make ~tmin:2 ~tmax:2 ())
      H.Requirements.R2
  in
  let expected =
    match run () with
    | Ltl.Check.Concluded v -> v
    | Ltl.Check.Suspended _ -> Alcotest.fail "unbudgeted run suspended"
  in
  check Alcotest.bool "uninterrupted run refutes R2" true
    (match expected with Ltl.Check.Refuted _ -> true | _ -> false);
  match run ~budget:(tripping_budget 40) () with
  | Ltl.Check.Concluded _ -> Alcotest.fail "expected suspension"
  | Ltl.Check.Suspended (_, cur) -> (
      let file = Filename.temp_file "hbpa" ".ck" in
      Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
      @@ fun () ->
      let kind = "test/resilience/pa-binary-r2" in
      Mc.Checkpoint.save ~file ~kind cur;
      match Mc.Checkpoint.load ~file ~kind with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok cur' -> (
          match run ~resume:cur' () with
          | Ltl.Check.Concluded v ->
              check Alcotest.bool "resumed verdict and lasso = uninterrupted" true
                (v = expected)
          | Ltl.Check.Suspended _ -> Alcotest.fail "resumed run suspended"))

(* ------------------------------------------------------------------ *)
(* Checkpoint layout pin.                                              *)
(* ------------------------------------------------------------------ *)

(* The digests of three cursors' marshalled payloads, each taken at a
   fixed budget trip: a timed-automata space, a process-algebra space
   and an SCC liveness product.  A change to the shape of a cursor or of
   a state it carries changes a digest, and a checkpoint of the old
   shape would then load into the wrong layout: such a change must bump
   [Mc.Checkpoint.version] and re-record the digests. *)
let layout_digests =
  [
    ("TA binary (1,4)", "aa3b7e864f038b3826b2c2a256ca37f0");
    ("PA binary (2,3)", "1b3ffa1b48716ec5debd59995403211b");
    ("SCC product binary (2,2) R2", "cb84f7f3da89930fef188f98c6135f2f");
  ]

let test_checkpoint_layout () =
  let module H = Heartbeat in
  let digest cur = Digest.to_hex (Digest.string (Marshal.to_string cur [])) in
  let space_cursor what sys =
    match Mc.Explore.space_run ~budget:(tripping_budget 100) sys with
    | Mc.Explore.Suspended (_, cur) -> digest cur
    | Mc.Explore.Done _ -> Alcotest.failf "%s: expected a suspension" what
  in
  let ta =
    space_cursor "TA"
      (Ta.Semantics.system
         (Ta.Semantics.compile
            (H.Ta_models.build H.Ta_models.Binary
               (H.Params.make ~tmin:1 ~tmax:4 ()))))
  in
  let pa =
    space_cursor "PA"
      (Proc.Semantics.system
         (H.Pa_models.build H.Pa_models.Binary
            (H.Params.make ~tmin:2 ~tmax:3 ())))
  in
  let scc =
    match
      H.Verify.check_live_run ~engine:Ltl.Check.Scc
        ~budget:(tripping_budget 100) H.Ta_models.Binary
        (H.Params.make ~tmin:2 ~tmax:2 ())
        H.Requirements.R2
    with
    | Ltl.Check.Suspended (_, cur) -> digest cur
    | Ltl.Check.Concluded _ -> Alcotest.fail "SCC: expected a suspension"
  in
  check Alcotest.int "checkpoint format version" 4 Mc.Checkpoint.version;
  check
    Alcotest.(list (pair string string))
    "cursor payload digests: after a change to a cursor or state type, \
     bump Mc.Checkpoint.version and re-record them"
    layout_digests
    (List.combine (List.map fst layout_digests) [ ta; pa; scc ])

(* ------------------------------------------------------------------ *)
(* Degradation ladder: memory trips walk the store down in place.       *)
(* ------------------------------------------------------------------ *)

(* A binary tree on 0..n-1, complete when n is one less than a power of
   two; every level is wider than the last, so all domains hold work. *)
let tree_succ n s =
  List.filter (fun (_, c) -> c < n) [ ("l", (2 * s) + 1); ("r", (2 * s) + 2) ]

(* One trip costs one rung and nothing else, wherever it lands: from
   the first poll to a few hundred chunks into a 2^16-state binary tree
   at 4 domains.  A trip the ladder answers is no stop, so the domains
   that are mid-chunk while another degrades the store must keep
   expanding, or what they drop is missing from a count still reported
   complete.  Hash compaction is exact at this size. *)
let test_degradation_one_rung () =
  let sys = sys_of_succ (tree_succ (1 lsl 16)) in
  let expected = (Mc.Explore.count sys, []) in
  List.iter
    (fun from ->
      let (count, complete), stats =
        Mc.Pexplore.count_stats ~domains:4 ~budget:(memory_budget ~from 1) sys
      in
      check
        Alcotest.(list string)
        "exactly one rung taken" [ "hashcompact" ] stats.Mc.Pexplore.degraded;
      check
        Alcotest.(pair (pair int bool) (list string))
        (Printf.sprintf "count after a trip at poll %d" from)
        expected
        ( (count, complete),
          Option.to_list
            (Option.map Mc.Budget.reason_name stats.Mc.Pexplore.exhausted) ))
    [ 1; 20; 40; 80; 160; 320 ]

let test_degradation_full_ladder () =
  let sys = Test_pexplore.counter 3000 in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:2 ~budget:(memory_budget ~from:1 2) sys
  in
  check
    Alcotest.(list string)
    "both rungs taken in order"
    [ "hashcompact"; "bitstate" ]
    stats.Mc.Pexplore.degraded;
  check Alcotest.bool "no exhaustion at the bottom of the ladder" true
    (stats.Mc.Pexplore.exhausted = None);
  check Alcotest.bool "run completes (probabilistically)" true complete;
  (* bitstate can only under-count, and on 3000 states over 2^25 bits
     the expected omission is far below one state *)
  check Alcotest.bool "count within bitstate omission bounds" true
    (count <= 3000 && count > 2900);
  check Alcotest.bool "coverage reflects the final mode" true
    (stats.Mc.Pexplore.coverage.Mc.Store.mode = "bitstate")

let test_degradation_disabled_exhausts () =
  let sys = Test_pexplore.counter 3000 in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:2 ~budget:(memory_budget ~from:1 1)
      ~degrade:false sys
  in
  (match stats.Mc.Pexplore.exhausted with
  | Some (Mc.Budget.Memory _) -> ()
  | _ -> Alcotest.fail "expected a sticky memory exhaustion");
  check Alcotest.bool "partial count" true (count < 3000);
  check Alcotest.bool "incomplete" false complete

(* ------------------------------------------------------------------ *)
(* Quarantine: raising successors are retried, then surfaced.           *)
(* ------------------------------------------------------------------ *)

let test_transient_raise_retried () =
  let raised = Atomic.make false in
  let succ s =
    if s = 60 && not (Atomic.exchange raised true) then
      failwith "transient successor failure"
    else tree_succ 127 s
  in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:4 (sys_of_succ succ)
  in
  check Alcotest.int "all 127 states counted after the retry" 127 count;
  check Alcotest.bool "complete" true complete;
  check Alcotest.bool "the retry was recorded" true
    (stats.Mc.Pexplore.retries >= 1);
  check Alcotest.bool "no exhaustion" true
    (stats.Mc.Pexplore.exhausted = None)

(* A successor that keeps raising must not deadlock the 4-domain run:
   it ends with a Crashed exhaustion naming the state, after counting
   everything else. *)
let test_persistent_raise_terminates () =
  let succ s = if s = 60 then failwith "boom" else tree_succ 127 s in
  let (count, complete), stats =
    Mc.Pexplore.count_stats ~domains:4 (sys_of_succ succ)
  in
  (match stats.Mc.Pexplore.exhausted with
  | Some (Mc.Budget.Crashed _) -> ()
  | Some r ->
      Alcotest.failf "expected Crashed, got %s" (Mc.Budget.reason_name r)
  | None -> Alcotest.fail "expected exhausted = Some (Crashed _)");
  check Alcotest.bool "incomplete" false complete;
  check Alcotest.bool "the rest of the space was still counted" true
    (count >= 120)

(* ------------------------------------------------------------------ *)
(* Budget semantics and verdict surfacing.                              *)
(* ------------------------------------------------------------------ *)

let test_budget_semantics () =
  let b = Mc.Budget.make ~check_every:1 () in
  check Alcotest.bool "untripped" true (Mc.Budget.check b = None);
  Mc.Budget.trip b (Mc.Budget.Memory 7);
  (match Mc.Budget.tripped b with
  | Some (Mc.Budget.Memory 7) -> ()
  | _ -> Alcotest.fail "memory trip not recorded");
  Mc.Budget.trip b Mc.Budget.Cancelled;
  (match Mc.Budget.tripped b with
  | Some (Mc.Budget.Memory 7) -> ()
  | _ -> Alcotest.fail "the first trip must win");
  Mc.Budget.rearm b;
  check Alcotest.bool "memory trips re-arm" true (Mc.Budget.tripped b = None);
  Mc.Budget.cancel b;
  (match Mc.Budget.check b with
  | Some Mc.Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancellation not observed");
  Mc.Budget.rearm b;
  match Mc.Budget.tripped b with
  | Some Mc.Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancellation must survive rearm"

(* A trip through the verdict path every safety check and
   [Verify.deadlocks] take. *)
let test_safety_exhausted () =
  let sys = Test_pexplore.counter 500 in
  match
    Mc.Safety.check_state ~budget:(tripping_budget 1) sys (fun _ -> false)
  with
  | Mc.Safety.Exhausted e ->
      check Alcotest.string "reason surfaced" "interrupted"
        (Mc.Budget.reason_name e.Mc.Explore.reason)
  | _ -> Alcotest.fail "expected Exhausted from Safety.check_state"

let tests =
  ( "resilience",
    [
      QCheck_alcotest.to_alcotest prop_seq_resume_byte_identical;
      QCheck_alcotest.to_alcotest prop_seq_resume_bounded;
      Alcotest.test_case "double interrupt/resume" `Quick
        test_seq_double_interrupt;
      Alcotest.test_case "periodic checkpoint callbacks" `Quick
        test_periodic_checkpoint;
      Alcotest.test_case "resume max_states mismatch rejected" `Quick
        test_resume_max_states_mismatch;
      Alcotest.test_case "checkpoint container guards" `Quick
        test_checkpoint_container;
      Alcotest.test_case "PA liveness checkpoint resume" `Quick
        test_pa_checkpoint_resume;
      Alcotest.test_case "checkpoint layout pinned" `Quick
        test_checkpoint_layout;
      Alcotest.test_case "degradation: one rung" `Quick
        test_degradation_one_rung;
      Alcotest.test_case "degradation: full ladder" `Quick
        test_degradation_full_ladder;
      Alcotest.test_case "degradation disabled exhausts" `Quick
        test_degradation_disabled_exhausts;
      Alcotest.test_case "transient raising successor retried" `Quick
        test_transient_raise_retried;
      Alcotest.test_case "persistent raising successor terminates" `Quick
        test_persistent_raise_terminates;
      Alcotest.test_case "budget trip/rearm semantics" `Quick
        test_budget_semantics;
      Alcotest.test_case "Safety surfaces Exhausted" `Quick
        test_safety_exhausted;
    ] )
