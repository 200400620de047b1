(* Tests for the simulation substrate: heap, RNG, statistics, engine and
   lossy links. *)

let check = Alcotest.check

(* --- pairing heap --- *)

let heap_of_list l =
  List.fold_left (fun h (k, v) -> Sim.Heap.insert k v h) Sim.Heap.empty l

(* Every element, popped in priority order. *)
let drain h =
  let rec go h acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (kv, h') -> go h' (kv :: acc)
  in
  go h []

let test_heap_basic () =
  let h = heap_of_list [ (3.0, "c"); (1.0, "a"); (2.0, "b") ] in
  check
    Alcotest.(option (pair (float 0.0) string))
    "min" (Some (1.0, "a"))
    (Option.map fst (Sim.Heap.pop h));
  check
    Alcotest.(list (pair (float 0.0) string))
    "sorted"
    [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]
    (drain h)

let test_heap_empty () =
  check Alcotest.bool "pop none" true (Sim.Heap.pop Sim.Heap.empty = None);
  match Sim.Heap.pop (Sim.Heap.insert 1.0 "x" Sim.Heap.empty) with
  | Some ((1.0, "x"), rest) ->
      check Alcotest.bool "empty after the last pop" true
        (Sim.Heap.pop rest = None)
  | _ -> Alcotest.fail "expected the one element"

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in priority order" ~count:300
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun items ->
      let drained = List.map fst (drain (heap_of_list items)) in
      drained = List.sort compare (List.map fst items))

let prop_heap_size =
  QCheck.Test.make ~name:"heap size equals inserts" ~count:200
    QCheck.(list (float_bound_exclusive 10.0))
    (fun keys ->
      let h = heap_of_list (List.map (fun k -> (k, ())) keys) in
      List.length (drain h) = List.length keys)

(* --- RNG --- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 50 do
    check Alcotest.int64 "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  check Alcotest.bool "different streams" true
    (Sim.Rng.int64 a <> Sim.Rng.int64 b)

let test_rng_ranges () =
  let r = Sim.Rng.create 5L in
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f;
    let k = Sim.Rng.int r 7 in
    if k < 0 || k >= 7 then Alcotest.failf "int out of range: %d" k;
    let u = Sim.Rng.uniform r 2.0 5.0 in
    if u < 2.0 || u >= 5.0 then Alcotest.failf "uniform out of range: %f" u
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Sim.Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int r 0))

let test_rng_bool_bias () =
  let r = Sim.Rng.create 11L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Sim.Rng.bool r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "bias near 0.3" true (rate > 0.27 && rate < 0.33)

(* --- statistics --- *)

let test_stats_moments () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Sim.Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Sim.Stats.mean s);
  check (Alcotest.float 1e-9) "max" 9.0 (Sim.Stats.max_value s)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  check Alcotest.int "count 0" 0 (Sim.Stats.count s);
  check (Alcotest.float 0.0) "mean 0" 0.0 (Sim.Stats.mean s)

(* --- loss models --- *)

let test_loss_validate () =
  Sim.Loss.validate (Sim.Loss.bernoulli 0.3);
  Sim.Loss.validate (Sim.Loss.gilbert ~p_gb:0.1 ~p_bg:0.5 ());
  Alcotest.check_raises "bad bernoulli"
    (Invalid_argument "Sim.Loss: loss outside [0,1]") (fun () ->
      Sim.Loss.validate (Sim.Loss.bernoulli 1.5));
  Alcotest.check_raises "bad gilbert"
    (Invalid_argument "Sim.Loss: p_gb outside [0,1]") (fun () ->
      Sim.Loss.validate (Sim.Loss.gilbert ~p_gb:(-0.1) ~p_bg:0.5 ()))

let test_loss_expected () =
  check (Alcotest.float 1e-9) "bernoulli" 0.2
    (Sim.Loss.expected_loss (Sim.Loss.bernoulli 0.2));
  (* pi_bad = 0.01 / 0.2 = 0.05, loss = 0.05 * 1.0 *)
  check (Alcotest.float 1e-9) "gilbert" 0.05
    (Sim.Loss.expected_loss (Sim.Loss.gilbert ~p_gb:0.01 ~p_bg:0.19 ()));
  (* Degenerate chain (no transitions ever): the channel stays in Good,
     so the stationary loss is exactly [loss_good]. *)
  check (Alcotest.float 1e-9) "frozen chain" 0.3
    (Sim.Loss.expected_loss
       (Sim.Loss.Gilbert
          { p_gb = 0.0; p_bg = 0.0; loss_good = 0.3; loss_bad = 0.9 }))

(* Gilbert stationary loss vs a long empirical run.  The tolerance
   allows for burst correlation inflating the variance: with transition
   probabilities bounded away from 0 the correlation time is at most a
   few tens of messages, so 0.05 is ~7 sigma at 50k draws. *)
let prop_loss_expected_matches_empirical =
  QCheck.Test.make ~name:"gilbert expected_loss matches empirical rate"
    ~count:10
    QCheck.(
      quad (float_range 0.1 0.9) (float_range 0.1 0.9) (float_range 0.0 1.0)
        (float_range 0.0 1.0))
    (fun (p_gb, p_bg, loss_good, loss_bad) ->
      let model = Sim.Loss.Gilbert { p_gb; p_bg; loss_good; loss_bad } in
      let rng = Sim.Rng.create 0xA5EDL in
      let st = Sim.Loss.start model in
      let n = 50_000 in
      let dropped = ref 0 in
      for _ = 1 to n do
        if Sim.Loss.drops model st rng then incr dropped
      done;
      let empirical = float_of_int !dropped /. float_of_int n in
      Float.abs (empirical -. Sim.Loss.expected_loss model) < 0.05)

let test_loss_empirical_rate () =
  let rng = Sim.Rng.create 77L in
  List.iter
    (fun model ->
      let st = Sim.Loss.start model in
      let drops = ref 0 in
      let n = 50_000 in
      for _ = 1 to n do
        if Sim.Loss.drops model st rng then incr drops
      done;
      let rate = float_of_int !drops /. float_of_int n in
      let expected = Sim.Loss.expected_loss model in
      check Alcotest.bool
        (Printf.sprintf "empirical %.3f near expected %.3f" rate expected)
        true
        (abs_float (rate -. expected) < 0.01))
    [ Sim.Loss.bernoulli 0.1; Sim.Loss.gilbert ~p_gb:0.02 ~p_bg:0.18 () ]

let test_loss_burstiness () =
  (* Gilbert losses cluster: the probability that a loss is followed by
     another loss exceeds the average rate. *)
  let model = Sim.Loss.gilbert ~p_gb:0.01 ~p_bg:0.19 () in
  let rng = Sim.Rng.create 13L in
  let st = Sim.Loss.start model in
  let prev = ref false in
  let after_loss = ref 0 and after_loss_lost = ref 0 in
  for _ = 1 to 100_000 do
    let d = Sim.Loss.drops model st rng in
    if !prev then begin
      incr after_loss;
      if d then incr after_loss_lost
    end;
    prev := d
  done;
  let conditional =
    float_of_int !after_loss_lost /. float_of_int !after_loss
  in
  check Alcotest.bool
    (Printf.sprintf "P(loss|loss) = %.2f well above average 0.05" conditional)
    true (conditional > 0.5)

(* --- engine --- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now e) :: !log in
  ignore (Sim.Engine.schedule e ~delay:3.0 (note "c"));
  ignore (Sim.Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Sim.Engine.schedule e ~delay:2.0 (note "b"));
  Sim.Engine.run e;
  check
    Alcotest.(list (pair string (float 0.0)))
    "time order"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let t = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel t;
  Sim.Engine.run e;
  check Alcotest.bool "cancelled" false !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec beat () =
    incr count;
    ignore (Sim.Engine.schedule e ~delay:1.0 beat)
  in
  ignore (Sim.Engine.schedule e ~delay:1.0 beat);
  Sim.Engine.run ~until:5.5 e;
  check Alcotest.int "five beats" 5 !count;
  check (Alcotest.float 1e-9) "clock at last event" 5.0 (Sim.Engine.now e)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let result = ref 0.0 in
  ignore
    (Sim.Engine.schedule e ~delay:2.0 (fun () ->
         ignore
           (Sim.Engine.schedule e ~delay:3.0 (fun () ->
                result := Sim.Engine.now e))));
  Sim.Engine.run e;
  check (Alcotest.float 1e-9) "relative to fire time" 5.0 !result

let test_engine_errors () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.Engine.schedule: negative delay") (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-1.0) (fun () -> ())));
  Alcotest.check_raises "past time"
    (Invalid_argument "Sim.Engine.at: time in the past") (fun () ->
      ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> ()));
      Sim.Engine.run e;
      ignore (Sim.Engine.at e ~time:1.0 (fun () -> ())))

(* --- lossy links --- *)

let test_net_delivers_in_window () =
  let e = Sim.Engine.create ~seed:3L () in
  let received = ref [] in
  let link =
    Sim.Net.create e ~delay_lo:1.0 ~delay_hi:2.0
      ~deliver:(fun x -> received := (x, Sim.Engine.now e) :: !received)
      ()
  in
  Sim.Net.send link "m1";
  Sim.Net.send link "m2";
  Sim.Engine.run e;
  check Alcotest.int "both delivered" 2 (List.length !received);
  List.iter
    (fun (_, at) ->
      if at < 1.0 || at > 2.0 then Alcotest.failf "delivery at %f" at)
    !received;
  check Alcotest.int "sent" 2 (Sim.Net.sent link);
  check Alcotest.int "delivered" 2 (Sim.Net.delivered link);
  check Alcotest.int "lost" 0 (Sim.Net.lost link)

let test_net_loss_accounting () =
  let e = Sim.Engine.create ~seed:8L () in
  let delivered = ref 0 in
  let link =
    Sim.Net.create e ~loss:(Sim.Loss.bernoulli 0.5) ~delay_lo:0.0 ~delay_hi:1.0
      ~deliver:(fun () -> incr delivered)
      ()
  in
  for _ = 1 to 1000 do
    Sim.Net.send link ()
  done;
  Sim.Engine.run e;
  check Alcotest.int "conservation" 1000
    (Sim.Net.delivered link + Sim.Net.lost link);
  check Alcotest.int "delivered callback count" (Sim.Net.delivered link) !delivered;
  let rate = float_of_int (Sim.Net.lost link) /. 1000.0 in
  check Alcotest.bool "loss near 0.5" true (rate > 0.44 && rate < 0.56)

let test_net_down () =
  let e = Sim.Engine.create () in
  let delivered = ref 0 in
  let link =
    Sim.Net.create e ~delay_lo:0.0 ~delay_hi:0.0
      ~deliver:(fun () -> incr delivered)
      ()
  in
  Sim.Net.ctl_set_up (Sim.Net.ctl link) ~drop_inflight:false false;
  Sim.Net.send link ();
  Sim.Engine.run e;
  (* Down-link drops are accounted separately from stochastic loss. *)
  check Alcotest.int "dropped" 1 (Sim.Net.dropped link);
  check Alcotest.int "not counted as loss" 0 (Sim.Net.lost link);
  check Alcotest.int "nothing delivered" 0 !delivered

let test_net_partition_vs_loss_accounting () =
  let e = Sim.Engine.create ~seed:11L () in
  let link =
    Sim.Net.create e ~loss:(Sim.Loss.bernoulli 0.5) ~delay_lo:0.0 ~delay_hi:0.1
      ~deliver:ignore ()
  in
  for _ = 1 to 200 do
    Sim.Net.send link ()
  done;
  Sim.Net.ctl_set_up (Sim.Net.ctl link) ~drop_inflight:false false;
  for _ = 1 to 100 do
    Sim.Net.send link ()
  done;
  Sim.Engine.run e;
  check Alcotest.int "down sends all dropped" 100 (Sim.Net.dropped link);
  check Alcotest.int "loss only from the up phase" 200
    (Sim.Net.delivered link + Sim.Net.lost link);
  let rate = float_of_int (Sim.Net.lost link) /. 200.0 in
  check Alcotest.bool "loss rate unpolluted by the partition" true
    (rate > 0.38 && rate < 0.62)

let test_net_flush_inflight () =
  let e = Sim.Engine.create ~seed:3L () in
  let delivered = ref 0 in
  let drops = ref [] in
  let link =
    Sim.Net.create e
      ~on_drop:(fun kind () -> drops := kind :: !drops)
      ~delay_lo:1.0 ~delay_hi:1.0
      ~deliver:(fun () -> incr delivered)
      ()
  in
  Sim.Net.send link ();
  Sim.Net.send link ();
  (* down with a flush, then straight back up *)
  let c = Sim.Net.ctl link in
  Sim.Net.ctl_set_up c ~drop_inflight:true false;
  Sim.Net.ctl_set_up c ~drop_inflight:false true;
  Sim.Net.send link ();
  Sim.Engine.run e;
  check Alcotest.int "flushed" 2 (Sim.Net.dropped link);
  check Alcotest.int "later send unaffected" 1 !delivered;
  check Alcotest.bool "flushes reported as Down drops" true
    (!drops = [ Sim.Net.Down; Sim.Net.Down ])

let test_net_duplicate () =
  let e = Sim.Engine.create ~seed:5L () in
  let delivered = ref 0 in
  let link =
    Sim.Net.create e ~delay_lo:0.0 ~delay_hi:1.0
      ~deliver:(fun () -> incr delivered)
      ()
  in
  Sim.Net.ctl_duplicate (Sim.Net.ctl link) 1.0;
  for _ = 1 to 50 do
    Sim.Net.send link ()
  done;
  Sim.Engine.run e;
  check Alcotest.int "every message doubled" 100 !delivered;
  check Alcotest.int "duplicates counted" 50 (Sim.Net.duplicates link);
  check Alcotest.int "delivered counts copies" 100 (Sim.Net.delivered link)

let test_net_burst_window () =
  let e = Sim.Engine.create ~seed:6L () in
  let link =
    Sim.Net.create e ~delay_lo:0.0 ~delay_hi:0.1 ~deliver:ignore ()
  in
  let c = Sim.Net.ctl link in
  Sim.Net.ctl_burst c (Some 1.0);
  for _ = 1 to 30 do
    Sim.Net.send link ()
  done;
  Sim.Net.ctl_burst c None;
  for _ = 1 to 30 do
    Sim.Net.send link ()
  done;
  Sim.Engine.run e;
  check Alcotest.int "burst swallows everything, as loss" 30
    (Sim.Net.lost link);
  check Alcotest.int "after the window the link is clean" 30
    (Sim.Net.delivered link)

let test_net_jitter_is_late () =
  let e = Sim.Engine.create ~seed:7L () in
  let late_cb = ref 0 in
  let last_delivery = ref 0.0 in
  let link =
    Sim.Net.create e
      ~on_late:(fun () -> incr late_cb)
      ~delay_lo:1.0 ~delay_hi:1.0
      ~deliver:(fun () -> last_delivery := Sim.Engine.now e)
      ()
  in
  Sim.Net.ctl_jitter (Sim.Net.ctl link) 1.0;
  Sim.Net.send link ();
  Sim.Engine.run e;
  check Alcotest.int "late delivery flagged" 1 (Sim.Net.late link);
  check Alcotest.int "on_late called" 1 !late_cb;
  check Alcotest.bool "delay beyond the nominal bound" true
    (!last_delivery > 1.0 && !last_delivery <= 2.0)

let test_net_reorder_overtakes () =
  let e = Sim.Engine.create ~seed:9L () in
  let order = ref [] in
  let link =
    Sim.Net.create e ~delay_lo:0.4 ~delay_hi:0.5
      ~deliver:(fun i -> order := i :: !order)
      ()
  in
  (* First message held back past the window, second sent normally just
     after: the second must overtake the first. *)
  let c = Sim.Net.ctl link in
  Sim.Net.ctl_reorder c 1.0;
  Sim.Net.send link 1;
  Sim.Net.ctl_reorder c 0.0;
  ignore
    (Sim.Engine.schedule e ~delay:0.01 (fun () -> Sim.Net.send link 2));
  Sim.Engine.run e;
  check Alcotest.(list int) "second overtakes first" [ 1; 2 ] !order;
  check Alcotest.int "held message counted late" 1 (Sim.Net.late link)

let test_net_bad_args () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "bad delays" (Invalid_argument "Sim.Net.create: bad delay range")
    (fun () ->
      ignore (Sim.Net.create e ~delay_lo:2.0 ~delay_hi:1.0 ~deliver:ignore ()));
  Alcotest.check_raises "bad loss" (Invalid_argument "Sim.Loss: loss outside [0,1]")
    (fun () ->
      ignore
        (Sim.Net.create e ~loss:(Sim.Loss.bernoulli 1.5) ~delay_lo:0.0
           ~delay_hi:1.0 ~deliver:ignore ()))

let tests =
  ( "sim",
    [
      Alcotest.test_case "heap basics" `Quick test_heap_basic;
      Alcotest.test_case "heap empty cases" `Quick test_heap_empty;
      QCheck_alcotest.to_alcotest prop_heap_sorts;
      QCheck_alcotest.to_alcotest prop_heap_size;
      Alcotest.test_case "rng deterministic per seed" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
      Alcotest.test_case "rng bernoulli bias" `Quick test_rng_bool_bias;
      Alcotest.test_case "stats moments" `Quick test_stats_moments;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "loss model validation" `Quick test_loss_validate;
      Alcotest.test_case "loss expected rate" `Quick test_loss_expected;
      QCheck_alcotest.to_alcotest prop_loss_expected_matches_empirical;
      Alcotest.test_case "loss empirical rate" `Quick test_loss_empirical_rate;
      Alcotest.test_case "gilbert losses are bursty" `Quick test_loss_burstiness;
      Alcotest.test_case "engine executes in time order" `Quick test_engine_ordering;
      Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
      Alcotest.test_case "engine until" `Quick test_engine_until;
      Alcotest.test_case "engine nested scheduling" `Quick
        test_engine_nested_scheduling;
      Alcotest.test_case "engine argument errors" `Quick test_engine_errors;
      Alcotest.test_case "net delivers within window" `Quick
        test_net_delivers_in_window;
      Alcotest.test_case "net loss accounting" `Quick test_net_loss_accounting;
      Alcotest.test_case "net down drops silently" `Quick test_net_down;
      Alcotest.test_case "net partition drops are not loss" `Quick
        test_net_partition_vs_loss_accounting;
      Alcotest.test_case "net in-flight flush" `Quick test_net_flush_inflight;
      Alcotest.test_case "net duplication" `Quick test_net_duplicate;
      Alcotest.test_case "net burst-loss window" `Quick test_net_burst_window;
      Alcotest.test_case "net jitter flags late delivery" `Quick
        test_net_jitter_is_late;
      Alcotest.test_case "net reordering overtakes" `Quick
        test_net_reorder_overtakes;
      Alcotest.test_case "net argument errors" `Quick test_net_bad_args;
    ] )
