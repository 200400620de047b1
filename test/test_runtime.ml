(* Tests for the event-driven runtime and the quantitative experiments:
   determinism, steady-state behaviour, detection bounds and loss
   robustness orderings. *)

let check = Alcotest.check
module H = Heartbeat

let params = H.Params.make ~n:1 ~tmin:2 ~tmax:10 ()

let test_deterministic_per_seed () =
  let cfg =
    H.Runtime.config ~kind:H.Runtime.Halving ~loss:(Sim.Loss.bernoulli 0.1)
      ~seed:5L ~duration:500.0 params
  in
  let a = H.Runtime.run cfg and b = H.Runtime.run cfg in
  check Alcotest.int "same messages" a.H.Runtime.messages_sent
    b.H.Runtime.messages_sent;
  check Alcotest.bool "same verdict" a.H.Runtime.false_detection
    b.H.Runtime.false_detection

let test_quiet_run_stays_up () =
  List.iter
    (fun kind ->
      let cfg = H.Runtime.config ~kind ~seed:3L ~duration:1000.0 params in
      let r = H.Runtime.run cfg in
      check Alcotest.bool
        (H.Runtime.kind_name kind ^ " no detection")
        true
        (r.H.Runtime.p0_detected_at = None);
      check Alcotest.bool
        (H.Runtime.kind_name kind ^ " nobody inactivated")
        true
        (r.H.Runtime.pi_inactivated_at = []);
      check Alcotest.int
        (H.Runtime.kind_name kind ^ " no loss")
        0 r.H.Runtime.messages_lost)
    [ H.Runtime.Halving; H.Runtime.Two_phase; H.Runtime.Fixed_rate 2 ]

let test_steady_rate () =
  (* One beat each way per round of tmax: rate about 2 / tmax. *)
  let r = H.Experiments.steady_rate H.Runtime.Halving params in
  let expected = 2.0 /. 10.0 in
  check Alcotest.bool "rate ~ 2/tmax" true
    (abs_float (r.H.Experiments.msgs_per_time -. expected) < 0.01);
  (* Fixed-rate with k = 2 sends twice as often. *)
  let f = H.Experiments.steady_rate (H.Runtime.Fixed_rate 2) params in
  check Alcotest.bool "fixed-rate doubles" true
    (f.H.Experiments.msgs_per_time > 1.8 *. r.H.Experiments.msgs_per_time)

let test_crash_detected_within_bound () =
  List.iter
    (fun kind ->
      let d = H.Experiments.detection ~runs:60 ~seed:17L kind params in
      check Alcotest.int
        (H.Runtime.kind_name kind ^ " all detected")
        d.H.Experiments.runs d.H.Experiments.detected;
      (* The analytic bound counts from the last received beat; measuring
         from the crash instant can add up to one in-flight round trip. *)
      let slack = float_of_int params.H.Params.tmin in
      check Alcotest.bool
        (Printf.sprintf "%s max %.2f within bound %.2f + slack"
           (H.Runtime.kind_name kind) d.H.Experiments.max_delay
           d.H.Experiments.analytic_bound)
        true
        (d.H.Experiments.max_delay
        <= d.H.Experiments.analytic_bound +. slack))
    [ H.Runtime.Halving; H.Runtime.Two_phase; H.Runtime.Fixed_rate 2 ]

let test_p0_crash_inactivates_participants () =
  let cfg =
    H.Runtime.config ~kind:H.Runtime.Halving
      ~faults:[ Sim.Fault.crash ~at:55.0 0 ]
      ~seed:9L ~duration:300.0
      (H.Params.make ~n:3 ~tmin:2 ~tmax:10 ())
  in
  let r = H.Runtime.run cfg in
  check Alcotest.int "all three inactivated" 3
    (List.length r.H.Runtime.pi_inactivated_at);
  List.iter
    (fun (_, at) ->
      (* within 3*tmax - tmin = 28 of the crash (plus in-flight slack) *)
      check Alcotest.bool "within the participant bound" true
        (at -. 55.0 <= 28.0 +. 2.0))
    r.H.Runtime.pi_inactivated_at

let test_fixed_bounds_shrink_reaction () =
  let faults = [ Sim.Fault.crash ~at:55.0 0 ] in
  let run fixed_bounds =
    let cfg =
      H.Runtime.config ~kind:H.Runtime.Halving ~faults ~fixed_bounds ~seed:9L
        ~duration:300.0 params
    in
    match (H.Runtime.run cfg).H.Runtime.pi_inactivated_at with
    | [ (_, at) ] -> at
    | _ -> Alcotest.fail "expected exactly one inactivation"
  in
  check Alcotest.bool "2*tmax reacts faster than 3*tmax - tmin" true
    (run true < run false)

let test_loss_robustness_ordering () =
  (* At a moderate loss rate: halving is the most robust, fixed-rate the
     least. *)
  let at kind =
    (H.Experiments.reliability ~runs:150 ~duration:1500.0 ~seed:23L kind params
       ~loss:0.05)
      .H.Experiments.false_detections
  in
  let h = at H.Runtime.Halving
  and t = at H.Runtime.Two_phase
  and f = at (H.Runtime.Fixed_rate 2) in
  check Alcotest.bool
    (Printf.sprintf "halving (%d) <= two-phase (%d)" h t)
    true (h <= t);
  check Alcotest.bool
    (Printf.sprintf "two-phase (%d) <= fixed-rate (%d)" t f)
    true (t <= f);
  check Alcotest.bool "ordering is strict somewhere" true (h < f)

let test_zero_loss_no_false_detection () =
  List.iter
    (fun kind ->
      let row =
        H.Experiments.reliability ~runs:20 ~duration:1000.0 kind params
          ~loss:0.0
      in
      check Alcotest.int
        (H.Runtime.kind_name kind ^ " clean")
        0 row.H.Experiments.false_detections)
    [ H.Runtime.Halving; H.Runtime.Two_phase; H.Runtime.Fixed_rate 3 ]

let test_detection_delay_accessor () =
  let cfg =
    H.Runtime.config ~kind:H.Runtime.Halving
      ~faults:[ Sim.Fault.crash ~at:50.0 1 ]
      ~seed:2L ~duration:300.0 params
  in
  let r = H.Runtime.run cfg in
  (match H.Runtime.detection_delay cfg r with
  | Some d -> check Alcotest.bool "positive delay" true (d > 0.0)
  | None -> Alcotest.fail "crash not detected");
  (* No crash configured: no delay to report. *)
  let quiet = H.Runtime.config ~kind:H.Runtime.Halving ~seed:2L ~duration:100.0 params in
  check Alcotest.bool "no crash, no delay" true
    (H.Runtime.detection_delay quiet (H.Runtime.run quiet) = None)

let test_bursty_loss_hurts_halving () =
  (* At equal average loss, bursty (Gilbert) loss produces far more false
     detections for the halving discipline than independent loss — the
     acceleration's robustness argument needs independence. *)
  let bursty = Sim.Loss.gilbert ~p_gb:0.01 ~p_bg:0.19 () in
  let avg = Sim.Loss.expected_loss bursty in
  let b =
    H.Experiments.reliability_model ~runs:120 ~duration:1500.0 ~seed:31L
      H.Runtime.Halving params ~model:bursty
  in
  let u =
    H.Experiments.reliability ~runs:120 ~duration:1500.0 ~seed:31L
      H.Runtime.Halving params ~loss:avg
  in
  check Alcotest.bool
    (Printf.sprintf "bursty (%d) > 2x uniform (%d)"
       b.H.Experiments.false_detections u.H.Experiments.false_detections)
    true
    (b.H.Experiments.false_detections
    > 2 * u.H.Experiments.false_detections)

let test_join_latency_bound () =
  let p = H.Params.make ~tmin:5 ~tmax:10 () in
  let row = H.Experiments.join_latency ~runs:300 p in
  check Alcotest.int "all joined" row.H.Experiments.j_runs
    row.H.Experiments.joined;
  check Alcotest.bool
    (Printf.sprintf "max %.2f within the corrected bound %.2f"
       row.H.Experiments.max_latency row.H.Experiments.join_bound)
    true
    (row.H.Experiments.max_latency <= row.H.Experiments.join_bound);
  (* and the bound is not wildly loose: the worst case gets close *)
  check Alcotest.bool "bound is approached" true
    (row.H.Experiments.max_latency > 0.7 *. row.H.Experiments.join_bound)

let test_config_validation () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Heartbeat.Runtime: Fixed_rate needs k >= 1") (fun () ->
      ignore
        (H.Runtime.config ~kind:(H.Runtime.Fixed_rate 0) ~duration:1.0 params))

let tests =
  ( "runtime",
    [
      Alcotest.test_case "deterministic per seed" `Quick test_deterministic_per_seed;
      Alcotest.test_case "quiet run stays up" `Quick test_quiet_run_stays_up;
      Alcotest.test_case "steady-state rate" `Quick test_steady_rate;
      Alcotest.test_case "crash detected within analytic bound" `Slow
        test_crash_detected_within_bound;
      Alcotest.test_case "p0 crash takes the group down" `Quick
        test_p0_crash_inactivates_participants;
      Alcotest.test_case "corrected bounds react faster" `Quick
        test_fixed_bounds_shrink_reaction;
      Alcotest.test_case "loss robustness ordering" `Slow
        test_loss_robustness_ordering;
      Alcotest.test_case "no loss, no false detection" `Quick
        test_zero_loss_no_false_detection;
      Alcotest.test_case "detection delay accessor" `Quick
        test_detection_delay_accessor;
      Alcotest.test_case "bursty loss hurts halving" `Slow
        test_bursty_loss_hurts_halving;
      Alcotest.test_case "join latency within corrected bound" `Quick
        test_join_latency_bound;
      Alcotest.test_case "config validation" `Quick test_config_validation;
    ] )
