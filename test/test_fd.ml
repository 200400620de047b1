(* Tests for the failure-detector layer: estimators, detector semantics
   (completeness / accuracy), and the QoS trade-off. *)

let check = Alcotest.check

(* --- estimators --- *)

let test_estimator_validate () =
  Fd.Estimator.validate (Fd.Estimator.Fixed { margin = 1.0 });
  Alcotest.check_raises "margin"
    (Invalid_argument "Fd.Estimator: margin must be positive") (fun () ->
      Fd.Estimator.validate (Fd.Estimator.Fixed { margin = 0.0 }));
  Alcotest.check_raises "alpha"
    (Invalid_argument "Fd.Estimator: alpha outside (0,1]") (fun () ->
      Fd.Estimator.validate (Fd.Estimator.Ewma { alpha = 1.5; margin = 1.0 }))

let test_estimator_fixed () =
  let est = Fd.Estimator.Fixed { margin = 2.0 } in
  let st = Fd.Estimator.start est ~period:10.0 in
  check (Alcotest.float 1e-9) "initial deadline" 12.0
    (Fd.Estimator.deadline est st);
  Fd.Estimator.observe est st ~now:9.0;
  check (Alcotest.float 1e-9) "after arrival" 21.0 (Fd.Estimator.deadline est st)

let test_estimator_window_max () =
  let est = Fd.Estimator.Window_max { window = 3; margin = 1.0 } in
  let st = Fd.Estimator.start est ~period:10.0 in
  (* intervals 10, 14, 9: the window max (14) drives the deadline *)
  Fd.Estimator.observe est st ~now:10.0;
  Fd.Estimator.observe est st ~now:24.0;
  Fd.Estimator.observe est st ~now:33.0;
  check (Alcotest.float 1e-9) "adapts to worst gap" (33.0 +. 14.0 +. 1.0)
    (Fd.Estimator.deadline est st);
  (* the 14 falls out of the window after three more arrivals *)
  Fd.Estimator.observe est st ~now:43.0;
  Fd.Estimator.observe est st ~now:53.0;
  Fd.Estimator.observe est st ~now:63.0;
  check (Alcotest.float 1e-9) "window forgets" (63.0 +. 10.0 +. 1.0)
    (Fd.Estimator.deadline est st)

let test_estimator_ewma () =
  let est = Fd.Estimator.Ewma { alpha = 0.5; margin = 1.0 } in
  let st = Fd.Estimator.start est ~period:10.0 in
  Fd.Estimator.observe est st ~now:14.0;
  (* ewma = 0.5*14 + 0.5*10 = 12 *)
  check (Alcotest.float 1e-9) "smoothed" (14.0 +. 12.0 +. 1.0)
    (Fd.Estimator.deadline est st)

(* --- detector semantics --- *)

let quiet_cfg ?(probes = 0) ?(loss = 0.0) ?crash ?(seed = 3L) () =
  Fd.Detector.config ~probes ~loss:(Sim.Loss.bernoulli loss) ?crash ~seed
    ~duration:500.0 ()

let test_no_mistakes_without_loss () =
  List.iter
    (fun probes ->
      let result = Fd.Detector.run (quiet_cfg ~probes ()) in
      check Alcotest.int
        (Printf.sprintf "clean run, probes=%d" probes)
        0
        (List.length result.Fd.Detector.events))
    [ 0; 3 ]

let test_completeness () =
  (* strong completeness: a crashed process is eventually suspected and
     never trusted again — with and without probing, even under loss *)
  List.iter
    (fun (probes, loss) ->
      let cfg = quiet_cfg ~probes ~loss ~crash:(1, 100.0) () in
      let result = Fd.Detector.run cfg in
      match Fd.Detector.suspected_forever result ~who:1 ~after:100.0 with
      | Some at ->
          check Alcotest.bool
            (Printf.sprintf "detected reasonably fast (%.1f)" (at -. 100.0))
            true
            (at -. 100.0 < 60.0)
      | None -> Alcotest.fail "crash never permanently suspected")
    [ (0, 0.0); (3, 0.0); (0, 0.1); (3, 0.1) ]

let test_mistake_then_trust () =
  (* with loss and no probes, a lost heartbeat produces a suspicion that
     the next heartbeat revokes *)
  let metrics = Fd.Qos.measure (quiet_cfg ~loss:0.2 ~seed:9L ()) in
  check Alcotest.bool "some mistakes" true (metrics.Fd.Qos.mistakes > 0);
  check Alcotest.bool "availability below 1" true
    (metrics.Fd.Qos.availability < 1.0);
  check Alcotest.bool "availability sane" true
    (metrics.Fd.Qos.availability > 0.5);
  check Alcotest.bool "mistakes are short" true
    (metrics.Fd.Qos.mean_mistake_duration < 30.0)

let test_probing_reduces_mistakes () =
  let at probes =
    (Fd.Qos.measure (quiet_cfg ~probes ~loss:0.1 ~seed:21L ())).Fd.Qos.mistakes
  in
  let plain = at 0 and probed = at 3 in
  check Alcotest.bool
    (Printf.sprintf "probed (%d) < plain (%d)" probed plain)
    true (probed < plain)

let test_probing_costs_detection_time () =
  let detect probes =
    let cfg = quiet_cfg ~probes ~crash:(1, 100.0) () in
    match (Fd.Qos.measure cfg).Fd.Qos.detection_time with
    | Some d -> d
    | None -> Alcotest.fail "not detected"
  in
  check Alcotest.bool "probing is slower to condemn" true
    (detect 3 > detect 0)

let test_deterministic () =
  let cfg = quiet_cfg ~loss:0.1 ~seed:4L () in
  let a = Fd.Detector.run cfg and b = Fd.Detector.run cfg in
  check Alcotest.int "same events" (List.length a.Fd.Detector.events)
    (List.length b.Fd.Detector.events);
  check Alcotest.int "same messages" a.Fd.Detector.messages
    b.Fd.Detector.messages

let test_config_validation () =
  Alcotest.check_raises "probes"
    (Invalid_argument "Fd.Detector: probes must be >= 0") (fun () ->
      ignore (Fd.Detector.config ~probes:(-1) ~duration:1.0 ()));
  (* process 2 is not monitored: its crash would index past every table *)
  Alcotest.check_raises "crash"
    (Invalid_argument "Fd.Detector: crash must name process 1 at a time >= 0")
    (fun () -> ignore (Fd.Detector.config ~crash:(2, 10.0) ~duration:1.0 ()))

let test_tradeoff_monotone () =
  (* more margin: slower detection; availability weakly improves *)
  let rows = Fd.Qos.margin_sweep ~runs:15 ~margins:[ 0.5; 4.0 ] () in
  match rows with
  | [ small; large ] ->
      check Alcotest.bool "detection grows with margin" true
        (large.Fd.Qos.mean_detection > small.Fd.Qos.mean_detection);
      check Alcotest.bool "mistake rate does not grow" true
        (large.Fd.Qos.t_mistake_rate <= small.Fd.Qos.t_mistake_rate +. 1e-6)
  | _ -> Alcotest.fail "expected two rows"

let tests =
  ( "fd",
    [
      Alcotest.test_case "estimator validation" `Quick test_estimator_validate;
      Alcotest.test_case "fixed estimator" `Quick test_estimator_fixed;
      Alcotest.test_case "window-max estimator" `Quick test_estimator_window_max;
      Alcotest.test_case "ewma estimator" `Quick test_estimator_ewma;
      Alcotest.test_case "no mistakes without loss" `Quick
        test_no_mistakes_without_loss;
      Alcotest.test_case "strong completeness" `Quick test_completeness;
      Alcotest.test_case "mistakes are revoked" `Quick test_mistake_then_trust;
      Alcotest.test_case "probing reduces mistakes" `Quick
        test_probing_reduces_mistakes;
      Alcotest.test_case "probing costs detection time" `Quick
        test_probing_costs_detection_time;
      Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "margin trade-off" `Slow test_tradeoff_monotone;
    ] )
