(* Failure detectors on top of heartbeats — the analysis paper's stated
   follow-up work.

   A monitor watches a process through periodic heartbeats over a lossy,
   jittery network.  Quality of service is the classic three-way tension
   (Chen, Toueg & Aguilera): detect real crashes fast, suspect live
   processes rarely, and recover from mistakes quickly.

   This example compares three designs:
   - a fixed-margin deadline,
   - an adaptive (window-max) deadline that learns the real jitter,
   - the ICDCS'98 acceleration idea as a detector: on a missed deadline,
     fire a burst of quick probes and condemn only if all fail.

   Run with: dune exec examples/adaptive_detector.exe *)

let describe name estimator probes =
  let crash_at = 120.0 in
  let loss = Sim.Loss.bernoulli 0.08 in
  let detect =
    let cfg =
      Fd.Detector.config ~estimator ~probes ~loss ~crash:(1, crash_at)
        ~seed:77L ~duration:400.0 ()
    in
    (Fd.Qos.measure cfg).Fd.Qos.detection_time
  in
  let quiet =
    let cfg =
      Fd.Detector.config ~estimator ~probes ~loss ~seed:78L
        ~duration:3_000.0 ()
    in
    Fd.Qos.measure cfg
  in
  Format.printf "  %-24s detection %s   mistakes %3d in 3000tu   availability %.4f@."
    name
    (match detect with
    | Some d -> Printf.sprintf "%6.2f" d
    | None -> "  (missed!)")
    quiet.Fd.Qos.mistakes quiet.Fd.Qos.availability

let () =
  Format.printf
    "Monitoring a process (heartbeat period 10, 8%% loss, jittery delays):@.@.";
  describe "fixed margin 2" (Fd.Estimator.Fixed { margin = 2.0 }) 0;
  describe "window-max margin 1" (Fd.Estimator.Window_max { window = 10; margin = 1.0 }) 0;
  describe "ewma margin 1" (Fd.Estimator.Ewma { alpha = 0.2; margin = 1.0 }) 0;
  describe "fixed + 3 probes" (Fd.Estimator.Fixed { margin = 2.0 }) 3;
  Format.printf
    "@.The probe burst is the accelerated-heartbeat idea transplanted: a@.\
     missed deadline triggers cheap confirmation rounds instead of an@.\
     immediate verdict.  The QoS trade-off curve:@.@.";
  List.iter
    (fun r -> Format.printf "  %a@." Fd.Qos.pp_tradeoff r)
    (Fd.Qos.margin_sweep ~runs:30 ~margins:[ 1.0; 2.0; 4.0 ] ());
  List.iter
    (fun r -> Format.printf "  %a@." Fd.Qos.pp_tradeoff r)
    (Fd.Qos.margin_sweep ~runs:30 ~margins:[ 1.0; 2.0; 4.0 ] ~probes:3 ())
