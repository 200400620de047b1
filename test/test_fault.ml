(* Tests for the adversarial fault-injection subsystem: Sim.Fault
   schedules, the requirement monitors, and the campaign driver. *)

let check = Alcotest.check

module F = Sim.Fault
module H = Heartbeat

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- schedule validation and rendering --- *)

let test_validate () =
  F.validate
    [ F.crash ~at:1.0 0; F.partition ~at:2.0 ~duration:3.0 [ 1 ] ];
  let rejects what sched =
    match F.validate sched with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "negative time" [ F.crash ~at:(-1.0) 0 ];
  rejects "empty partition" [ F.partition ~at:0.0 ~duration:1.0 [] ];
  rejects "bad probability" [ F.burst ~at:0.0 ~duration:1.0 1.5 ];
  rejects "negative jitter" [ F.jitter ~at:0.0 ~duration:1.0 (-0.1) ];
  rejects "non-positive window"
    [ F.reorder ~at:0.0 ~duration:0.0 0.5 ]

let test_schedule_json () =
  let sched =
    [
      F.crash ~at:2.5 1;
      F.recover ~at:4.0 1;
      F.partition ~at:5.0 ~drop_inflight:true ~duration:2.0 [ 1; 2 ];
      F.burst ~at:8.0 ~duration:1.5 0.75;
    ]
  in
  check Alcotest.string "byte-identical for equal schedules" (F.to_json sched)
    (F.to_json sched);
  let json = F.to_json sched in
  List.iter
    (fun fragment ->
      check Alcotest.bool
        (Printf.sprintf "contains %s" fragment)
        true (contains json fragment))
    [ "\"crash\""; "\"recover\""; "\"partition\""; "\"burst\""; "2.5" ]

(* --- injection hooks on a toy harness --- *)

let test_apply_partition () =
  let e = Sim.Engine.create () in
  let got = ref [] in
  let mk src dst =
    Sim.Net.create e ~delay_lo:0.0 ~delay_hi:0.0
      ~deliver:(fun () -> got := (src, dst, Sim.Engine.now e) :: !got)
      ()
  in
  let l01 = mk 0 1 and l10 = mk 1 0 and l02 = mk 0 2 in
  let link ~src ~dst =
    match (src, dst) with
    | 0, 1 -> Some (Sim.Net.ctl l01)
    | 1, 0 -> Some (Sim.Net.ctl l10)
    | 0, 2 -> Some (Sim.Net.ctl l02)
    | _ -> None
  in
  let log = ref [] in
  F.apply e ~nodes:[ 0; 1; 2 ] ~link
    ~on_crash:(fun _ -> ())
    ~on_recover:(fun _ -> ())
    ~on_apply:(fun at a -> log := (at, a) :: !log)
    [ F.partition ~at:1.0 ~duration:2.0 [ 1 ] ];
  (* Probe each link before, during and after the window. *)
  let probe at =
    ignore
      (Sim.Engine.at e ~time:at (fun () ->
           Sim.Net.send l01 ();
           Sim.Net.send l10 ();
           Sim.Net.send l02 ()))
  in
  probe 0.5;
  probe 2.0;
  probe 3.5;
  Sim.Engine.run e;
  let deliveries = List.rev !got in
  let at time = List.filter (fun (_, _, t) -> t = time) deliveries in
  check Alcotest.int "all links up before" 3 (List.length (at 0.5));
  (* During the partition only the 0<->2 link survives: both directions
     between the isolated node and the rest are cut. *)
  check
    Alcotest.(list (triple int int (float 0.0)))
    "only 0->2 during" [ (0, 2, 2.0) ] (at 2.0);
  check Alcotest.int "healed after" 3 (List.length (at 3.5));
  check Alcotest.int "partition drops counted as dropped" 2
    (Sim.Net.dropped l01 + Sim.Net.dropped l10);
  check Alcotest.int "partition drops are not loss" 0
    (Sim.Net.lost l01 + Sim.Net.lost l10);
  check Alcotest.int "on_apply saw the window start" 1 (List.length !log)

let test_apply_crash_recover () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  F.apply e ~nodes:[ 0; 1 ]
    ~link:(fun ~src:_ ~dst:_ -> None)
    ~on_crash:(fun who -> log := `Crash (who, Sim.Engine.now e) :: !log)
    ~on_recover:(fun who -> log := `Recover (who, Sim.Engine.now e) :: !log)
    [ F.crash ~at:1.0 1; F.recover ~at:2.0 1; F.crash ~at:3.0 0 ];
  Sim.Engine.run e;
  check Alcotest.bool "callbacks in schedule order" true
    (List.rev !log
    = [ `Crash (1, 1.0); `Recover (1, 2.0); `Crash (0, 3.0) ]);
  match
    F.apply e ~nodes:[ 0 ]
      ~link:(fun ~src:_ ~dst:_ -> None)
      ~on_crash:ignore ~on_recover:ignore
      [ F.crash ~at:1.0 7 ]
  with
  | () -> Alcotest.fail "crash of unknown node accepted"
  | exception Invalid_argument _ -> ()

(* --- runtime under fault schedules --- *)

let params ~tmin ~tmax = H.Params.make ~tmin ~tmax ()

let test_runtime_schedule_logs_crash () =
  (* A scheduled crash fires at its instant and lands in the fault log. *)
  let p = params ~tmin:2 ~tmax:10 in
  let scheduled =
    H.Runtime.run
      (H.Runtime.config ~faults:[ F.crash ~at:23.0 1 ] ~seed:5L
         ~duration:100.0 p)
  in
  check Alcotest.bool "fault log records the crash" true
    (scheduled.H.Runtime.fault_log = [ (23.0, F.Crash 1) ])

let test_runtime_crash_recover () =
  (* Crash-then-recover inside one round: at a T point the coordinator
     must ride it out without detecting. *)
  let p = params ~tmin:9 ~tmax:10 in
  let r =
    H.Runtime.run
      (H.Runtime.config
         ~faults:[ F.crash ~at:26.0 1; F.recover ~at:27.0 1 ]
         ~seed:3L ~duration:200.0 p)
  in
  check Alcotest.bool "no detection" true (r.H.Runtime.p0_detected_at = None);
  check Alcotest.int "both fault events logged" 2
    (List.length r.H.Runtime.fault_log)

let test_runtime_coordinator_crash () =
  let p = params ~tmin:2 ~tmax:10 in
  let r =
    H.Runtime.run
      (H.Runtime.config ~faults:[ F.crash ~at:25.0 0 ] ~seed:4L
         ~duration:200.0 p)
  in
  check Alcotest.bool "a dead coordinator detects nothing" true
    (r.H.Runtime.p0_detected_at = None);
  check Alcotest.int "the orphaned participant inactivates" 1
    (List.length r.H.Runtime.pi_inactivated_at);
  check Alcotest.bool "not a false detection" true
    (not r.H.Runtime.false_detection)

(* --- monitors --- *)

(* Each clause is unit-tested in isolation: the synthetic traces below
   are too bare to satisfy the other requirements (no heartbeats at all
   trips R1's watchdogs, an unexcused detection trips R3, ...). *)
let mon ?(reqs = H.Requirements.all) ?(grace = 0.0) ?(r1_bound = 20.0)
    ?(pi_bound = 28.0) () =
  H.Monitors.create ~grace ~n:1 ~r1_bound ~pi_bound reqs

let is_fail req m =
  match H.Monitors.verdict m with
  | H.Monitors.Fail v -> v.H.Monitors.req = req
  | H.Monitors.Pass -> false

let test_monitor_r1_watchdog () =
  let m = mon () in
  H.Monitors.feed m (H.Monitors.Deliver { src = 1; dst = 0; at = 10.0 });
  (* Silence past the bound with p[0] still active. *)
  H.Monitors.feed m (H.Monitors.Send { src = 0; dst = 1; at = 31.0 });
  check Alcotest.bool "R1 latched" true (is_fail H.Requirements.R1 m);
  match H.Monitors.verdict m with
  | H.Monitors.Fail v ->
      check (Alcotest.float 1e-9) "violation at the expired deadline" 30.0
        v.H.Monitors.at
  | H.Monitors.Pass -> Alcotest.fail "expected failure"

let test_monitor_r1_excuses_detection () =
  let m = mon ~reqs:[ H.Requirements.R1 ] () in
  H.Monitors.feed m (H.Monitors.Deliver { src = 0; dst = 1; at = 9.0 });
  H.Monitors.feed m (H.Monitors.Deliver { src = 1; dst = 0; at = 10.0 });
  H.Monitors.feed m (H.Monitors.Detect { at = 29.0 });
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 33.0 });
  H.Monitors.finish m ~now:100.0;
  check Alcotest.bool "detection before the bound satisfies R1" true
    (H.Monitors.verdict m = H.Monitors.Pass)

let test_monitor_r2 () =
  let m = mon ~reqs:[ H.Requirements.R2 ] () in
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 29.0 });
  H.Monitors.finish m ~now:100.0;
  check Alcotest.bool "unexcused inactivation refutes R2" true
    (is_fail H.Requirements.R2 m);
  (* Same trace with a loss touching the participant: excused. *)
  let m = mon ~reqs:[ H.Requirements.R2 ] () in
  H.Monitors.feed m
    (H.Monitors.Drop
       { src = 0; dst = 1; at = 5.0; kind = Sim.Net.Stochastic });
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 29.0 });
  H.Monitors.finish m ~now:100.0;
  check Alcotest.bool "loss excuses the inactivation" true
    (H.Monitors.verdict m = H.Monitors.Pass)

let test_monitor_r2_grace () =
  (* The excusing late delivery lands after the inactivation: within the
     grace window it still clears the pending violation... *)
  let m = mon ~reqs:[ H.Requirements.R2 ] ~grace:5.0 () in
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 29.0 });
  H.Monitors.feed m (H.Monitors.Late { src = 0; dst = 1; at = 31.0 });
  H.Monitors.finish m ~now:100.0;
  check Alcotest.bool "late delivery within grace excuses" true
    (H.Monitors.verdict m = H.Monitors.Pass);
  (* ...but an excuse arriving past the grace window comes too late. *)
  let m = mon ~reqs:[ H.Requirements.R2 ] ~grace:5.0 () in
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 29.0 });
  H.Monitors.feed m (H.Monitors.Late { src = 0; dst = 1; at = 40.0 });
  check Alcotest.bool "stale excuse does not clear the violation" true
    (is_fail H.Requirements.R2 m)

let test_monitor_r3_and_quiescence () =
  let m = mon ~reqs:[ H.Requirements.R3 ] () in
  H.Monitors.feed m (H.Monitors.Detect { at = 15.0 });
  H.Monitors.finish m ~now:100.0;
  check Alcotest.bool "spontaneous self-inactivation refutes R3" true
    (is_fail H.Requirements.R3 m);
  let m = mon ~reqs:[ H.Requirements.R3 ] () in
  H.Monitors.feed m (H.Monitors.Crash { node = 1; at = 10.0 });
  H.Monitors.feed m (H.Monitors.Detect { at = 30.0 });
  (* Quiescence: traffic long after p[0] went down refutes R3 even
     though the detection itself was excused. *)
  H.Monitors.feed m (H.Monitors.Send { src = 0; dst = 1; at = 99.0 });
  check Alcotest.bool "system must quiesce after inactivation" true
    (is_fail H.Requirements.R3 m)

let test_monitor_render () =
  let m = mon ~reqs:[ H.Requirements.R2 ] () in
  H.Monitors.feed m (H.Monitors.Send { src = 0; dst = 1; at = 10.0 });
  H.Monitors.feed m (H.Monitors.Inactivate { node = 1; at = 29.0 });
  H.Monitors.finish m ~now:100.0;
  match H.Monitors.verdict m with
  | H.Monitors.Fail v ->
      let msc = H.Monitors.render_prefix ~n:1 v in
      List.iter
        (fun fragment ->
          check Alcotest.bool
            (Printf.sprintf "chart mentions %s" fragment)
            true (contains msc fragment))
        [ "p[0]"; "p[1]"; "send -> p[1]"; "inactivate"; "R2 violated" ]
  | H.Monitors.Pass -> Alcotest.fail "expected a violation to render"

(* --- campaign --- *)

(* The default campaign runs in about 0.01 s, so each test below sweeps
   all of it and picks its points out. *)

let test_campaign_reproduces_f_point () =
  let bad =
    List.filter
      (fun (o : H.Campaign.outcome) ->
        o.point.kind = H.Runtime.Halving
        && o.point.params.H.Params.tmin = 4
        && o.point.params.H.Params.tmax = 10)
      (H.Campaign.violations (H.Campaign.run ()))
  in
  check Alcotest.bool "halving at (4,10) is refuted" true (bad <> []);
  List.iter
    (fun (o : H.Campaign.outcome) ->
      (match o.verdict with
      | H.Monitors.Fail v ->
          check Alcotest.bool "violations are R1 against the claimed bound"
            true
            (v.H.Monitors.req = H.Requirements.R1)
      | H.Monitors.Pass -> ());
      match o.shrunk with
      | Some s ->
          check Alcotest.bool "shrunk schedule is minimal and still fails"
            true
            (List.length s <= List.length o.point.faults
            && (match H.Campaign.run_point { o.point with faults = s } with
               | H.Monitors.Fail _, _ -> true
               | H.Monitors.Pass, _ -> false))
      | None -> ())
    bad

let test_campaign_fixed_passes () =
  let c = H.Campaign.run ~fixed:true () in
  check Alcotest.int "fixed variants survive the adversary" 0
    (List.length (H.Campaign.violations c))

let test_campaign_json_deterministic () =
  let run () =
    H.Campaign.to_json (H.Campaign.run ~seed:11L ())
  in
  let a = run () and b = run () in
  check Alcotest.string "byte-identical reports" a b;
  check Alcotest.bool "report carries verdicts" true
    (contains a "\"verdict\"")

let test_campaign_bounds () =
  let p110 = params ~tmin:1 ~tmax:10 in
  (* Float halving: 20 + 5 + 2.5 + 1.25; the integer bound says 28. *)
  check (Alcotest.float 1e-9) "halving exact bound at (1,10)" 28.75
    (H.Campaign.exact_r1_bound H.Runtime.Halving p110);
  check (Alcotest.float 1e-9) "two-phase bound" 21.0
    (H.Campaign.exact_r1_bound H.Runtime.Two_phase p110);
  check (Alcotest.float 1e-9) "fixed-rate bound" 15.0
    (H.Campaign.exact_r1_bound (H.Runtime.Fixed_rate 2) p110);
  check (Alcotest.float 1e-9) "claimed bound" 20.0
    (H.Campaign.claimed_r1_bound p110)

let tests =
  ( "fault-injection",
    [
      Alcotest.test_case "schedule validation" `Quick test_validate;
      Alcotest.test_case "schedule json deterministic" `Quick
        test_schedule_json;
      Alcotest.test_case "partition cuts and heals links" `Quick
        test_apply_partition;
      Alcotest.test_case "crash/recover callbacks" `Quick
        test_apply_crash_recover;
      Alcotest.test_case "schedule logs the crash" `Quick
        test_runtime_schedule_logs_crash;
      Alcotest.test_case "crash-then-recover rides out" `Quick
        test_runtime_crash_recover;
      Alcotest.test_case "coordinator crash" `Quick
        test_runtime_coordinator_crash;
      Alcotest.test_case "monitor R1 watchdog" `Quick test_monitor_r1_watchdog;
      Alcotest.test_case "monitor R1 pass on detection" `Quick
        test_monitor_r1_excuses_detection;
      Alcotest.test_case "monitor R2" `Quick test_monitor_r2;
      Alcotest.test_case "monitor R2 grace window" `Quick
        test_monitor_r2_grace;
      Alcotest.test_case "monitor R3 and quiescence" `Quick
        test_monitor_r3_and_quiescence;
      Alcotest.test_case "monitor MSC rendering" `Quick test_monitor_render;
      Alcotest.test_case "campaign refutes unfixed halving" `Quick
        test_campaign_reproduces_f_point;
      Alcotest.test_case "campaign passes fixed variants" `Quick
        test_campaign_fixed_passes;
      Alcotest.test_case "campaign json deterministic" `Quick
        test_campaign_json_deterministic;
      Alcotest.test_case "campaign analytic bounds" `Quick
        test_campaign_bounds;
    ] )
