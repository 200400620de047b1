(* Failure detection for a small service fleet.

   The scenario the ICDCS'98 paper motivates the protocols with: a
   coordinator supervises worker processes with heartbeats and must take
   the whole group down quickly when anything dies, while keeping the
   steady-state network load low.

   This example runs the event-driven simulation: three workers under the
   accelerated (halving) discipline and under a fixed-rate baseline with
   the same worst-case detection delay, with a worker crash injected —
   then compares message cost and reaction time.

   Run with: dune exec examples/failure_detector.exe *)

module H = Heartbeat

let describe kind params =
  let cfg =
    H.Runtime.config ~kind
      ~faults:[ Sim.Fault.crash ~at:137.0 1 ]
      ~seed:2024L ~duration:400.0 params
  in
  let result = H.Runtime.run cfg in
  Format.printf "%-14s: %4d heartbeats in 400 time units"
    (H.Runtime.kind_name kind)
    result.H.Runtime.messages_sent;
  (match H.Runtime.detection_delay cfg result with
  | Some d -> Format.printf ", worker crash at t=137 detected after %.1f" d
  | None -> Format.printf ", crash NOT detected");
  (match result.H.Runtime.pi_inactivated_at with
  | [] -> ()
  | l ->
      Format.printf "; workers shut down:";
      List.iter (fun (i, at) -> Format.printf " p%d@%.1f" i at) l);
  Format.printf "@."

let () =
  let params = H.Params.make ~n:3 ~tmin:2 ~tmax:10 () in
  Format.printf
    "Supervising 3 workers, %a (accelerated worst-case detection = %d):@.@."
    H.Params.pp params
    (H.Bounds.p0_detection_exhaustive params);
  List.iter
    (fun kind -> describe kind params)
    [ H.Runtime.Halving; H.Runtime.Two_phase; H.Runtime.Fixed_rate 2 ];
  Format.printf
    "@.The accelerated disciplines idle at one beat per tmax and only \
     speed@.up on suspicion; the fixed-rate baseline pays double the \
     steady-state@.traffic for comparable reaction time.@.";
  (* Under lossy networking the acceleration also buys robustness: a
     false group shutdown needs log2(tmax/tmin) consecutive losses. *)
  Format.printf "@.Loss robustness (false group shutdowns in 200 runs):@.";
  List.iter
    (fun kind ->
      let row =
        H.Experiments.reliability ~runs:200 ~duration:1000.0 kind params
          ~loss:0.05
      in
      Format.printf "  %a@." H.Experiments.pp_reliability row)
    [ H.Runtime.Halving; H.Runtime.Two_phase; H.Runtime.Fixed_rate 2 ]
