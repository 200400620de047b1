(* hbsim: quantitative simulation of the heartbeat protocols — message
   overhead, detection delay, and loss robustness. *)

open Cmdliner
module H = Heartbeat

let tmin_arg = Arg.(value & opt int 2 & info [ "tmin" ] ~docv:"TMIN" ~doc:"tmin.")
let tmax_arg = Arg.(value & opt int 10 & info [ "tmax" ] ~docv:"TMAX" ~doc:"tmax.")

let n_arg =
  Arg.(value & opt int 1 & info [ "n" ] ~docv:"N" ~doc:"Participants.")

(* An omitted --runs or --seed leaves the experiment's own default in
   place (Experiments, Fd.Qos), the values EXPERIMENTS.md quotes. *)
let runs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "runs" ] ~docv:"RUNS"
        ~doc:"Repetitions (default: the experiment's own run count).")

let seed_arg =
  Arg.(
    value
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"PRNG seed (default: the experiment's own seed).")

let kinds params = H.Experiments.default_kinds params

let rate_cmd =
  let run tmin tmax n seed =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    Format.printf "steady-state heartbeat rate (%a):@." H.Params.pp params;
    List.iter
      (fun k ->
        Format.printf "  %a@." H.Experiments.pp_rate
          (H.Experiments.steady_rate ?seed k params))
      (kinds params)
  in
  Cmd.v
    (Cmd.info "rate" ~doc:"Steady-state message rate per discipline.")
    Term.(const run $ tmin_arg $ tmax_arg $ n_arg $ seed_arg)

let detection_cmd =
  let run tmin tmax n runs seed =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    let rows =
      List.map
        (fun k -> H.Experiments.detection ?runs ?seed k params)
        (kinds params)
    in
    Format.printf "crash-detection delay (%a, %d runs):@." H.Params.pp params
      (List.hd rows).H.Experiments.runs;
    List.iter (Format.printf "  %a@." H.Experiments.pp_detection) rows
  in
  Cmd.v
    (Cmd.info "detection" ~doc:"Crash-detection delay per discipline.")
    Term.(const run $ tmin_arg $ tmax_arg $ n_arg $ runs_arg $ seed_arg)

let reliability_cmd =
  let losses_arg =
    Arg.(
      value
      & opt (list float) [ 0.01; 0.02; 0.05; 0.1; 0.2 ]
      & info [ "loss" ] ~docv:"P,P,..." ~doc:"Loss probabilities to sweep.")
  in
  let run tmin tmax n runs seed losses =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    let rows =
      List.concat_map
        (fun loss ->
          List.map
            (fun k -> H.Experiments.reliability ?runs ?seed k params ~loss)
            (kinds params))
        losses
    in
    (match rows with
    | r :: _ ->
        Format.printf "false-deactivation probability (%a, %d runs each):@."
          H.Params.pp params r.H.Experiments.r_runs
    | [] -> ());
    List.iter (Format.printf "  %a@." H.Experiments.pp_reliability) rows
  in
  Cmd.v
    (Cmd.info "reliability"
       ~doc:"False deactivations under message loss, per discipline.")
    Term.(
      const run $ tmin_arg $ tmax_arg $ n_arg $ runs_arg $ seed_arg
      $ losses_arg)

let sweep_cmd =
  let run tmax n runs seed =
    let ratios = [ 1; 2; 4; 8 ] in
    Format.printf
      "acceleration depth sweep (tmax=%d): rate, detection and false \
       deactivations at 5%% loss vs tmax/tmin@."
      tmax;
    List.iter
      (fun ratio ->
        let tmin = max 1 (tmax / ratio) in
        let params = Cli_resilience.params ~n ~tmin ~tmax () in
        let rate = H.Experiments.steady_rate ?seed H.Runtime.Halving params in
        let det =
          H.Experiments.detection ?runs ?seed H.Runtime.Halving params
        in
        let rel =
          H.Experiments.reliability ?runs ?seed H.Runtime.Halving params
            ~loss:0.05
        in
        Format.printf
          "  tmin=%-3d rate %6.4f  mean detection %6.2f  max %6.2f  bound \
           %6.2f  false rate %5.3f@."
          tmin rate.H.Experiments.msgs_per_time det.H.Experiments.mean_delay
          det.H.Experiments.max_delay det.H.Experiments.analytic_bound
          rel.H.Experiments.false_rate)
      ratios
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep the acceleration depth tmax/tmin (halving discipline).")
    Term.(const run $ tmax_arg $ n_arg $ runs_arg $ seed_arg)

let bursty_cmd =
  let run tmin tmax n runs seed =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    let bursty = Sim.Loss.gilbert ~p_gb:0.01 ~p_bg:0.19 () in
    let avg = Sim.Loss.expected_loss bursty in
    Format.printf
      "bursty (Gilbert) vs independent loss at %.1f%% average (%a):@."
      (100.0 *. avg) H.Params.pp params;
    List.iter
      (fun k ->
        let b =
          H.Experiments.reliability_model ?runs ?seed k params ~model:bursty
        in
        let u = H.Experiments.reliability ?runs ?seed k params ~loss:avg in
        Format.printf "  %-14s bursty %3d/%d   independent %3d/%d@."
          (H.Runtime.kind_name k) b.H.Experiments.false_detections
          b.H.Experiments.r_runs u.H.Experiments.false_detections
          u.H.Experiments.r_runs)
      (kinds params)
  in
  Cmd.v
    (Cmd.info "bursty"
       ~doc:"Ablate the independence assumption: Gilbert-Elliott vs Bernoulli loss at equal average rate.")
    Term.(const run $ tmin_arg $ tmax_arg $ n_arg $ runs_arg $ seed_arg)

let join_cmd =
  let run tmin tmax runs seed =
    let params = Cli_resilience.params ~tmin ~tmax () in
    Format.printf "%a@." H.Experiments.pp_join
      (H.Experiments.join_latency ?runs ?seed params)
  in
  Cmd.v
    (Cmd.info "join"
       ~doc:"Joining-phase latency of the expanding protocol vs the corrected bound 2*tmax + tmin.")
    Term.(const run $ tmin_arg $ tmax_arg $ runs_arg $ seed_arg)

let fd_cmd =
  let probes_arg =
    Arg.(value & opt int 0 & info [ "probes" ] ~docv:"K" ~doc:"Probe burst size.")
  in
  let loss_arg =
    Arg.(value & opt float 0.05 & info [ "loss" ] ~docv:"P" ~doc:"Loss rate.")
  in
  let run runs seed probes loss =
    Format.printf
      "failure-detector QoS (period 10, loss %.2f, probes %d):@." loss probes;
    List.iter
      (fun r -> Format.printf "  %a@." Fd.Qos.pp_tradeoff r)
      (Fd.Qos.margin_sweep ?runs ~probes ~loss ?seed ())
  in
  Cmd.v
    (Cmd.info "fd"
       ~doc:"Failure-detector QoS margin sweep (detection time vs mistake rate).")
    Term.(const run $ runs_arg $ seed_arg $ probes_arg $ loss_arg)

let () =
  let info =
    Cmd.info "hbsim" ~version:"1.0.0"
      ~doc:"Quantitative simulation of accelerated heartbeat protocols."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            rate_cmd; detection_cmd; reliability_cmd; sweep_cmd; bursty_cmd;
            join_cmd; fd_cmd;
          ]))
