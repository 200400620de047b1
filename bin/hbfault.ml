(* hbfault: adversarial fault-injection campaigns against the heartbeat
   protocols, checked online by the R1-R3 runtime monitors. *)

open Cmdliner
module H = Heartbeat

let seed_arg =
  Arg.(value & opt int64 7L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let fixed_arg =
  Arg.(
    value & flag
    & info [ "fixed" ]
        ~doc:"Monitor against the corrected (section-6.2) bounds instead of \
              the paper's claimed 2*tmax.")

let duration_arg =
  Arg.(
    value & opt float 10.0
    & info [ "duration-factor" ] ~docv:"F"
        ~doc:"Run each point for F * tmax simulated time (F > 0).")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Skip shrinking violating schedules.")

let kind_arg =
  let kinds =
    [
      ("halving", H.Runtime.Halving);
      ("two-phase", H.Runtime.Two_phase);
      ("fixed-rate", H.Runtime.Fixed_rate 2);
    ]
  in
  Arg.(
    value
    & opt (enum kinds) H.Runtime.Halving
    & info [ "kind" ] ~docv:"KIND" ~doc:"Coordinator discipline.")

let campaign_cmd =
  let run fixed seed (params : H.Params.t) duration_factor no_shrink json
      bsecs bmb =
    (* a factor of 0 or less runs no events and passes every point *)
    if not (duration_factor > 0. && Float.is_finite duration_factor) then
      Cli_resilience.usage "--duration-factor must be a positive number";
    (* the budget doubles as the SIGINT token: an interrupted campaign
       reports the completed prefix (JSON or text) instead of dying *)
    let budget = Cli_resilience.budget bsecs bmb in
    let c =
      H.Campaign.run ~fixed ~seed ~n:params.H.Params.n ~duration_factor
        ~shrink_failures:(not no_shrink) ~budget ()
    in
    if json then print_string (H.Campaign.to_json c)
    else Format.printf "%a" H.Campaign.pp c;
    if c.H.Campaign.interrupted <> None then
      exit Cli_resilience.exit_exhausted;
    if H.Campaign.violations c <> [] then exit Cli_resilience.exit_violation
  in
  Cmd.v
    (Cmd.info "campaign" ~exits:Cli_resilience.exits
       ~doc:
         "Sweep the default fault scenarios over all disciplines and table \
          parameter points.")
    Term.(
      const run $ fixed_arg $ seed_arg
      (* -n only: the campaign sweeps the table points itself *)
      $ Cli_resilience.params ~n:1 ()
      $ duration_arg $ no_shrink_arg $ Cli_resilience.json_arg
      $ Cli_resilience.budget_secs_arg
      $ Cli_resilience.budget_mb_arg)

let show_cmd =
  let scenario_arg =
    Arg.(
      value & opt string "crash-early"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario name (see campaign).")
  in
  let run kind params fixed seed scenario =
    let { H.Params.tmin; tmax; n } = params in
    match List.assoc_opt scenario (H.Campaign.default_scenarios params) with
    | None ->
        Format.eprintf "unknown scenario %s; known:@." scenario;
        List.iter
          (fun (name, _) -> Format.eprintf "  %s@." name)
          (H.Campaign.default_scenarios params);
        exit 2
    | Some faults ->
        let pt =
          {
            H.Campaign.kind;
            params;
            fixed;
            scenario;
            faults;
            seed;
            duration = 10.0 *. float_of_int tmax;
          }
        in
        Format.printf "scenario %s at (%d,%d), %s bounds:@.%a@." scenario tmin
          tmax
          (if fixed then "fixed" else "unfixed")
          Sim.Fault.pp faults;
        let verdict, _ = H.Campaign.run_point pt in
        (match verdict with
        | H.Monitors.Pass -> Format.printf "verdict: pass@."
        | H.Monitors.Fail v ->
            Format.printf "verdict: %a@.@.%s" H.Monitors.pp_violation v
              (H.Monitors.render_prefix ~n v);
            let minimal = H.Campaign.shrink pt in
            Format.printf "@.minimal failing schedule:@.%a@." Sim.Fault.pp
              minimal)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Run one scenario at one parameter point and render the violating \
          trace MSC-style.")
    Term.(
      const run $ kind_arg
      $ Cli_resilience.params ~n:1 ~tmin:4 ~tmax:10 ()
      $ fixed_arg $ seed_arg $ scenario_arg)

(* The CI gate: the corrected protocols survive the whole default
   adversary, the unfixed ones are refuted at a table F point, and the
   report is reproducible byte-for-byte. *)
let smoke_cmd =
  let run seed =
    let failures = ref 0 in
    let expect what ok =
      Format.printf "%-58s %s@." what (if ok then "ok" else "FAILED");
      if not ok then incr failures
    in
    let fixed = H.Campaign.run ~fixed:true ~seed () in
    expect "fixed variants: zero violations over the default campaign"
      (H.Campaign.violations fixed = []);
    let unfixed = H.Campaign.run ~fixed:false ~seed () in
    let bad = H.Campaign.violations unfixed in
    expect "unfixed variants: at least one violation reproduced"
      (bad <> []);
    let r1_at_table_point =
      List.exists
        (fun (o : H.Campaign.outcome) ->
          match o.verdict with
          | H.Monitors.Fail v ->
              (v.H.Monitors.req = H.Requirements.R1
              || v.H.Monitors.req = H.Requirements.R2)
              && List.mem
                   ( o.point.params.H.Params.tmin,
                     o.point.params.H.Params.tmax )
                   H.Params.table_datasets
          | H.Monitors.Pass -> false)
        bad
    in
    expect "violation is R1/R2 at a paper table point" r1_at_table_point;
    expect "every violation carries a shrunk schedule"
      (List.for_all
         (fun (o : H.Campaign.outcome) ->
           match o.shrunk with Some s -> s <> [] | None -> false)
         bad);
    let again = H.Campaign.run ~fixed:false ~seed () in
    expect "identical seed reproduces a byte-identical report"
      (H.Campaign.to_json again = H.Campaign.to_json unfixed);
    (match bad with
    | o :: _ ->
        Format.printf "@.example minimal reproduction (%s at (%d,%d), %s):@."
          (H.Runtime.kind_name o.point.kind)
          o.point.params.H.Params.tmin o.point.params.H.Params.tmax
          o.point.scenario;
        Option.iter
          (fun s -> Format.printf "%a@." Sim.Fault.pp s)
          o.shrunk;
        (match o.verdict with
        | H.Monitors.Fail v ->
            Format.printf "%a@." H.Monitors.pp_violation v
        | H.Monitors.Pass -> ())
    | [] -> ());
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Deterministic campaign gate: fixed variants pass, unfixed are \
          refuted and shrunk, reports reproduce byte-identically.")
    Term.(const run $ seed_arg)

let () =
  let info =
    Cmd.info "hbfault" ~version:"1.0.0"
      ~doc:
        "Adversarial fault injection with requirement-derived runtime \
         monitors."
  in
  exit (Cmd.eval (Cmd.group info [ campaign_cmd; show_cmd; smoke_cmd ]))
