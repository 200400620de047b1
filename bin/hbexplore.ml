(* hbexplore: state-space statistics and Graphviz export for the formal
   models. *)

open Cmdliner
module H = Heartbeat

let variant_conv =
  let parse s =
    match
      List.find_opt
        (fun v -> H.Ta_models.variant_name v = s)
        H.Ta_models.all_variants
    with
    | Some v -> Ok v
    | None -> Error (`Msg ("unknown variant " ^ s))
  in
  Arg.conv
    (parse, fun ppf v -> Format.pp_print_string ppf (H.Ta_models.variant_name v))

let variant_arg =
  Arg.(
    value
    & opt variant_conv H.Ta_models.Binary
    & info [ "v"; "variant" ] ~docv:"VARIANT" ~doc:"Protocol variant.")

let tmin_arg = Arg.(value & opt int 1 & info [ "tmin" ] ~docv:"TMIN" ~doc:"tmin.")
let tmax_arg = Arg.(value & opt int 10 & info [ "tmax" ] ~docv:"TMAX" ~doc:"tmax.")

let n_arg =
  Arg.(value & opt int 1 & info [ "n" ] ~docv:"N" ~doc:"Participants.")

let fixed_arg = Arg.(value & flag & info [ "fixed" ] ~doc:"Fixed version.")

let monitors_arg =
  Arg.(value & flag & info [ "monitors" ] ~doc:"Include the R1 watchdogs.")

let slice_arg =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:"Explore the statically sliced model (dead-write elimination, \
              constant folding, clock-activity reduction; exact, \
              label-preserving).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Exploration domains: 1 runs the sequential engine, more runs \
           the parallel engine (identical output). 0 uses all cores.")

let exploration_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print exploration statistics (states/s, frontier, shards).")

let store_conv =
  let parse s =
    match Mc.Store.of_string s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf m -> Format.pp_print_string ppf (Mc.Store.mode_name m))

let store_arg =
  Arg.(
    value
    & opt store_conv Mc.Store.Exact
    & info [ "store" ] ~docv:"MODE"
        ~doc:
          "State storage mode: $(b,exact) (default, no omissions), \
           $(b,hashcompact)[:BITS] (64-bit fingerprints) or \
           $(b,bitstate)[:LOG2BITS[:HASHES]] (supertrace bit array). The \
           compressed modes conflate fingerprint-colliding states, so any \
           $(i,no violation) / $(i,complete) answer they produce is \
           probabilistic — a violation hidden behind an omitted state is \
           missed, never invented; the printed coverage estimate \
           quantifies the omission risk. Violations and deadlocks that \
           $(i,are) reported remain real.")

let count_arg =
  Arg.(
    value & flag
    & info [ "count" ]
        ~doc:
          "Count reachable states without retaining the graph (the \
           high-volume mode; composes with compressed stores and the \
           degradation ladder).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the deterministic JSON result.")

let zone_arg =
  Arg.(
    value & flag
    & info [ "zone" ]
        ~doc:"Explore the dense-time zone graph (canonical DBMs with \
              inclusion subsumption) instead of the discrete state space.")

let no_subsume_arg =
  Arg.(
    value & flag
    & info [ "no-subsume" ]
        ~doc:"With $(b,--zone): store zones up to equality only, disabling \
              inclusion subsumption (the zone graph as a plain transition \
              system driven by the generic explorer).")

(* Zone-graph statistics.  With subsumption this is the waiting-list
   discipline of Zone.Reach; without it the zone system is handed to
   the generic Mc.Explore engine as-is, exercising the Mc.System
   integration. *)
let zone_stats ~variant ~params ~fixed ~monitors ~subsume ~json header =
  let model =
    H.Ta_models.build ~fixed ~with_r1_monitors:monitors variant params
  in
  let z = Zone.Sym.compile model in
  let states, complete, subsumed =
    if subsume then begin
      let stats = Zone.Reach.new_stats () in
      let n, complete =
        Zone.Reach.count ~max_states:10_000_000 ~stats z
      in
      (n, complete, Some stats.Zone.Reach.subsumed)
    end
    else
      let n, complete =
        Mc.Explore.count ~max_states:10_000_000 (Zone.Sym.system z)
      in
      (n, complete, None)
  in
  if json then
    Printf.printf
      "{\"tool\":\"hbexplore\",\"cmd\":\"stats\",\"engine\":\"zone\",\"variant\":\"%s\",\"fixed\":%b,\"monitors\":%b,\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"subsume\":%b,\"states\":%d,%s\"complete\":%b}\n"
      (H.Ta_models.variant_name variant)
      fixed monitors params.H.Params.tmin params.H.Params.tmax
      params.H.Params.n subsume states
      (match subsumed with
      | Some s -> Printf.sprintf "\"subsumed\":%d," s
      | None -> "")
      complete
  else
    Format.printf "%a [zone%s]: %d zones (%s%s)@." header ()
      (if subsume then "" else ", no subsumption")
      states
      (if complete then "complete" else "TRUNCATED")
      (match subsumed with
      | Some s -> Printf.sprintf "; %d subsumed" s
      | None -> "")

let stats_cmd =
  let run variant tmin tmax n fixed monitors slice zone no_subsume jobs
      show_stats store count_only json bsecs bmb no_degrade ckpt
      ckpt_every resume_file =
    let jobs = Cli_resilience.resolve_jobs jobs in
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    if zone then begin
      if
        slice || count_only
        || store <> Mc.Store.Exact
        || jobs > 1 || ckpt <> None || resume_file <> None
      then
        Cli_resilience.usage
          "--zone is sequential with an exact store (drop --slice, --store, \
           --count, -j, --checkpoint and --resume)";
      let header ppf () =
        Format.fprintf ppf "%s%s %a%s"
          (H.Ta_models.variant_name variant)
          (if fixed then " [fixed]" else "")
          H.Params.pp params
          (if monitors then " +monitors" else "")
      in
      zone_stats ~variant ~params ~fixed ~monitors ~subsume:(not no_subsume)
        ~json header
    end
    else begin
    if no_subsume then Cli_resilience.usage "--no-subsume needs --zone";
    let model =
      H.Ta_models.build ~fixed ~with_r1_monitors:monitors variant params
    in
    (* the property-free slice: no seed, so the reduction comes from dead
       writes, folded constants and clock activity alone *)
    let sys =
      if slice then
        let sl = Slice.Ta.slice model in
        Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model)
      else Ta.Semantics.system (Ta.Semantics.compile model)
    in
    let max_states = 10_000_000 in
    let count_mode =
      count_only || match store with Mc.Store.Bitstate _ -> true | _ -> false
    in
    if count_mode && (ckpt <> None || resume_file <> None) then
      Cli_resilience.usage
        "--checkpoint/--resume need the state graph (drop --count; bitstate \
         stores keep no graph)";
    (* the checkpoint kind guards resume identity: same tool, model,
       parameters, bound and store family, or the resume is rejected
       (the constant "lu=global", from the deleted --lu flag, lets
       existing checkpoints resume) *)
    let kind =
      Printf.sprintf
        "hbexplore/stats/ta/%s/fixed=%b/monitors=%b/slice=%b/lu=global/tmin=%d/tmax=%d/n=%d/max=%d/store=%s"
        (H.Ta_models.variant_name variant)
        fixed monitors slice tmin tmax n max_states
        (Mc.Store.mode_name store)
    in
    let header ppf () =
      Format.fprintf ppf "%s%s %a%s%s"
        (H.Ta_models.variant_name variant)
        (if fixed then " [fixed]" else "")
        H.Params.pp params
        (if monitors then " +monitors" else "")
        (if slice then " [sliced]" else "")
    in
    let json_result ~states ~transitions ~complete ~coverage ~exhausted
        ~degraded =
      Printf.printf
        "{\"tool\":\"hbexplore\",\"cmd\":\"stats\",\"variant\":\"%s\",\"fixed\":%b,\"monitors\":%b,\"slice\":%b,\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"store\":\"%s\",\"states\":%d,%s\"complete\":%b,\"coverage\":%s,\"exhausted\":%s,\"degraded\":[%s]}\n"
        (H.Ta_models.variant_name variant)
        fixed monitors slice tmin tmax n (Mc.Store.mode_name store) states
        (match transitions with
        | Some t -> Printf.sprintf "\"transitions\":%d," t
        | None -> "")
        complete
        (match coverage with
        | Some c -> Cli_resilience.coverage_json c
        | None -> "null")
        (match exhausted with
        | Some r -> Printf.sprintf "\"%s\"" (Mc.Budget.reason_name r)
        | None -> "null")
        (String.concat ","
           (List.map (fun m -> "\"" ^ m ^ "\"") degraded))
    in
    if count_mode then begin
      let budget = Cli_resilience.budget bsecs bmb in
      let (count, complete), stats =
        Mc.Pexplore.count_stats ~max_states ~domains:jobs ~store ~budget
          ~degrade:(not no_degrade) sys
      in
      if json then
        json_result ~states:count ~transitions:None ~complete
          ~coverage:(Some stats.Mc.Pexplore.coverage)
          ~exhausted:stats.Mc.Pexplore.exhausted
          ~degraded:stats.Mc.Pexplore.degraded
      else begin
        Format.printf
          "%a: %d states visited (%s; counts under a compressed store are \
           probabilistic lower bounds)@."
          header () count
          (match stats.Mc.Pexplore.exhausted with
          | Some r -> "EXHAUSTED: " ^ Mc.Budget.reason_name r
          | None -> if complete then "complete" else "TRUNCATED");
        (match stats.Mc.Pexplore.degraded with
        | [] -> ()
        | ms ->
            Format.printf "store degraded in place: %s@."
              (String.concat " -> " (Mc.Store.mode_name store :: ms)));
        Format.printf "coverage: %a@." Mc.Store.pp_coverage
          stats.Mc.Pexplore.coverage;
        if show_stats then Format.printf "%a@." Mc.Pexplore.pp_stats stats
      end;
      if stats.Mc.Pexplore.exhausted <> None then
        exit Cli_resilience.exit_exhausted
    end
    else begin
      let sequential =
        jobs <= 1 && (not show_stats) && store = Mc.Store.Exact
      in
      let result, stats =
        if sequential then begin
          let budget = Cli_resilience.budget bsecs bmb in
          let resume = Cli_resilience.load_resume ~kind resume_file in
          let checkpoint =
            Option.map
              (fun file ->
                (ckpt_every, Cli_resilience.save_checkpoint ~kind file))
              ckpt
          in
          (Mc.Explore.space_run ~max_states ~budget ?checkpoint ?resume sys,
           None)
        end
        else begin
          let budget = Cli_resilience.budget bsecs bmb in
          let resume = Cli_resilience.load_resume ~kind resume_file in
          let result, stats =
            Mc.Pexplore.space_run ~max_states ~domains:jobs ~store ~budget
              ~degrade:(not no_degrade) ?resume sys
          in
          (result, Some stats)
        end
      in
      match result with
      | Mc.Explore.Done space ->
          if json then
            json_result
              ~states:(Lts.Graph.num_states space.Mc.Explore.lts)
              ~transitions:
                (Some (Lts.Graph.num_transitions space.Mc.Explore.lts))
              ~complete:space.Mc.Explore.complete
              ~coverage:(Option.map (fun s -> s.Mc.Pexplore.coverage) stats)
              ~exhausted:None
              ~degraded:
                (match stats with
                | Some s -> s.Mc.Pexplore.degraded
                | None -> [])
          else begin
            Format.printf "%a: %a (%s)@." header ()
              Lts.Graph.pp_stats space.Mc.Explore.lts
              (if space.Mc.Explore.complete then "complete" else "TRUNCATED");
            (match stats with
            | Some s when store <> Mc.Store.Exact ->
                Format.printf "coverage: %a@." Mc.Store.pp_coverage
                  s.Mc.Pexplore.coverage
            | _ -> ());
            (match stats with
            | Some s when show_stats ->
                Format.printf "%a@." Mc.Pexplore.pp_stats s
            | _ -> ())
          end
      | Mc.Explore.Suspended (reason, cursor) ->
          Option.iter
            (fun file -> Cli_resilience.save_checkpoint ~kind file cursor)
            ckpt;
          let states = Mc.Explore.cursor_states cursor in
          let frontier = Mc.Explore.cursor_frontier cursor in
          if json then
            json_result ~states ~transitions:None ~complete:false
              ~coverage:(Option.map (fun s -> s.Mc.Pexplore.coverage) stats)
              ~exhausted:(Some reason)
              ~degraded:
                (match stats with
                | Some s -> s.Mc.Pexplore.degraded
                | None -> [])
          else
            Format.printf
              "%a: EXHAUSTED (%a) — %d states interned, %d frontier states \
               unexpanded%s@."
              header () Mc.Budget.pp_reason reason states frontier
              (if ckpt <> None then "; checkpoint written" else "");
          exit Cli_resilience.exit_exhausted
    end
    end
  in
  Cmd.v
    (Cmd.info "stats" ~exits:Cli_resilience.exits
       ~doc:"Reachable state space of a timed-automata model (discrete, or \
             the dense-time zone graph with $(b,--zone)).")
    Term.(
      const run $ variant_arg $ tmin_arg $ tmax_arg $ n_arg $ fixed_arg
      $ monitors_arg $ slice_arg $ zone_arg $ no_subsume_arg $ jobs_arg
      $ exploration_stats_arg $ store_arg $ count_arg $ json_arg
      $ Cli_resilience.budget_secs_arg
      $ Cli_resilience.budget_mb_arg $ Cli_resilience.no_degrade_arg
      $ Cli_resilience.checkpoint_arg $ Cli_resilience.checkpoint_every_arg
      $ Cli_resilience.resume_arg)

let pa_stats_cmd =
  let reduce_arg =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:"Also explore the ample-set reduced state space and report \
                the reduction ratio.")
  in
  let run tmin tmax n reduce =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    List.iter
      (fun v ->
        let full = H.Pa_verify.explore v params in
        Format.printf "PA %-10s %a: %d states, %d transitions"
          (H.Pa_models.variant_name v)
          H.Params.pp params full.H.Pa_verify.states
          full.H.Pa_verify.transitions;
        if reduce then begin
          let red = H.Pa_verify.explore ~reduce:true v params in
          Format.printf "; reduced: %d states, %d transitions (%.2fx)"
            red.H.Pa_verify.states red.H.Pa_verify.transitions
            (float_of_int full.H.Pa_verify.states
            /. float_of_int red.H.Pa_verify.states)
        end;
        Format.printf "@.")
      [ H.Pa_models.Binary; H.Pa_models.Revised; H.Pa_models.Two_phase;
        H.Pa_models.Static; H.Pa_models.Expanding; H.Pa_models.Dynamic ]
  in
  Cmd.v
    (Cmd.info "pa-stats"
       ~doc:"Reachable state spaces of the process-algebra models, \
             optionally with the ample-set reduction for comparison.")
    Term.(const run $ tmin_arg $ tmax_arg $ n_arg $ reduce_arg)

let dot_cmd =
  let run which tmin tmax =
    let params = Cli_resilience.params ~tmin ~tmax () in
    let lts =
      match which with
      | "p0" -> H.Figures.p0_reduced params
      | "p1" -> H.Figures.p1_reduced params
      | "p0-raw" -> H.Figures.p0_component params
      | "p1-raw" -> H.Figures.p1_component params
      | other -> Cli_resilience.usage "unknown component %s" other
    in
    let pp_label ppf l =
      Format.pp_print_string ppf (H.Figures.label_to_string l)
    in
    print_string (Lts.Dot.to_string ~name:which ~pp_label lts)
  in
  let which_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COMPONENT"
          ~doc:"p0 or p1 (reduced, paper Figures 1/2); p0-raw / p1-raw for \
                the unreduced LTS.")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Emit a component state space (paper Figures 1 and 2) as \
             Graphviz dot.")
    Term.(const run $ which_arg $ Arg.(value & opt int 1 & info [ "tmin" ])
          $ Arg.(value & opt int 2 & info [ "tmax" ]))

let export_cmd =
  let run format variant tmin tmax n fixed =
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    match format with
    | "xta" ->
        let model = H.Ta_models.build ~fixed variant params in
        print_string (Ta.Xta.to_string model)
    | "mcrl2" -> (
        match H.Pa_models.of_ta variant with
        | Some pv -> print_string (Proc.Mcrl2.to_string (H.Pa_models.build pv params))
        | None ->
            Cli_resilience.usage "no process-algebra encoding for %s"
              (H.Ta_models.variant_name variant))
    | other -> Cli_resilience.usage "unknown format %s" other
  in
  let format_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FORMAT"
          ~doc:"xta (UPPAAL textual format, from the timed-automata model) \
                or mcrl2 (from the process-algebra model).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a protocol model for the UPPAAL or mCRL2 toolsets.")
    Term.(
      const run $ format_arg $ variant_arg $ tmin_arg $ tmax_arg $ n_arg
      $ fixed_arg)

(* Per-benchmark zone counts, with a verdict check against the spec's
   expected answer, over the whole FC suite; the --json form is
   byte-deterministic (counts only, no wall times) and gated by `make
   zone`. *)
let fc_zones specs json =
  let failures = ref 0 in
  let rows =
    List.map
      (fun (s : Fc.spec) ->
        let z = Zone.Sym.compile s.Fc.model in
        let goal = Zone.Sym.bad_of z (Fc.bad_predicate s (Zone.Sym.net z)) in
        let verdict =
          match Zone.Reach.find ~max_states:10_000_000 z ~goal with
          | Mc.Explore.Unreachable -> Some true
          | Mc.Explore.Reached _ -> Some false
          | Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _ -> None
        in
        let zones, complete =
          Zone.Reach.count ~max_states:10_000_000 ~subsume:true z
        in
        let parity = verdict = Some s.Fc.safe in
        if not (parity && complete) then incr failures;
        (s, parity, zones))
      specs
  in
  if json then begin
    print_string "{\"tool\":\"hbexplore\",\"cmd\":\"fc-zones\",\"rows\":[";
    List.iteri
      (fun k ((s : Fc.spec), parity, zones) ->
        if k > 0 then print_string ",";
        Printf.printf
          "{\"model\":\"%s\",\"safe\":%b,\"verdict_parity\":%b,\"zones\":%d}"
          s.Fc.fc_name s.Fc.safe parity zones)
      rows;
    Printf.printf "],\"failures\":%d}\n" !failures
  end
  else
    List.iter
      (fun ((s : Fc.spec), parity, zones) ->
        Format.printf "%-16s %-6s %s  zones: %d@." s.Fc.fc_name
          (if s.Fc.safe then "safe" else "unsafe")
          (if parity then "verdict ok" else "VERDICT WRONG")
          zones)
      rows;
  if !failures > 0 then exit 1

(* The Fontana-Cleaveland workload: print a benchmark as .xta (the
   exact content of examples/fc/NAME.xta), list the registry, or
   zone-check the suite and report its zone counts with --zones. *)
let fc_cmd =
  let name_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Benchmark to print: fischer, fischer-broken, csma, fddi, \
                grc or leader.  Omit to list the registry.")
  in
  let fischer_n_arg =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:"For fischer: number of processes (default 2).")
  in
  let zones_arg =
    Arg.(
      value & flag
      & info [ "zones" ]
          ~doc:"Instead of printing models, zone-check each selected \
                benchmark and report its zone count (the verdict must \
                match the spec).")
  in
  let run name fischer_n zones json =
    if json && not zones then Cli_resilience.usage "--json needs --zones";
    if zones then
      let specs =
        match name with
        | None -> Fc.all
        | Some "fischer" when fischer_n <> None ->
            [ Fc.fischer_spec ?n:fischer_n () ]
        | Some name -> (
            match Fc.find name with
            | Some s -> [ s ]
            | None -> Cli_resilience.usage "unknown benchmark %s" name)
      in
      fc_zones specs json
    else
      match name with
      | None ->
          List.iter
            (fun (s : Fc.spec) ->
              Format.printf "%-16s %s, bad sets: %s@." s.Fc.fc_name
                (if s.Fc.safe then "safe" else "unsafe")
                (String.concat " | "
                   (List.map
                      (fun conj ->
                        String.concat ","
                          (List.map (fun (a, l) -> a ^ "." ^ l) conj))
                      s.Fc.forbid)))
            Fc.all
      | Some "fischer" when fischer_n <> None ->
          print_string
            (Ta.Xta.to_string (Fc.fischer ?n:fischer_n ()))
      | Some name -> (
          match Fc.find name with
          | Some s -> print_string (Ta.Xta.to_string s.Fc.model)
          | None -> Cli_resilience.usage "unknown benchmark %s" name)
  in
  Cmd.v
    (Cmd.info "fc"
       ~doc:"Print a Fontana-Cleaveland benchmark model as UPPAAL .xta \
             (zone-check them with hbverify xta), or zone-check the suite \
             and report its zone counts with $(b,--zones).")
    Term.(const run $ name_arg $ fischer_n_arg $ zones_arg $ json_arg)

let deadlocks_cmd =
  let run variant tmin tmax n fixed jobs store bsecs bmb no_degrade =
    let jobs = Cli_resilience.resolve_jobs jobs in
    let budget = Cli_resilience.budget bsecs bmb in
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    let verdict =
      H.Verify.deadlocks ~fixed ~domains:jobs ~store ~budget
        ~degrade:(not no_degrade) variant params
    in
    let line s =
      Format.printf "%s %a: %s@."
        (H.Ta_models.variant_name variant)
        H.Params.pp params s
    in
    match verdict with
    | Mc.Safety.Holds ->
        line
          ("deadlock-free"
          ^
          if store <> Mc.Store.Exact then
            " (probabilistic: compressed store may omit states)"
          else "")
    | Mc.Safety.Violated _ ->
        line "HAS DEADLOCKS";
        exit Cli_resilience.exit_violation
    | Mc.Safety.Unknown n ->
        line (Printf.sprintf "UNKNOWN (state bound hit at %d)" n);
        exit Cli_resilience.exit_unknown
    | Mc.Safety.Exhausted e ->
        line
          (Format.asprintf "EXHAUSTED (%a) — no deadlock found so far"
             Mc.Explore.pp_exhaustion e);
        exit Cli_resilience.exit_exhausted
  in
  Cmd.v
    (Cmd.info "deadlocks" ~exits:Cli_resilience.exits
       ~doc:"Check a model for deadlocked configurations.")
    Term.(
      const run $ variant_arg $ tmin_arg $ tmax_arg $ n_arg $ fixed_arg
      $ jobs_arg $ store_arg $ Cli_resilience.budget_secs_arg
      $ Cli_resilience.budget_mb_arg $ Cli_resilience.no_degrade_arg)

let () =
  let info =
    Cmd.info "hbexplore" ~version:"1.0.0"
      ~doc:"State-space exploration of the heartbeat protocol models."
  in
  exit
    (Cmd.eval (Cmd.group info
       [ stats_cmd; pa_stats_cmd; dot_cmd; export_cmd; fc_cmd; deadlocks_cmd ]))
