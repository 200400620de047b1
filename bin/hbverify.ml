(* hbverify: model-check the accelerated heartbeat protocols and
   regenerate the paper's verification tables and counterexamples. *)

open Cmdliner
module H = Heartbeat

let params = Cli_resilience.params ~n:1 ~tmin:1 ~tmax:10 ()

let print_variant_table ~fixed ~n variant =
  let rows = H.Verify.table ~fixed ~n variant in
  let header =
    Printf.sprintf "%s%s (n=%d)"
      (H.Ta_models.variant_name variant)
      (if fixed then " [fixed]" else "")
      n
  in
  Format.printf "%a@." (fun ppf -> H.Verify.pp_table ppf ~header) rows

let print_table1 () =
  List.iter
    (print_variant_table ~fixed:false ~n:1)
    [ H.Ta_models.Binary; H.Ta_models.Revised; H.Ta_models.Two_phase;
      H.Ta_models.Static ]

let print_table2 () =
  List.iter
    (print_variant_table ~fixed:false ~n:1)
    [ H.Ta_models.Expanding; H.Ta_models.Dynamic ]

let print_table_fixed () =
  List.iter (print_variant_table ~fixed:true ~n:1) H.Ta_models.all_variants

let table1_cmd =
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table 1: (revised) binary, two-phase and static.")
    Term.(const print_table1 $ const ())

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce Table 2: expanding and dynamic.")
    Term.(const print_table2 $ const ())

let table_fixed_cmd =
  Cmd.v
    (Cmd.info "table-fixed"
       ~doc:"Verify the section-6 fixed versions of all six variants.")
    Term.(const print_table_fixed $ const ())

let check_cmd =
  let run variant params fixed slice zone bsecs bmb req =
    if zone && slice then Cli_resilience.usage "--zone and --slice are exclusive";
    let budget = Cli_resilience.budget bsecs bmb in
    let outcome =
      H.Verify.check ~fixed ~slice ~zone ~budget variant params req
    in
    let name ppf () =
      Format.fprintf ppf "%s%s %a %s%s%s"
        (H.Ta_models.variant_name variant)
        (if fixed then " [fixed]" else "")
        H.Params.pp params (H.Requirements.name req)
        (if slice then " [sliced]" else "")
        (if zone then " [zone]" else "")
    in
    match outcome.H.Verify.exhausted with
    | Some e ->
        Format.printf "%a: EXHAUSTED (%a) — no violation found so far@." name
          () Mc.Explore.pp_exhaustion e;
        exit Cli_resilience.exit_exhausted
    | None ->
        Format.printf "%a: %s@." name ()
          (if outcome.H.Verify.holds then "HOLDS" else "VIOLATED");
        Option.iter
          (fun trace ->
            Format.printf "counterexample:@.";
            if zone then
              (* zone traces abstract delays away: an action sequence
                 modulo time, not a timeline *)
              List.iter
                (function
                  | Ta.Semantics.Act a -> Format.printf "  %s@." a
                  | Ta.Semantics.Delay -> ())
                trace
            else
              List.iter
                (fun e ->
                  Format.printf "  t=%-4d %s@." e.H.Scenarios.time
                    e.H.Scenarios.action)
                (H.Scenarios.timeline trace))
          outcome.H.Verify.counterexample;
        if not outcome.H.Verify.holds then begin
          if outcome.H.Verify.counterexample = None then
            (* the zone engine found the violation; the budget ran out
               while the discrete search looked for its trace *)
            Format.printf
              "no counterexample: the budget ran out during the discrete \
               witness search@.";
          exit Cli_resilience.exit_violation
        end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "By default the dense-time zone engine (location LU, inclusion \
         subsumption) decides the verdict.  A violation is then explained \
         by the plain discrete search, which prints a shortest timestamped \
         counterexample and must confirm the zone verdict.  The two \
         engines agree because every clock constraint of the shipped \
         models is closed.";
      `P
        "$(b,--zone) prints the zone verdict with its zone trace (actions \
         modulo time) and skips the discrete search.  $(b,--slice) checks \
         the sliced model with the discrete search alone.";
      `P
        "A $(b,--budget-secs) or $(b,--budget-mb) trip in the zone search \
         reports EXHAUSTED and counts zones.  A trip during the discrete \
         witness search keeps the VIOLATED verdict without a \
         counterexample.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~exits:Cli_resilience.exits ~man
       ~doc:"Model-check one requirement on one variant.")
    Term.(
      const run $ Cli_resilience.variant_arg $ params
      $ Cli_resilience.fixed_arg $ Cli_resilience.slice_arg
      $ Cli_resilience.zone_arg $ Cli_resilience.budget_secs_arg
      $ Cli_resilience.budget_mb_arg $ Cli_resilience.req_arg)

let cex_cmd =
  let scenarios =
    [
      ("r1a", H.Scenarios.fig10a);
      ("r1b", H.Scenarios.fig10b);
      ("r2", H.Scenarios.fig11);
      ("r3", H.Scenarios.fig12);
      ("r2join", H.Scenarios.fig13);
    ]
  in
  let name_conv =
    let parse s =
      if List.mem_assoc s scenarios then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %s (expected: %s)" s
                (String.concat ", " (List.map fst scenarios))))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let run name msc =
    let scenario = (List.assoc name scenarios) () in
    if msc then print_string (H.Msc.render scenario)
    else Format.printf "%a@." H.Scenarios.pp scenario
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some name_conv) None
      & info [] ~docv:"SCENARIO"
          ~doc:"One of r1a (Fig 10a), r1b (Fig 10b), r2 (Fig 11), r3 \
                (Fig 12), r2join (Fig 13).")
  in
  Cmd.v
    (Cmd.info "cex" ~doc:"Print a counterexample figure of the paper.")
    Term.(const run $ name_arg $ Cli_resilience.msc_arg)

let print_bounds tmax =
  Format.printf
    "tmin  claimed(2*tmax)  corrected  halving-worst  p[i]-tight  join@.";
  for tmin = 1 to tmax do
    let p = H.Params.make ~tmin ~tmax () in
    Format.printf "%4d  %15d  %9d  %13d  %10d  %4d@." tmin
      (H.Bounds.original_p0_claim p)
      (H.Bounds.p0_detection p)
      (H.Bounds.p0_detection_exhaustive p)
      (H.Bounds.pi_waiting p)
      (H.Bounds.pi_join_waiting p)
  done

let bounds_cmd =
  let run tmax =
    if tmax < 1 then Cli_resilience.usage "--tmax must be >= 1, got %d" tmax;
    print_bounds tmax
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:"Print the section-6.2 detection-bound analysis for a tmin sweep.")
    Term.(const run $ Cli_resilience.tmax_arg 10)

let worst_cmd =
  let run variant params fixed =
    let measured = H.Verify.worst_detection ~fixed variant params in
    Format.printf
      "%s%s %a: worst-case detection measured on the model = %d (analytic \
       halving worst = %d, corrected bound = %d, original claim = %d)@."
      (H.Ta_models.variant_name variant)
      (if fixed then " [fixed]" else "")
      H.Params.pp params measured
      (H.Bounds.p0_detection_exhaustive params)
      (H.Bounds.p0_detection params)
      (H.Bounds.original_p0_claim params)
  in
  Cmd.v
    (Cmd.info "worst"
       ~doc:"Measure the exact worst-case detection delay on the model \
             (binary search over the watchdog bound).")
    Term.(
      const run $ Cli_resilience.variant_arg
      $ Cli_resilience.params ~tmin:1 ~tmax:10 ()
      $ Cli_resilience.fixed_arg)

(* ------------------------------------------------------------------ *)
(* process-algebra checks (with optional partial-order reduction)      *)
(* ------------------------------------------------------------------ *)

let pa_check_cmd =
  let run variant params reduce json bsecs bmb req =
    let budget = Cli_resilience.budget bsecs bmb in
    let verdict = H.Pa_verify.check_verdict ~reduce ~budget variant params req in
    (* the constant "slice":false keeps the record's shape for existing
       readers of this JSON *)
    let print_json verdict_field stats =
      Printf.printf
        "{\"tool\":\"hbverify\",\"model\":\"pa\",\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"requirement\":\"%s\",\"slice\":false,\"reduce\":%b,%s,\"stats\":%s}\n"
        (H.Ta_models.variant_name variant)
        params.H.Params.tmin params.H.Params.tmax params.H.Params.n
        (H.Requirements.name req) reduce verdict_field stats
    in
    let print_text status =
      Format.printf "PA %s %a %s%s: %s@."
        (H.Ta_models.variant_name variant)
        H.Params.pp params (H.Requirements.name req)
        (if reduce then " [reduced]" else "")
        status
    in
    let stats () =
      let sys, full =
        Cli_resilience.pa_systems ~reduce (H.Pa_models.build variant params)
      in
      Cli_resilience.stats_json ~max_states:4_000_000 ?full sys
    in
    match verdict with
    | Mc.Safety.Holds ->
        if json then print_json "\"verdict\":\"holds\"" (stats ())
        else print_text "HOLDS"
    | Mc.Safety.Violated _ ->
        if json then print_json "\"verdict\":\"violated\"" (stats ())
        else print_text "VIOLATED";
        exit Cli_resilience.exit_violation
    | Mc.Safety.Unknown st ->
        (* no re-exploration for the stats object: it would hit the same
           bound again *)
        if json then
          print_json
            (Printf.sprintf "\"verdict\":\"unknown\",\"states\":%d" st)
            "null"
        else print_text (Printf.sprintf "UNKNOWN (state bound hit at %d)" st);
        exit Cli_resilience.exit_unknown
    | Mc.Safety.Exhausted e ->
        if json then
          print_json
            (Printf.sprintf "\"verdict\":\"exhausted\",\"exhaustion\":%s"
               (Cli_resilience.exhaustion_json e))
            "null"
        else
          print_text
            (Format.asprintf "EXHAUSTED (%a) — no violation found so far"
               Mc.Explore.pp_exhaustion e);
        exit Cli_resilience.exit_exhausted
  in
  Cmd.v
    (Cmd.info "pa-check" ~exits:Cli_resilience.exits
       ~doc:"Model-check one requirement on a process-algebra model, \
             optionally with ample-set partial-order reduction.")
    Term.(
      const run $ Cli_resilience.variant_arg $ params
      $ Cli_resilience.reduce_arg $ Cli_resilience.json_arg
      $ Cli_resilience.budget_secs_arg $ Cli_resilience.budget_mb_arg
      $ Cli_resilience.req_arg)

(* The soundness gate for `make por`: on every shipped variant, the
   reduced exploration must give the full exploration's verdict for
   every requirement.  Multi-party variants run at n = 1 except static
   (n = 2), keeping the gate fast while still covering a genuinely
   concurrent instance. *)
let pa_smoke_cmd =
  let smoke_params variant =
    (* static gets a genuinely concurrent instance (n = 2, the point
       where the reduction passes 2x) at a tmax the gate can afford *)
    if variant = H.Ta_models.Static then H.Params.make ~n:2 ~tmin:2 ~tmax:3 ()
    else H.Params.make ~n:1 ~tmin:2 ~tmax:4 ()
  in
  let run json =
    let failures = ref 0 in
    let rows =
      List.map
        (fun variant ->
          let params = smoke_params variant in
          let verdicts =
            List.map
              (fun req ->
                let full = H.Pa_verify.check variant params req in
                let red = H.Pa_verify.check ~reduce:true variant params req in
                let agree = full = red in
                if not agree then incr failures;
                (req, agree))
              H.Requirements.all
          in
          let full = H.Pa_verify.explore ~reduce:false variant params in
          let red = H.Pa_verify.explore ~reduce:true variant params in
          if not (full.H.Pa_verify.complete && red.H.Pa_verify.complete) then
            incr failures;
          (variant, params, verdicts, full, red))
        H.Ta_models.all_variants
    in
    let ratio (full : H.Pa_verify.explore_stats) (red : H.Pa_verify.explore_stats) =
      float_of_int full.H.Pa_verify.states /. float_of_int red.H.Pa_verify.states
    in
    if json then begin
      print_string "{\"tool\":\"hbverify\",\"gate\":\"pa-smoke\",\"rows\":[";
      List.iteri
        (fun k (variant, params, verdicts, full, red) ->
          if k > 0 then print_string ",";
          Printf.printf
            "{\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"parity\":%b,\"full_states\":%d,\"reduced_states\":%d,\"reduction_ratio\":%.2f}"
            (H.Ta_models.variant_name variant)
            params.H.Params.tmin params.H.Params.tmax params.H.Params.n
            (List.for_all snd verdicts)
            full.H.Pa_verify.states red.H.Pa_verify.states (ratio full red))
        rows;
      Printf.printf "],\"failures\":%d}\n" !failures
    end
    else
      List.iter
        (fun (variant, params, verdicts, full, red) ->
          Format.printf "PA %-10s %a " (H.Ta_models.variant_name variant)
            H.Params.pp params;
          List.iter
            (fun (req, agree) ->
              Format.printf "%s %s  " (H.Requirements.name req)
                (if agree then "ok" else "VERDICT CHANGED"))
            verdicts;
          Format.printf "states %d -> %d (%.2fx)@." full.H.Pa_verify.states
            red.H.Pa_verify.states (ratio full red))
        rows;
    (* the reduction must actually reduce: at least one shipped variant
       at least halves its state count *)
    let best =
      List.fold_left
        (fun acc (_, _, _, full, red) -> Float.max acc (ratio full red))
        0. rows
    in
    if best < 2.0 then begin
      Format.printf "FAILED: best reduction ratio %.2f < 2.0@." best;
      incr failures
    end;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "pa-smoke"
       ~doc:"Partial-order-reduction gate: reduced explorations agree \
             with the full ones on every requirement verdict for all six \
             process-algebra variants, and the reduction at least halves \
             one of them.")
    Term.(const run $ Cli_resilience.json_arg)

(* The per-requirement loop the slice and zone gates share: each
   requirement is checked by the plain discrete search on the full
   model ([Verify.check_discrete], never the zone-decided default of
   [Verify.check]) and through [alt]
   (the slice or the zone engine); the verdicts must agree, and every
   [alt] counterexample must [replay] in the full discrete model, whose
   compiled network [replay] receives.  Failures and replays are
   counted into the refs. *)
let parity_results ~failures ~replays ~alt ~replay variant params =
  List.map
    (fun req ->
      let full = H.Verify.check_discrete ~fixed:false variant params req in
      let o = alt variant params req in
      let parity = full.H.Verify.holds = o.H.Verify.holds in
      let replayed =
        match o.H.Verify.counterexample with
        | None -> true
        | Some trace ->
            incr replays;
            let model =
              H.Ta_models.build
                ~with_r1_monitors:(H.Requirements.needs_monitors req)
                variant params
            in
            replay req (Ta.Semantics.compile model) trace
      in
      if not (parity && replayed) then incr failures;
      (req, parity, replayed))
    H.Requirements.all

let all_parity results = List.for_all (fun (_, p, _) -> p) results
let all_replayed results = List.for_all (fun (_, _, r) -> r) results

let print_results results =
  List.iter
    (fun (req, parity, replayed) ->
      Format.printf "%s %s%s  " (H.Requirements.name req)
        (if parity then "ok" else "VERDICT CHANGED")
        (if replayed then "" else " REPLAY FAILED"))
    results

(* The soundness gate for `make slice`: slicing is an exact projection,
   so on every shipped TA variant the sliced and full checks must give
   the same verdict for every requirement, and every sliced
   counterexample must replay in the full model (the certificate
   check). *)
let slice_smoke_cmd =
  (* tmin = tmax is the race point where the unfixed R2/R3 are violated,
     so the certificate-replay path is actually exercised *)
  let ta_params_list =
    [ H.Params.make ~n:1 ~tmin:2 ~tmax:2 (); H.Params.make ~n:1 ~tmin:2 ~tmax:3 () ]
  in
  let run json =
    let failures = ref 0 in
    (* verdict parity, certificate replay of every sliced counterexample
       in the full model, and the property-free slice's state-count
       ratio *)
    let replays = ref 0 in
    let ta_rows =
      List.concat_map
        (fun variant ->
          List.map
            (fun ta_params ->
              let results =
                parity_results ~failures ~replays
                  ~alt:(H.Verify.check ~slice:true)
                  ~replay:(fun _ net trace ->
                    Slice.replay (Ta.Semantics.system net) trace)
                  variant ta_params
              in
              let count sys =
                (Mc.Explore.space ~max_states:10_000_000 sys).Mc.Explore.lts
                |> Lts.Graph.num_states
              in
              let sliced, full =
                Cli_resilience.ta_systems ~slice:true
                  (H.Ta_models.build variant ta_params)
              in
              let full_states = count (Option.get full) in
              let sliced_states = count sliced in
              (variant, ta_params, results, full_states, sliced_states))
            ta_params_list)
        H.Ta_models.all_variants
    in
    if json then begin
      print_string "{\"tool\":\"hbverify\",\"gate\":\"slice-smoke\",\"ta\":[";
      List.iteri
        (fun k (variant, params, results, full_states, sliced_states) ->
          if k > 0 then print_string ",";
          Printf.printf
            "{\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"parity\":%b,\"replayed\":%b,\"full_states\":%d,\"sliced_states\":%d,\"slice_ratio\":%.2f}"
            (H.Ta_models.variant_name variant)
            params.H.Params.tmin params.H.Params.tmax (all_parity results)
            (all_replayed results) full_states sliced_states
            (float_of_int full_states /. float_of_int sliced_states))
        ta_rows;
      Printf.printf "],\"failures\":%d}\n" !failures
    end
    else
      List.iter
        (fun (variant, params, results, full_states, sliced_states) ->
          Format.printf "TA %-10s %a " (H.Ta_models.variant_name variant)
            H.Params.pp params;
          print_results results;
          Format.printf "states %d -> sliced %d (%.2fx)@." full_states
            sliced_states
            (float_of_int full_states /. float_of_int sliced_states))
        ta_rows;
    (* the slice must actually shrink something: at least one TA
       variant's sliced space is at most half the full one (the clock
       activity and dead-variable passes are worth that much even
       property-free) *)
    let best =
      List.fold_left
        (fun acc (_, _, _, full_states, sliced_states) ->
          Float.max acc
            (float_of_int full_states /. float_of_int sliced_states))
        0. ta_rows
    in
    if best < 2.0 then begin
      Format.printf "FAILED: best TA slice ratio %.2f < 2.0@." best;
      incr failures
    end;
    (* at least one sliced counterexample must have gone through the
       certificate replay, or the replay check above checked nothing *)
    if !replays = 0 then begin
      Format.printf "FAILED: no sliced counterexample exercised the replay@.";
      incr failures
    end;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "slice-smoke"
       ~doc:"Static-slicing gate: sliced timed-automata checks agree with \
             the full ones on every requirement verdict for all six \
             variants, sliced counterexamples replay in the full models, \
             and the slice measurably shrinks at least one state space.")
    Term.(const run $ Cli_resilience.json_arg)

(* The soundness gate for `make zone`: on every shipped variant, the
   dense-time zone verdict (location LU) must equal the discrete one
   for every requirement, every zone counterexample must replay in the
   discrete semantics (delays free, actions exact), and inclusion
   subsumption must keep the verdicts while never storing more states.
   All output is byte-deterministic: state and subsumption counts, no
   wall times. *)
let zone_smoke_cmd =
  let smoke_params = H.Params.make ~n:1 ~tmin:1 ~tmax:2 () in
  let run json =
    let failures = ref 0 in
    let replays = ref 0 in
    let rows =
      List.map
        (fun variant ->
          let params = smoke_params in
          let results =
            parity_results ~failures ~replays
              ~alt:(H.Verify.check ~zone:true)
              ~replay:(fun req net trace ->
                Zone.Reach.guided_replay (Ta.Semantics.system net) ~trace
                  ~goal:(H.Requirements.bad_state variant params net req))
              variant params
          in
          (* the equality-only zone graph is the zone system under the
             generic explorer *)
          let model = H.Ta_models.build ~with_r1_monitors:true variant params in
          let z = Zone.Sym.compile model in
          let s_on = Zone.Reach.new_stats () in
          let n_on, c_on = Zone.Reach.count ~stats:s_on z in
          let n_off, c_off = Mc.Explore.count (Zone.Sym.system z) in
          if not (c_on && c_off && n_on <= n_off) then incr failures;
          (variant, params, results, n_on, s_on.Zone.Reach.subsumed, n_off))
        H.Ta_models.all_variants
    in
    (* subsumption must actually discard something on at least one
       shipped variant, or the discipline is untested *)
    let total_subsumed =
      List.fold_left (fun acc (_, _, _, _, s, _) -> acc + s) 0 rows
    in
    if json then begin
      print_string "{\"tool\":\"hbverify\",\"gate\":\"zone-smoke\",\"rows\":[";
      List.iteri
        (fun k (variant, params, results, n_on, subsumed, n_off) ->
          if k > 0 then print_string ",";
          Printf.printf
            "{\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"parity\":%b,\"replayed\":%b,\"zone_states\":%d,\"subsumed\":%d,\"zone_states_no_subsume\":%d}"
            (H.Ta_models.variant_name variant)
            params.H.Params.tmin params.H.Params.tmax params.H.Params.n
            (all_parity results) (all_replayed results) n_on subsumed n_off)
        rows;
      Printf.printf
        "],\"replays\":%d,\"total_subsumed\":%d,\"failures\":%d}\n"
        !replays total_subsumed !failures
    end
    else
      List.iter
        (fun (variant, params, results, n_on, subsumed, n_off) ->
          Format.printf "TA %-10s %a " (H.Ta_models.variant_name variant)
            H.Params.pp params;
          print_results results;
          Format.printf "zones %d (+%d subsumed; %d without subsumption)@."
            n_on subsumed n_off)
        rows;
    if total_subsumed = 0 then begin
      Format.printf "FAILED: subsumption never discarded a zone@.";
      incr failures
    end;
    if !replays = 0 then begin
      Format.printf "FAILED: no zone counterexample exercised the replay@.";
      incr failures
    end;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "zone-smoke"
       ~doc:"Zone-engine gate: the dense-time zone verdicts (location-LU \
             extrapolation) agree with the discrete ones on every \
             requirement for all six variants, zone counterexamples replay \
             discretely, and inclusion subsumption keeps verdicts while \
             measurably discarding zones.")
    Term.(const run $ Cli_resilience.json_arg)

(* Check an arbitrary .xta model (e.g. the Fontana-Cleaveland suite in
   examples/fc/) against forbidden-location sets under the zone
   engine.  A model the front end cannot take — a syntax error, a
   constraint outside the zone fragment, an unknown name, an update
   that divides by zero — is bad input: one line naming the file, and
   exit 2. *)
let xta_cmd =
  let forbid_conv =
    let parse s =
      let pairs = String.split_on_char ',' s in
      let parsed =
        List.map
          (fun p ->
            match String.index_opt p '.' with
            | Some k ->
                Ok
                  ( String.sub p 0 k,
                    String.sub p (k + 1) (String.length p - k - 1) )
            | None -> Error p)
          pairs
      in
      match
        List.partition_map
          (function Ok x -> Left x | Error e -> Right e)
          parsed
      with
      | pairs, [] -> Ok pairs
      | _, bad :: _ ->
          Error (`Msg (Printf.sprintf "expected AUTO.LOC, got %S" bad))
    in
    Arg.conv
      ( parse,
        fun ppf pairs ->
          Format.pp_print_string ppf
            (String.concat "," (List.map (fun (a, l) -> a ^ "." ^ l) pairs)) )
  in
  let forbid_arg =
    Arg.(
      value & opt_all forbid_conv []
      & info [ "forbid" ] ~docv:"AUTO.LOC[,AUTO.LOC...]"
          ~doc:"Forbidden location set: the model is unsafe if all the \
                listed automaton locations are occupied simultaneously.  \
                Repeat the flag for alternative bad sets (a disjunction).")
  in
  let fc_arg =
    Arg.(
      value & opt (some string) None
      & info [ "fc" ] ~docv:"NAME"
          ~doc:"Instead of a file, load a built-in Fontana-Cleaveland \
                benchmark with its safety property: fischer, \
                fischer-broken, csma, fddi, grc or leader.")
  in
  let file_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"An UPPAAL .xta model file.")
  in
  let run file fc forbid json =
    let source, expect_name =
      match (fc, file) with
      | Some name, _ -> (name, name)
      | None, Some path -> (path, Filename.basename path)
      | None, None -> Cli_resilience.usage "need a FILE or --fc NAME"
    in
    let bad_input msg = Cli_resilience.usage "%s: %s" source msg in
    let stats = Zone.Reach.new_stats () in
    let verdict =
      try
        let model, forbid =
          match fc with
          | Some name -> (
              match Fc.find name with
              | Some spec -> (spec.Fc.model, spec.Fc.forbid)
              | None -> Cli_resilience.usage "unknown benchmark %s" name)
          | None ->
              let src = In_channel.with_open_text source In_channel.input_all in
              (Ta.Xta.parse src, forbid)
        in
        if forbid = [] then Cli_resilience.usage "no --forbid sets given";
        let z = Zone.Sym.compile model in
        let spec = { Fc.fc_name = expect_name; model; forbid; safe = true } in
        let bad = Fc.bad_predicate spec (Zone.Sym.net z) in
        Zone.Reach.find ~stats z ~goal:(Zone.Sym.bad_of z bad)
      with
      | Ta.Xta.Parse_error msg
      | Zone.Sym.Unsupported msg
      | Invalid_argument msg
      | Sys_error msg ->
          bad_input msg
      | Division_by_zero -> bad_input "division by zero"
    in
    let status, trace =
      match verdict with
      | Mc.Explore.Unreachable -> ("safe", None)
      | Mc.Explore.Reached w -> ("unsafe", Some w.Mc.Explore.trace)
      | Mc.Explore.Bound_hit _ -> ("unknown", None)
      | Mc.Explore.Exhausted _ -> ("exhausted", None)
    in
    if json then
      Printf.printf
        "{\"tool\":\"hbverify\",\"model\":%s,\"engine\":\"zone\",\"verdict\":\"%s\",\"zone_states\":%d,\"subsumed\":%d}\n"
        (Lint.Report.json_str expect_name)
        status stats.Zone.Reach.states stats.Zone.Reach.subsumed
    else begin
      Format.printf "%s [zone]: %s (%d zones, %d subsumed)@." expect_name
        (String.uppercase_ascii status)
        stats.Zone.Reach.states stats.Zone.Reach.subsumed;
      Option.iter
        (fun trace ->
          Format.printf "counterexample:@.";
          List.iter
            (function
              | Ta.Semantics.Act a -> Format.printf "  %s@." a
              | Ta.Semantics.Delay -> ())
            trace)
        trace
    end;
    if status = "unsafe" then exit Cli_resilience.exit_violation
    else if status <> "safe" then exit Cli_resilience.exit_unknown
  in
  Cmd.v
    (Cmd.info "xta" ~exits:Cli_resilience.exits
       ~doc:"Zone-check an UPPAAL .xta model (or a built-in \
             Fontana-Cleaveland benchmark) against forbidden location \
             sets.")
    Term.(
      const run $ file_arg $ fc_arg $ forbid_arg $ Cli_resilience.json_arg)

(* Every model-checking result EXPERIMENTS.md records, in the paper's
   order; `make paper` follows it with the hbsim simulation sections. *)
let all_cmd =
  let run () =
    Format.printf "=== Table 1: (revised) binary, two-phase, static ===@.@.";
    print_table1 ();
    Format.printf "@.=== Table 2: expanding, dynamic ===@.@.";
    print_table2 ();
    Format.printf "@.=== Section 6: fixed versions ===@.@.";
    print_table_fixed ();
    Format.printf "@.=== Figures 10-13: counterexamples ===@.@.";
    List.iter
      (fun s -> Format.printf "%a@." H.Scenarios.pp s)
      (H.Scenarios.all ());
    Format.printf "@.=== Figures 1-2: component state spaces ===@.@.";
    let p = H.Params.make ~tmin:1 ~tmax:2 () in
    Format.printf "p[0] with stopwatch (tmax=2, tmin=1): raw %a; reduced %a@."
      Lts.Graph.pp_stats (H.Figures.p0_component p) Lts.Graph.pp_stats
      (H.Figures.p0_reduced p);
    Format.printf "p[1] with watchdog  (tmax=2, tmin=1): raw %a; reduced %a@."
      Lts.Graph.pp_stats (H.Figures.p1_component p) Lts.Graph.pp_stats
      (H.Figures.p1_reduced p);
    Format.printf "@.=== Section 6.2: detection bounds (tmax=10) ===@.@.";
    print_bounds 10;
    Format.printf
      "@.=== worst-case detection measured on the model (binary) ===@.@.";
    Format.printf "tmin  tmax  analytic  model-measured@.";
    List.iter
      (fun (tmin, tmax) ->
        let p = H.Params.make ~tmin ~tmax () in
        Format.printf "%4d  %4d  %8d  %14d@." tmin tmax
          (H.Bounds.p0_detection_exhaustive p)
          (H.Verify.worst_detection H.Ta_models.Binary p))
      (H.Params.table_datasets @ [ (1, 4); (2, 6); (3, 8) ])
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Every model-checking result of the paper: Tables 1-2, the \
             fixed versions, Figures 10-13, the Figure 1-2 component \
             state spaces, the section-6.2 bounds and the worst-case \
             detection measured on the model.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "hbverify" ~version:"1.0.0"
      ~doc:"Model checking of accelerated heartbeat protocols (ICDCS'98)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd; table2_cmd; table_fixed_cmd; all_cmd; check_cmd;
            pa_check_cmd; pa_smoke_cmd; slice_smoke_cmd; zone_smoke_cmd;
            xta_cmd; cex_cmd; bounds_cmd; worst_cmd;
          ]))
