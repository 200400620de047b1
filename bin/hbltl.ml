(* hbltl: LTL liveness checking of the accelerated heartbeat protocols.

   Where hbverify answers reachability questions (can a bad state be
   reached?), hbltl answers liveness ones (does the beat exchange keep
   happening on every fair run?).  Refutations are lassos: a finite
   prefix plus a cycle that repeats forever. *)

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
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown variant %s (expected one of: %s)" s
                (String.concat ", "
                   (List.map H.Ta_models.variant_name H.Ta_models.all_variants))))
  in
  Arg.conv
    (parse, fun ppf v -> Format.pp_print_string ppf (H.Ta_models.variant_name v))

let variant_arg =
  Arg.(
    value
    & opt variant_conv H.Ta_models.Binary
    & info [ "v"; "variant" ] ~docv:"VARIANT"
        ~doc:"Protocol variant: binary, revised, two-phase, static, \
              expanding or dynamic.")

let tmin_arg =
  Arg.(value & opt int 10 & info [ "tmin" ] ~docv:"TMIN" ~doc:"Lower round bound.")

let tmax_arg =
  Arg.(value & opt int 10 & info [ "tmax" ] ~docv:"TMAX" ~doc:"Upper round bound.")

let n_arg =
  Arg.(
    value & opt int 1
    & info [ "n" ] ~docv:"N" ~doc:"Number of participants (multi-party variants).")

let fixed_arg =
  Arg.(
    value & flag
    & info [ "fixed" ] ~doc:"Check the corrected (section-6) version.")

let engine_conv =
  let parse = function
    | "ndfs" -> Ok Ltl.Check.Ndfs
    | "scc" -> Ok Ltl.Check.Scc
    | s -> Error (`Msg ("unknown engine " ^ s ^ " (expected ndfs or scc)"))
  in
  Arg.conv
    ( parse,
      fun ppf e ->
        Format.pp_print_string ppf
          (match e with Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc") )

let engine_arg =
  Arg.(
    value
    & opt engine_conv Ltl.Check.Ndfs
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Emptiness engine: ndfs (on-the-fly nested DFS) or scc \
              (Tarjan components over the built product).")

let req_conv =
  let parse = function
    | "R1" | "r1" -> Ok H.Requirements.R1
    | "R2" | "r2" -> Ok H.Requirements.R2
    | "R3" | "r3" -> Ok H.Requirements.R3
    | s -> Error (`Msg ("unknown requirement " ^ s))
  in
  Arg.conv
    (parse, fun ppf r -> Format.pp_print_string ppf (H.Requirements.name r))

let req_arg =
  Arg.(
    required
    & pos 0 (some req_conv) None
    & info [] ~docv:"REQ" ~doc:"Requirement: R1, R2 or R3.")

(* ------------------------------------------------------------------ *)
(* JSON rendering (deterministic: fixed key order, no hash iteration)  *)
(* ------------------------------------------------------------------ *)

let step_string = function
  | Ltl.Check.Step Ta.Semantics.Delay -> "tick"
  | Ltl.Check.Step (Ta.Semantics.Act a) -> a
  | Ltl.Check.Stutter -> "(stutter)"

let pa_step_string = function
  | Ltl.Check.Step l -> Format.asprintf "%a" Proc.Semantics.pp_label l
  | Ltl.Check.Stutter -> "(stutter)"

let json_steps to_string steps =
  "["
  ^ String.concat ","
      (List.map (fun s -> Lint.Report.json_str (to_string s)) steps)
  ^ "]"

(* State-space statistics of the timed-automata model being checked
   (not of the Büchi product): states, transitions, completeness, and
   with [slice] the full-space size and the slice ratio.  PA runs print
   [Cli_resilience.pa_stats_json]. *)
let ta_stats_json ~fixed ~slice variant params =
  let model = H.Ta_models.build ~fixed variant params in
  let sys =
    if slice then
      let sl = Slice.Ta.slice model in
      Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model)
    else Ta.Semantics.system (Ta.Semantics.compile model)
  in
  let space = Mc.Explore.space ~max_states:10_000_000 sys in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"states\":%d,\"transitions\":%d,\"complete\":%b"
    (Lts.Graph.num_states space.Mc.Explore.lts)
    (Lts.Graph.num_transitions space.Mc.Explore.lts)
    space.Mc.Explore.complete;
  if slice then begin
    let full =
      Mc.Explore.space ~max_states:10_000_000
        (Ta.Semantics.system (Ta.Semantics.compile model))
    in
    Printf.bprintf buf ",\"full_states\":%d,\"reduction_ratio\":%.2f"
      (Lts.Graph.num_states full.Mc.Explore.lts)
      (float_of_int (Lts.Graph.num_states full.Mc.Explore.lts)
      /. float_of_int (Lts.Graph.num_states space.Mc.Explore.lts))
  end;
  Buffer.add_string buf "}";
  Buffer.contents buf

let verdict_json ~model ~variant ~params ~fixed ~slice ~reduce ~engine ~req
    ~formula ~fairness_names ~stats ~to_string verdict =
  let open Printf in
  let buf = Buffer.create 256 in
  bprintf buf
    "{\"tool\":\"hbltl\",\"model\":\"%s\",\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,"
    model
    (H.Ta_models.variant_name variant)
    params.H.Params.tmin params.H.Params.tmax;
  bprintf buf
    "\"n\":%d,\"fixed\":%b,\"slice\":%b,\"reduce\":%b,\"requirement\":\"%s\",\"engine\":\"%s\","
    params.H.Params.n fixed slice reduce (H.Requirements.name req)
    (match engine with Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc");
  bprintf buf "\"formula\":%s,\"fairness\":[%s],\"stats\":%s,"
    (Lint.Report.json_str formula)
    (String.concat "," (List.map Lint.Report.json_str fairness_names))
    stats;
  (match verdict with
  | Ltl.Check.Holds -> bprintf buf "\"verdict\":\"holds\"}"
  | Ltl.Check.Unknown n ->
      bprintf buf "\"verdict\":\"unknown\",\"states\":%d}" n
  | Ltl.Check.Refuted l ->
      bprintf buf "\"verdict\":\"refuted\",\"lasso\":{\"prefix\":%s,\"cycle\":%s}}"
        (json_steps to_string l.Ltl.Check.prefix)
        (json_steps to_string l.Ltl.Check.cycle)
  | Ltl.Check.Exhausted e ->
      bprintf buf "\"verdict\":\"exhausted\",\"exhaustion\":%s}"
        (Cli_resilience.exhaustion_json e));
  Buffer.contents buf

let fairness_names fs =
  List.map (fun (f : _ Ltl.Check.fairness) -> f.Ltl.Check.fname) fs

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let run_check ?domains variant params fixed engine req =
  ( H.Verify.check_live ~fixed ~engine ?domains variant params req,
    Format.asprintf "%a" Ltl.Formula.pp
      (H.Requirements.live_formula variant params req) )

(* Exit code for a concluded verdict; [exit 0] is implicit. *)
let verdict_exit = function
  | Ltl.Check.Holds -> ()
  | Ltl.Check.Refuted _ -> exit Cli_resilience.exit_violation
  | Ltl.Check.Unknown _ -> exit Cli_resilience.exit_unknown
  | Ltl.Check.Exhausted _ -> exit Cli_resilience.exit_exhausted

(* A suspended product build reported as an [Exhausted] verdict: the
   checkpoint (when requested) carries the cursor, the report carries
   the partial state count. *)
let exhaustion_of_cursor reason cursor =
  let n = Mc.Explore.cursor_states cursor in
  {
    Mc.Explore.reason;
    states_so_far = n;
    coverage = Mc.Store.coverage_of ~mode:Mc.Store.exact ~stored:n;
  }

(* The process-algebra path (--pa): same requirements, read as LTL over
   the PA action names, with the ample-set reduction available because
   those formulas are stutter-invariant.  The constant "slice=false" in
   the checkpoint kind lets existing PA checkpoints resume, and the
   constant "slice":false keeps the JSON record's shape. *)
let run_pa_check ?domains ?budget ?ckpt_file ~ckpt_every ~resume_file variant
    params reduce engine json req =
  let pv =
    match H.Pa_models.of_ta variant with
    | Some pv -> pv
    | None -> assert false (* of_ta is total *)
  in
  let kind =
    Printf.sprintf
      "hbltl/check/pa/%s/slice=false/reduce=%b/req=%s/tmin=%d/tmax=%d/n=%d/engine=scc"
      (H.Pa_models.variant_name pv)
      reduce (H.Requirements.name req) params.H.Params.tmin
      params.H.Params.tmax params.H.Params.n
  in
  let resume = Cli_resilience.load_resume ~kind resume_file in
  let checkpoint =
    Option.map
      (fun file -> (ckpt_every, Cli_resilience.save_checkpoint ~kind file))
      ckpt_file
  in
  let result =
    H.Pa_verify.check_live_run ~engine ~reduce ?domains ?budget ?checkpoint
      ?resume pv params req
  in
  let verdict, suspended =
    match result with
    | Ltl.Check.Concluded v -> (v, false)
    | Ltl.Check.Suspended (reason, cursor) ->
        Option.iter
          (fun file -> Cli_resilience.save_checkpoint ~kind file cursor)
          ckpt_file;
        (Ltl.Check.Exhausted (exhaustion_of_cursor reason cursor), true)
  in
  let formula =
    Format.asprintf "%a" Ltl.Formula.pp
      (H.Requirements.live_formula_pa pv params req)
  in
  if json then
    print_endline
      (verdict_json ~model:"pa" ~variant ~params ~fixed:false ~slice:false
         ~reduce ~engine ~req ~formula
         ~fairness_names:(fairness_names H.Requirements.live_fairness_pa)
         ~stats:
           (match verdict with
           | Ltl.Check.Exhausted _ -> "null"
           | _ -> Cli_resilience.pa_stats_json ~reduce pv params)
         ~to_string:pa_step_string verdict)
  else begin
    Format.printf "PA %s %a %s-live (%s engine%s)@."
      (H.Pa_models.variant_name pv)
      H.Params.pp params (H.Requirements.name req)
      (match engine with Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc")
      (if reduce then ", reduced" else "");
    Format.printf "property: %s@." (H.Requirements.live_description req);
    Format.printf "formula:  %s@." formula;
    match verdict with
    | Ltl.Check.Holds -> Format.printf "verdict:  HOLDS@."
    | Ltl.Check.Unknown st ->
        Format.printf "verdict:  UNKNOWN (state bound hit at %d)@." st
    | Ltl.Check.Exhausted e ->
        Format.printf "verdict:  EXHAUSTED (%a)%s@." Mc.Explore.pp_exhaustion
          e
          (if suspended && ckpt_file <> None then "; checkpoint written"
           else "")
    | Ltl.Check.Refuted lasso ->
        Format.printf "verdict:  REFUTED@.@.";
        List.iter
          (fun s -> Format.printf "  %s@." (pa_step_string s))
          lasso.Ltl.Check.prefix;
        Format.printf "  -- cycle repeats forever --@.";
        List.iter
          (fun s -> Format.printf "  %s@." (pa_step_string s))
          lasso.Ltl.Check.cycle
  end;
  verdict

let check_cmd =
  let run variant tmin tmax n fixed pa slice reduce engine json msc jobs bsecs
      bmb ckpt_file ckpt_every resume_file req =
    let domains = Cli_resilience.resolve_jobs jobs in
    let params = Cli_resilience.params ~n ~tmin ~tmax () in
    if pa && fixed then
      Cli_resilience.usage
        "--fixed applies to the timed-automata models only (the PA \
         encoding has no fixed timing); drop --fixed or --pa";
    if pa && slice then
      Cli_resilience.usage
        "--slice applies to the timed-automata models only; drop --slice \
         or --pa";
    if reduce && not pa then
      Cli_resilience.usage
        "--reduce requires --pa (the ample-set reduction works on the \
         process-algebra models)";
    if (ckpt_file <> None || resume_file <> None) && engine <> Ltl.Check.Scc
    then
      Cli_resilience.usage
        "--checkpoint/--resume require the scc engine (the nested DFS \
         search state is not checkpointable); add --engine scc";
    let budget = Cli_resilience.budget bsecs bmb in
    if pa then
      verdict_exit
        (run_pa_check ~domains ~budget ?ckpt_file ~ckpt_every ~resume_file
           variant params reduce engine json req)
    else begin
      let kind =
        Printf.sprintf
          "hbltl/check/ta/%s/fixed=%b/slice=%b/req=%s/tmin=%d/tmax=%d/n=%d/engine=scc"
          (H.Ta_models.variant_name variant)
          fixed slice (H.Requirements.name req) tmin tmax n
      in
      let resume = Cli_resilience.load_resume ~kind resume_file in
      let checkpoint =
        Option.map
          (fun file -> (ckpt_every, Cli_resilience.save_checkpoint ~kind file))
          ckpt_file
      in
      let result =
        H.Verify.check_live_run ~fixed ~engine ~slice ~domains ~budget
          ?checkpoint ?resume variant params req
      in
      let verdict, suspended =
        match result with
        | Ltl.Check.Concluded v -> (v, false)
        | Ltl.Check.Suspended (reason, cursor) ->
            Option.iter
              (fun file -> Cli_resilience.save_checkpoint ~kind file cursor)
              ckpt_file;
            (Ltl.Check.Exhausted (exhaustion_of_cursor reason cursor), true)
      in
      let formula =
        Format.asprintf "%a" Ltl.Formula.pp
          (H.Requirements.live_formula variant params req)
      in
      if json then
        print_endline
          (verdict_json ~model:"ta" ~variant ~params ~fixed ~slice
             ~reduce:false ~engine ~req ~formula
             ~fairness_names:(fairness_names H.Requirements.live_fairness)
             ~stats:
               (match verdict with
               | Ltl.Check.Exhausted _ -> "null"
               | _ -> ta_stats_json ~fixed ~slice variant params)
             ~to_string:step_string verdict)
      else begin
        Format.printf "%s%s %a %s-live (%s engine)@."
          (H.Ta_models.variant_name variant)
          (if fixed then " [fixed]" else "")
          H.Params.pp params (H.Requirements.name req)
          (match engine with Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc");
        Format.printf "property: %s@." (H.Requirements.live_description req);
        Format.printf "formula:  %s@." formula;
        match verdict with
        | Ltl.Check.Holds -> Format.printf "verdict:  HOLDS@."
        | Ltl.Check.Unknown st ->
            Format.printf "verdict:  UNKNOWN (state bound hit at %d)@." st
        | Ltl.Check.Exhausted e ->
            Format.printf "verdict:  EXHAUSTED (%a)%s@."
              Mc.Explore.pp_exhaustion e
              (if suspended && ckpt_file <> None then "; checkpoint written"
               else "")
        | Ltl.Check.Refuted lasso ->
            Format.printf "verdict:  REFUTED@.@.";
            if msc then
              print_string
                (H.Msc.render_lasso ~n
                   ~header:
                     (Printf.sprintf "%s-live refutation — %s%s"
                        (H.Requirements.name req)
                        (H.Ta_models.variant_name variant)
                        (if fixed then " [fixed]" else ""))
                   lasso)
            else begin
              List.iter
                (fun e ->
                  Format.printf "  t=%-4d %s@." e.H.Scenarios.time
                    e.H.Scenarios.action)
                (H.Scenarios.timeline (Ltl.Check.strip lasso.Ltl.Check.prefix));
              Format.printf "  -- cycle repeats forever --@.";
              List.iter
                (fun s -> Format.printf "  %s@." (step_string s))
                lasso.Ltl.Check.cycle
            end
      end;
      verdict_exit verdict
    end
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the deterministic JSON verdict.")
  in
  let msc_arg =
    Arg.(
      value & flag
      & info [ "msc" ]
          ~doc:"Render a refutation lasso as a message sequence chart.")
  in
  let pa_arg =
    Arg.(
      value & flag
      & info [ "pa" ]
          ~doc:"Check the process-algebra encoding instead of the \
                timed-automata one (incompatible with --fixed).")
  in
  let slice_arg =
    Arg.(
      value & flag
      & info [ "slice" ]
          ~doc:"Check the statically sliced timed-automata model \
                (label-preserving, so liveness verdicts are unchanged; \
                incompatible with --pa).")
  in
  let reduce_arg =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:"With --pa: explore an ample-set reduced state space \
                (sound for these stutter-invariant formulas).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Exploration domains for the scc engine's product graph \
             (identical verdicts and lassos; ndfs is sequential and \
             ignores this). 0 uses all cores. Composes with --reduce.")
  in
  Cmd.v
    (Cmd.info "check" ~exits:Cli_resilience.exits
       ~doc:"Check the liveness formulation of one requirement.")
    Term.(
      const run $ variant_arg $ tmin_arg $ tmax_arg $ n_arg $ fixed_arg
      $ pa_arg $ slice_arg $ reduce_arg $ engine_arg $ json_arg $ msc_arg
      $ jobs_arg
      $ Cli_resilience.budget_secs_arg $ Cli_resilience.budget_mb_arg
      $ Cli_resilience.checkpoint_arg $ Cli_resilience.checkpoint_every_arg
      $ Cli_resilience.resume_arg $ req_arg)

(* ------------------------------------------------------------------ *)
(* table                                                               *)
(* ------------------------------------------------------------------ *)

let race_params variant =
  (* the simultaneity races need tmin = tmax; the multi-party variants
     get the smallest instance to keep the product small *)
  if H.Ta_models.is_multi variant && variant <> H.Ta_models.Static then
    H.Params.make ~tmin:2 ~tmax:2 ()
  else H.Params.make ~tmin:4 ~tmax:4 ()

let table_cmd =
  let run engine =
    Format.printf
      "liveness verdicts at the race point tmin = tmax (%s engine)@.@."
      (match engine with Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc");
    Format.printf "  %-19s %-18s %3s %3s %3s@." "variant" "params" "R1" "R2"
      "R3";
    List.iter
      (fun variant ->
        List.iter
          (fun fixed ->
            let params = race_params variant in
            let cell req =
              match H.Verify.check_live ~fixed ~engine variant params req with
              | Ltl.Check.Holds -> "T"
              | Ltl.Check.Refuted _ -> "F"
              | Ltl.Check.Unknown _ | Ltl.Check.Exhausted _ -> "?"
            in
            Format.printf "  %-19s %-18s %3s %3s %3s@."
              (H.Ta_models.variant_name variant
              ^ if fixed then " [fixed]" else "")
              (Format.asprintf "%a" H.Params.pp params)
              (cell H.Requirements.R1) (cell H.Requirements.R2)
              (cell H.Requirements.R3))
          [ false; true ])
      H.Ta_models.all_variants
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:"Liveness verdicts for all six variants, original and fixed.")
    Term.(const run $ engine_arg)

(* ------------------------------------------------------------------ *)
(* smoke: the CI gate                                                  *)
(* ------------------------------------------------------------------ *)

let smoke_cmd =
  let run () =
    let failures = ref 0 in
    let expect what ok =
      Format.printf "%-62s %s@." what (if ok then "ok" else "FAILED");
      if not ok then incr failures
    in
    let check ~fixed ~engine variant req =
      H.Verify.check_live ~fixed ~engine variant (race_params variant) req
    in
    List.iter
      (fun variant ->
        let name = H.Ta_models.variant_name variant in
        List.iter
          (fun req ->
            let rname = H.Requirements.name req in
            let unf = check ~fixed:false ~engine:Ltl.Check.Ndfs variant req in
            let unf' = check ~fixed:false ~engine:Ltl.Check.Scc variant req in
            let fx = check ~fixed:true ~engine:Ltl.Check.Ndfs variant req in
            let fx' = check ~fixed:true ~engine:Ltl.Check.Scc variant req in
            expect
              (Printf.sprintf "%s %s-live: engines agree (unfixed and fixed)"
                 name rname)
              (Ltl.Check.holds unf = Ltl.Check.holds unf'
              && Ltl.Check.holds fx = Ltl.Check.holds fx');
            expect
              (Printf.sprintf "%s %s-live: fixed model holds under fairness"
                 name rname)
              (Ltl.Check.holds fx);
            match req with
            | H.Requirements.R1 ->
                (* the untimed essence of R1 holds even unfixed: the races
                   break the 2*tmax bound, not eventual detection *)
                expect
                  (Printf.sprintf "%s R1-live: holds on the unfixed model too"
                     name)
                  (Ltl.Check.holds unf)
            | H.Requirements.R2 | H.Requirements.R3 ->
                expect
                  (Printf.sprintf
                     "%s %s-live: unfixed model refuted with a lasso cycle"
                     name rname)
                  (match unf with
                  | Ltl.Check.Refuted l -> l.Ltl.Check.cycle <> []
                  | _ -> false))
          H.Requirements.all)
      H.Ta_models.all_variants;
    (* JSON determinism: the same query twice is byte-identical *)
    let render () =
      let variant = H.Ta_models.Binary and req = H.Requirements.R2 in
      let params = race_params variant in
      let verdict, formula =
        run_check variant params false Ltl.Check.Scc req
      in
      verdict_json ~model:"ta" ~variant ~params ~fixed:false ~slice:false
        ~reduce:false ~engine:Ltl.Check.Scc ~req ~formula
        ~fairness_names:(fairness_names H.Requirements.live_fairness)
        ~stats:
          (ta_stats_json ~fixed:false ~slice:false variant
             (race_params variant))
        ~to_string:step_string verdict
    in
    expect "json verdict reproduces byte-identically" (render () = render ());
    (* the ample-set reduction must not change PA liveness verdicts *)
    let pa_params = H.Params.make ~tmin:2 ~tmax:2 () in
    List.iter
      (fun req ->
        let full = H.Pa_verify.check_live H.Pa_models.Binary pa_params req in
        let red =
          H.Pa_verify.check_live ~reduce:true H.Pa_models.Binary pa_params req
        in
        expect
          (Printf.sprintf "pa binary %s-live: reduced agrees with full"
             (H.Requirements.name req))
          (Ltl.Check.holds full = Ltl.Check.holds red))
      H.Requirements.all;
    (* neither must the static slice of the timed automata *)
    List.iter
      (fun req ->
        let ta_full =
          H.Verify.check_live H.Ta_models.Binary
            (race_params H.Ta_models.Binary) req
        in
        let ta_sl =
          H.Verify.check_live ~slice:true H.Ta_models.Binary
            (race_params H.Ta_models.Binary) req
        in
        expect
          (Printf.sprintf "ta binary %s-live: sliced agrees with full"
             (H.Requirements.name req))
          (Ltl.Check.holds ta_full = Ltl.Check.holds ta_sl))
      H.Requirements.all;
    (* show one lasso for the log *)
    (match
       H.Verify.check_live ~fixed:false ~engine:Ltl.Check.Scc H.Ta_models.Binary
         (race_params H.Ta_models.Binary) H.Requirements.R2
     with
    | Ltl.Check.Refuted lasso ->
        Format.printf "@.%s"
          (H.Msc.render_lasso
             ~header:"example: R2-live refutation — binary, tmin = tmax"
             lasso)
    | _ -> ());
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Deterministic liveness gate: fixed models hold under fairness, \
          unfixed ones are refuted with lassos, engines agree, JSON \
          reproduces byte-identically.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "hbltl" ~version:"1.0.0"
      ~doc:
        "LTL liveness model checking of accelerated heartbeat protocols \
         (Büchi products with lasso counterexamples)."
  in
  exit (Cmd.eval (Cmd.group info [ check_cmd; table_cmd; smoke_cmd ]))
