(* hbltl: LTL liveness checking of the accelerated heartbeat protocols.

   Where hbverify answers reachability questions (can a bad state be
   reached?), hbltl answers liveness ones (does the beat exchange keep
   happening on every fair run?).  Refutations are lassos: a finite
   prefix plus a cycle that repeats forever. *)

open Cmdliner
module H = Heartbeat

let engine_name = function Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc"

let engine_conv =
  let parse = function
    | "ndfs" -> Ok Ltl.Check.Ndfs
    | "scc" -> Ok Ltl.Check.Scc
    | s -> Error (`Msg ("unknown engine " ^ s ^ " (expected ndfs or scc)"))
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf (engine_name e))

let engine_arg =
  Arg.(
    value
    & opt engine_conv Ltl.Check.Ndfs
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Emptiness engine: ndfs (on-the-fly nested DFS) or scc \
              (Tarjan components over the built product).")

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
    (engine_name engine);
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
  { Mc.Explore.reason; states_so_far = Mc.Explore.cursor_states cursor }

(* A refutation lasso as text: the prefix as [prefix] renders it, then
   the cycle, one step per line. *)
let print_lasso ~prefix ~step (lasso : _ Ltl.Check.lasso) =
  prefix lasso.Ltl.Check.prefix;
  Format.printf "  -- cycle repeats forever --@.";
  List.iter (fun s -> Format.printf "  %s@." (step s)) lasso.Ltl.Check.cycle

let check_cmd =
  let run variant params fixed pa slice reduce engine json msc bsecs bmb
      ckpt_file ckpt_every resume_file req =
    if pa && fixed then
      Cli_resilience.usage
        "--fixed applies to the timed-automata models only (the PA \
         encoding has no fixed timing); drop --fixed or --pa";
    if pa && slice then
      Cli_resilience.usage
        "--slice applies to the timed-automata models only; drop --slice \
         or --pa";
    if pa && msc then
      Cli_resilience.usage
        "--msc renders timed-automata lassos only; drop --msc or --pa";
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
    let model = if pa then "pa" else "ta" in
    (* One path for both encodings: resume from a checkpoint of the same
       kind, run, save the cursor of a suspended product build, then
       print the verdict as JSON or text.  The encodings differ only in
       the arguments. *)
    let check ~flags ~run ~formula ~fairness ~stats ~step ~print_refutation =
      (* the kind guards resume identity *)
      let kind =
        Printf.sprintf
          "hbltl/check/%s/%s/%s/req=%s/tmin=%d/tmax=%d/n=%d/engine=scc" model
          (H.Ta_models.variant_name variant)
          flags (H.Requirements.name req) params.H.Params.tmin
          params.H.Params.tmax params.H.Params.n
      in
      let resume = Cli_resilience.load_resume ~kind resume_file in
      let checkpoint =
        Option.map
          (fun file -> (ckpt_every, Cli_resilience.save_checkpoint ~kind file))
          ckpt_file
      in
      let verdict, suspended =
        match run ~checkpoint ~resume with
        | Ltl.Check.Concluded v -> (v, false)
        | Ltl.Check.Suspended (reason, cursor) ->
            Option.iter
              (fun file -> Cli_resilience.save_checkpoint ~kind file cursor)
              ckpt_file;
            (Ltl.Check.Exhausted (exhaustion_of_cursor reason cursor), true)
      in
      let formula = Format.asprintf "%a" Ltl.Formula.pp formula in
      if json then
        print_endline
          (verdict_json ~model ~variant ~params ~fixed ~slice ~reduce ~engine
             ~req ~formula ~fairness_names:(fairness_names fairness)
             ~stats:
               (match verdict with
               | Ltl.Check.Exhausted _ -> "null"
               | _ -> stats ())
             ~to_string:step verdict)
      else begin
        Format.printf "%s%s%s %a %s-live (%s engine%s)@."
          (if pa then "PA " else "")
          (H.Ta_models.variant_name variant)
          (if fixed then " [fixed]" else "")
          H.Params.pp params (H.Requirements.name req) (engine_name engine)
          (if reduce then ", reduced" else "");
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
            print_refutation lasso
      end;
      verdict_exit verdict
    in
    if pa then
      (* The process-algebra encoding: the same requirements, read as LTL
         over the PA action names, with the ample-set reduction
         available because those formulas are stutter-invariant. *)
      check
        ~flags:(Printf.sprintf "reduce=%b" reduce)
        ~run:(fun ~checkpoint ~resume ->
          H.Pa_verify.check_live_run ~engine ~reduce ~budget ?checkpoint
            ?resume variant params req)
        ~formula:(H.Requirements.live_formula_pa variant params req)
        ~fairness:H.Requirements.live_fairness_pa
        ~stats:(fun () ->
          let sys, full =
            Cli_resilience.pa_systems ~reduce
              (H.Pa_models.build variant params)
          in
          Cli_resilience.stats_json ~max_states:4_000_000 ?full sys)
        ~step:pa_step_string
        ~print_refutation:
          (print_lasso ~step:pa_step_string
             ~prefix:
               (List.iter (fun s -> Format.printf "  %s@." (pa_step_string s))))
    else
      check
        ~flags:(Printf.sprintf "fixed=%b/slice=%b" fixed slice)
        ~run:(fun ~checkpoint ~resume ->
          H.Verify.check_live_run ~fixed ~engine ~slice ~budget ?checkpoint
            ?resume variant params req)
        ~formula:(H.Requirements.live_formula variant params req)
        ~fairness:H.Requirements.live_fairness
        ~stats:(fun () ->
          let sys, full =
            Cli_resilience.ta_systems ~slice
              (H.Ta_models.build ~fixed variant params)
          in
          Cli_resilience.stats_json ~max_states:10_000_000 ?full sys)
        ~step:step_string
        ~print_refutation:(fun lasso ->
          if msc then
            print_string
              (H.Msc.render_lasso ~n:params.H.Params.n
                 ~header:
                   (Printf.sprintf "%s-live refutation — %s%s"
                      (H.Requirements.name req)
                      (H.Ta_models.variant_name variant)
                      (if fixed then " [fixed]" else ""))
                 lasso)
          else
            print_lasso ~step:step_string lasso ~prefix:(fun prefix ->
                List.iter
                  (fun e ->
                    Format.printf "  t=%-4d %s@." e.H.Scenarios.time
                      e.H.Scenarios.action)
                  (H.Scenarios.timeline (Ltl.Check.strip prefix))))
  in
  let pa_arg =
    Arg.(
      value & flag
      & info [ "pa" ]
          ~doc:"Check the process-algebra encoding instead of the \
                timed-automata one (incompatible with --fixed and \
                --slice; the only encoding --reduce applies to).")
  in
  Cmd.v
    (Cmd.info "check" ~exits:Cli_resilience.exits
       ~doc:"Check the liveness formulation of one requirement.")
    Term.(
      const run $ Cli_resilience.variant_arg
      $ Cli_resilience.params ~n:1 ~tmin:10 ~tmax:10 ()
      $ Cli_resilience.fixed_arg $ pa_arg $ Cli_resilience.slice_arg
      $ Cli_resilience.reduce_arg $ engine_arg $ Cli_resilience.json_arg
      $ Cli_resilience.msc_arg $ Cli_resilience.budget_secs_arg
      $ Cli_resilience.budget_mb_arg
      $ Cli_resilience.checkpoint_arg $ Cli_resilience.checkpoint_every_arg
      $ Cli_resilience.resume_arg $ Cli_resilience.req_arg)

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
      (engine_name engine);
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
      let verdict =
        H.Verify.check_live ~engine:Ltl.Check.Scc variant params req
      in
      let sys, _ =
        Cli_resilience.ta_systems ~slice:false
          (H.Ta_models.build variant params)
      in
      verdict_json ~model:"ta" ~variant ~params ~fixed:false ~slice:false
        ~reduce:false ~engine:Ltl.Check.Scc ~req
        ~formula:
          (Format.asprintf "%a" Ltl.Formula.pp
             (H.Requirements.live_formula variant params req))
        ~fairness_names:(fairness_names H.Requirements.live_fairness)
        ~stats:(Cli_resilience.stats_json ~max_states:10_000_000 sys)
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
