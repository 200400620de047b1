(* hblint: static analysis over the PA and TA heartbeat models.

   Runs the {!Lint} passes (sort inference, structural lints, interval
   range analysis, state-bound estimation) over every shipped model —
   all six protocol variants in both encodings, the TA family in both
   the paper's and the corrected (fixed) timing — and renders a text or
   byte-deterministic JSON report.

   Exit status: 0 when clean, 1 when any error (or, with [--strict],
   any warning) survives the allowlist, 2 on usage errors. *)

open Cmdliner
module H = Heartbeat

type kind =
  | Pa of H.Ta_models.variant
  | Ta of H.Ta_models.variant * bool (* fixed? *)

(* The shipped-model inventory, linted with the same mid-size parameter
   point the test-suite uses.  Names are stable CLI identifiers:
   "pa:binary", "ta:binary", "ta:binary:fixed", ... *)
let inventory : (string * kind) list =
  List.concat_map
    (fun v ->
      let name = H.Ta_models.variant_name v in
      [
        ("pa:" ^ name, Pa v);
        ("ta:" ^ name, Ta (v, false));
        ("ta:" ^ name ^ ":fixed", Ta (v, true));
      ])
    H.Ta_models.all_variants

let lint_params = H.Params.make ~n:2 ~tmin:4 ~tmax:10 ()

let run_one name kind : Lint.Report.t =
  match kind with
  | Pa v ->
      (* The PA reports also carry the dependence analysis the ample-set
         reducer is built on (PA-POR info entries). *)
      let spec = H.Pa_models.build v lint_params in
      let r = Lint.Pa.analyze ~model:name spec in
      Lint.Report.make ~model:name
        ~diags:(r.Lint.Report.diags @ Por.diagnostics (Por.analyze spec))
        ~stats:r.Lint.Report.stats
  | Ta (v, fixed) ->
      (* TA reports carry the property-free slice summary (TA-SLICE):
         folded constants, dead writes, inactive clocks — the zone
         engine's fragment check (TA-ZONE): errors on anything --zone
         could not explore (diagonal constraints, clocks under
         disjunction, non-integer clock comparisons, clock-guarded
         broadcast receivers), clock-read case splits and each clock's
         network-wide LU bounds — and the location-sensitive LU tables
         (TA-LU) from the [lubounds] backward fixpoint the zone engine
         extrapolates with, with the one warning per bound the interval
         analysis cannot close (TA-LU-DIVERGE). *)
      let model = H.Ta_models.build ~fixed ~with_r1_monitors:true v lint_params in
      let r = Lint.Ta_model.analyze ~model:name model in
      Lint.Report.make ~model:name
        ~diags:
          (r.Lint.Report.diags
          @ Slice.Ta.diagnostics (Slice.Ta.slice model)
          @ Zone.Sym.diagnostics model
          @ Lubounds.diagnostics model)
        ~stats:r.Lint.Report.stats

(* Allowlist entries are "CODE" (waive the code everywhere) or
   "MODEL/CODE" (waive it for one model).  Waived diagnostics stay in the
   report, demoted to info, and never gate. *)
let allow_of specs model (d : Lint.Report.diag) =
  List.exists (fun spec -> Lint.Report.spec_matches spec ~model d) specs

(* Waivers that matched nothing are themselves findings: a stale --allow
   hides future regressions of the code it names.  Reported as a
   synthetic model so they render and gate like any other warning. *)
let unused_waivers allows reports =
  match Lint.Report.unused_allows allows reports with
  | [] -> []
  | unused ->
      [
        Lint.Report.make ~model:"(allowlist)"
          ~diags:
            (List.map
               (fun spec ->
                 Lint.Report.diag ~code:"UNUSED-WAIVER" ~where:spec
                   "allow entry matched no diagnostic in this run")
               unused)
          ~stats:Lint.Report.no_stats;
      ]

let models_arg =
  Arg.(
    value & opt_all string []
    & info [ "model" ] ~docv:"NAME"
        ~doc:
          "Lint only $(docv) (repeatable); e.g. pa:binary, ta:static:fixed. \
           Default: every shipped model.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Fail (exit 1) on warnings, not just errors.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Include inferred variable ranges.")

let allow_arg =
  Arg.(
    value & opt_all string []
    & info [ "allow" ] ~docv:"[MODEL/]CODE"
        ~doc:
          "Waive a diagnostic code, globally or for one model \
           (repeatable).  Waived findings are demoted to info.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List model names and exit.")

let run models json strict verbose allows list =
  if list then begin
    List.iter (fun (name, _) -> print_endline name) inventory;
    0
  end
  else
    let selected =
      match models with
      | [] -> Ok inventory
      | names ->
          let missing =
            List.filter (fun n -> not (List.mem_assoc n inventory)) names
          in
          if missing <> [] then Error missing
          else Ok (List.filter (fun (n, _) -> List.mem n names) inventory)
    in
    match selected with
    | Error missing ->
        List.iter (Printf.eprintf "hblint: unknown model %s\n") missing;
        Printf.eprintf "hblint: use --list for the inventory\n";
        2
    | Ok selected ->
        let reports =
          List.map
            (fun (name, kind) ->
              Lint.Report.waive (allow_of allows) (run_one name kind))
            selected
        in
        let reports = reports @ unused_waivers allows reports in
        if json then print_string (Lint.Report.to_json reports)
        else
          List.iter
            (fun r -> Format.printf "%a" (Lint.Report.pp ~verbose) r)
            reports;
        let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
        let errors = total Lint.Report.errors
        and warnings = total Lint.Report.warnings in
        if errors > 0 || (strict && warnings > 0) then 1 else 0

let cmd =
  Cmd.v
    (Cmd.info "hblint" ~version:"1.0.0"
       ~doc:
         "Static analysis (typechecking, structural lints, range analysis, \
          state-bound estimation) over the heartbeat PA and TA models.")
    Term.(
      const run $ models_arg $ Cli_resilience.json_arg $ strict_arg $ verbose_arg
      $ allow_arg $ list_arg)

let () = exit (Cmd.eval' cmd)
