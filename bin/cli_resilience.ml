(* Shared plumbing for the command-line tools: the one definition of
   every flag more than one tool takes (model parameters, variant,
   requirement, engine switches, budget and checkpoint/resume flags),
   documented exit codes, signal handling that turns an interrupted run
   into a reported partial result instead of a dead process, flag
   validation, and the JSON helpers more than one tool prints with. *)

open Cmdliner

(* Exit codes, shared by every verification subcommand:
     0   clean verdict (holds / deadlock-free / campaign passed)
     1   violation, refutation or deadlock found
     2   usage error the flag parser cannot see: conflicting flags, an
         unknown name, an unreadable checkpoint, a malformed model file
     3   state bound hit before a verdict (Unknown)
     4   resource budget exhausted or run interrupted; partial results
         were reported (and a checkpoint written when requested)
     130 forced quit (second SIGINT/SIGTERM)
   The 12x range stays with cmdliner (123 some error, 124 command-line
   parse error, 125 internal error). *)
let exit_violation = 1
let exit_usage = 2
let exit_unknown = 3
let exit_exhausted = 4

(* Report a usage error as one line on stderr, prefixed with the tool
   name, and exit 2.  Typed like [failwith], so it fits any branch. *)
let usage fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "%s: %s@."
        (Filename.remove_extension (Filename.basename Sys.executable_name))
        msg;
      exit exit_usage)
    fmt

let exits =
  Cmd.Exit.info 0 ~doc:"on a clean verdict." ::
  Cmd.Exit.info exit_violation
    ~doc:"when a violation, refutation or deadlock was found." ::
  Cmd.Exit.info exit_usage
    ~doc:"on a usage error: conflicting flags, an unknown name, an \
          unreadable checkpoint or a malformed model file." ::
  Cmd.Exit.info exit_unknown
    ~doc:"when the state bound was hit before a verdict (UNKNOWN)." ::
  Cmd.Exit.info exit_exhausted
    ~doc:"when the resource budget tripped or the run was interrupted \
          (SIGINT/SIGTERM); partial results were reported, and a \
          checkpoint written if $(b,--checkpoint) was given." ::
  Cmd.Exit.info 130 ~doc:"on a forced quit (second SIGINT/SIGTERM)." ::
  Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* The model and engine flags, each defined once                        *)
(* ------------------------------------------------------------------ *)

let variant_conv =
  let name = Heartbeat.Ta_models.variant_name in
  let all = Heartbeat.Ta_models.all_variants in
  let parse s =
    match List.find_opt (fun v -> name v = s) all with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown variant %s (expected one of: %s)" s
                (String.concat ", " (List.map name all))))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let variant_arg =
  Arg.(
    value
    & opt variant_conv Heartbeat.Ta_models.Binary
    & info [ "v"; "variant" ] ~docv:"VARIANT"
        ~doc:"Protocol variant: binary, revised, two-phase, static, \
              expanding or dynamic.")

let n_arg default =
  Arg.(
    value & opt int default
    & info [ "n" ] ~docv:"N"
        ~doc:"Number of participants (multi-party variants).")

let tmin_arg default =
  Arg.(
    value & opt int default
    & info [ "tmin" ] ~docv:"TMIN" ~doc:"Lower round bound.")

let tmax_arg default =
  Arg.(
    value & opt int default
    & info [ "tmax" ] ~docv:"TMAX" ~doc:"Upper round bound.")

(* The model parameters -n, --tmin and --tmax as one term, validated by
   [Heartbeat.Params.make]: a value it rejects is a usage error, not an
   uncaught exception.  Each argument is the calling subcommand's
   default for that flag; a flag without a default is not offered and
   reads 1. *)
let params ?n ?tmin ?tmax () =
  let flag arg = function Some d -> arg d | None -> Term.const 1 in
  let make n tmin tmax =
    try Heartbeat.Params.make ~n ~tmin ~tmax ()
    with Invalid_argument msg -> usage "%s" msg
  in
  Term.(const make $ flag n_arg n $ flag tmin_arg tmin $ flag tmax_arg tmax)

let req_conv =
  let parse = function
    | "R1" | "r1" -> Ok Heartbeat.Requirements.R1
    | "R2" | "r2" -> Ok Heartbeat.Requirements.R2
    | "R3" | "r3" -> Ok Heartbeat.Requirements.R3
    | s -> Error (`Msg ("unknown requirement " ^ s))
  in
  Arg.conv
    ( parse,
      fun ppf r -> Format.pp_print_string ppf (Heartbeat.Requirements.name r) )

let req_arg =
  Arg.(
    required
    & pos 0 (some req_conv) None
    & info [] ~docv:"REQ" ~doc:"Requirement: R1, R2 or R3.")

let fixed_arg =
  Arg.(
    value & flag
    & info [ "fixed" ]
        ~doc:"Use the corrected (section-6) version of the model.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the deterministic JSON result.")

let slice_arg =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:
          "Use the statically sliced timed-automata model: dead writes, \
           constant folding, clock activity and, for a safety check, the \
           requirement's cone of influence.  The slice is an exact, \
           label-preserving projection: verdicts are unchanged.")

let reduce_arg =
  Arg.(
    value & flag
    & info [ "reduce" ]
        ~doc:
          "Explore the ample-set reduced state space of the \
           process-algebra model (sound partial-order reduction: same \
           verdicts, fewer states).")

let zone_arg =
  Arg.(
    value & flag
    & info [ "zone" ]
        ~doc:
          "Report on the dense-time zone graph (canonical DBMs with \
           inclusion subsumption) alone: zone counts instead of the \
           discrete state space, or the zone verdict with its \
           counterexample as an action sequence modulo time, without the \
           discrete witness search.  Verdicts coincide for the shipped \
           models.")

let msc_arg =
  Arg.(
    value & flag
    & info [ "msc" ]
        ~doc:
          "Render the counterexample as a message sequence chart instead \
           of an event list.")

(* ------------------------------------------------------------------ *)
(* Budgets, checkpoints and resume                                      *)
(* ------------------------------------------------------------------ *)

(* A budget or an interval of zero or less would trip at once or never
   fire: a usage error, like every other out-of-range flag value. *)
let positive flag ok x = if ok x then x else usage "%s must be > 0" flag

let budget_secs_arg =
  Term.(
    const (Option.map (positive "--budget-secs" (fun s -> s > 0.)))
    $ Arg.(
        value
        & opt (some float) None
        & info [ "budget-secs" ] ~docv:"SECS"
            ~doc:
              "Wall-clock budget: after $(docv) seconds the run stops \
               cooperatively and reports partial results (exit 4)."))

let budget_mb_arg =
  Term.(
    const (Option.map (positive "--budget-mb" (fun mb -> mb > 0)))
    $ Arg.(
        value
        & opt (some int) None
        & info [ "budget-mb" ] ~docv:"MB"
            ~doc:
              "Live-heap budget in megabytes: a trip stops the run and \
               reports partial results (exit 4).  Under $(b,hbexplore \
               stats --count) a trip first degrades the state store down \
               the compression ladder in place (exact, hashcompact, \
               bitstate), and the run only stops once the ladder is \
               exhausted."))

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a versioned checkpoint to $(docv) periodically and on \
           suspension (budget trip or signal), for $(b,--resume).")

let checkpoint_every_arg =
  Term.(
    const (positive "--checkpoint-every" (fun k -> k > 0))
    $ Arg.(
        value & opt int 100_000
        & info [ "checkpoint-every" ] ~docv:"STATES"
            ~doc:"Periodic checkpoint interval in expanded states."))

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by $(b,--checkpoint).  The \
           model and parameters must match the writing run (the \
           checkpoint records them and a mismatch is rejected).  A \
           resumed run is byte-identical to an uninterrupted one.")

(* Every resilient subcommand carries a budget, even without limits: it
   is the SIGINT/SIGTERM cancellation token that turns Ctrl-C into a
   partial result (plus checkpoint) instead of a dead process.  A second
   signal force-quits with 130. *)
let budget secs mb =
  let b = Mc.Budget.make ?wall_secs:secs ?mem_mb:mb () in
  Mc.Budget.install_signal_handlers b;
  b

let save_checkpoint ~kind file cursor =
  Mc.Checkpoint.save ~file ~kind cursor;
  Format.eprintf "checkpoint written to %s@." file

let load_resume ~kind = function
  | None -> None
  | Some file -> (
      match Mc.Checkpoint.load ~file ~kind with
      | Ok c -> Some c
      | Error e -> usage "cannot resume from %s: %s" file e)

let coverage_json (c : Mc.Store.coverage) =
  Printf.sprintf "{\"mode\":%s,\"est_coverage\":%.6f}"
    (Lint.Report.json_str c.Mc.Store.mode)
    c.Mc.Store.est_coverage

(* Exhaustions come from exact stores only, so their coverage object is
   the exact store's constant one. *)
let exhaustion_json (e : Mc.Explore.exhaustion) =
  Printf.sprintf "{\"reason\":\"%s\",\"states\":%d,\"coverage\":%s}"
    (Mc.Budget.reason_name e.Mc.Explore.reason)
    e.Mc.Explore.states_so_far
    (coverage_json
       (Mc.Store.coverage_of ~mode:Mc.Store.exact
          ~stored:e.Mc.Explore.states_so_far))

(* The system a check explores and, for a slice or a reduction, the
   full system it came from.  The slice is the property-free one: no
   seed, so it wins through dead writes, folded constants and clock
   activity alone. *)
let ta_systems ~slice model =
  let full = Ta.Semantics.system (Ta.Semantics.compile model) in
  if slice then
    let sl = Slice.Ta.slice model in
    (Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model), Some full)
  else (full, None)

let pa_systems ~reduce spec =
  let full = Proc.Semantics.system spec in
  if reduce then (Por.reduced_system (Por.analyze_cached spec), Some full)
  else (full, None)

(* The states, transitions and completeness of [sys] as
   [Mc.Explore.space ~max_states] reports them (past the bound, only
   edges between retained states count), in one breadth-first pass that
   builds no graph: the index numbers the states, and a queue holds the
   unexpanded ones. *)
let space_counts (type s l) ~max_states (sys : (s, l) Mc.System.t) =
  let module S = (val sys) in
  let module I = Mc.Explore.Index (S) in
  let index = I.create () in
  let frontier = Queue.create () in
  ignore (I.intern index S.initial ~max_states:max_int);
  Queue.add S.initial frontier;
  let transitions = ref 0 in
  let complete = ref true in
  while not (Queue.is_empty frontier) do
    List.iter
      (fun (_, s') ->
        let fresh = I.count index in
        let id = I.intern index s' ~max_states in
        if id < 0 then complete := false
        else begin
          incr transitions;
          if id = fresh then Queue.add s' frontier
        end)
      (S.successors (Queue.pop frontier))
  done;
  (I.count index, !transitions, !complete)

(* Statistics of the state space a check ran on, as a deterministic
   JSON object: states, transitions and completeness of [sys]; with
   [full], the unsliced or unreduced system [sys] was derived from, also
   the full state count and the ratio, so CI logs show what the slice or
   reduction bought. *)
let stats_json ~max_states ?full sys =
  let states, transitions, complete = space_counts ~max_states sys in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"states\":%d,\"transitions\":%d,\"complete\":%b"
    states transitions complete;
  Option.iter
    (fun full ->
      let full, _ = Mc.Explore.count ~max_states full in
      Printf.bprintf buf ",\"full_states\":%d,\"reduction_ratio\":%.2f" full
        (float_of_int full /. float_of_int states))
    full;
  Buffer.add_string buf "}";
  Buffer.contents buf
