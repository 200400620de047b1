(* Shared plumbing for the command-line tools: budget flags,
   checkpoint/resume flags, documented exit codes, signal handling that
   turns an interrupted run into a reported partial result instead of a
   dead process, flag validation, and the JSON helpers more than one
   tool prints with. *)

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

(* Model parameters from the -n/--tmin/--tmax flags; values
   [Heartbeat.Params.make] rejects are a usage error, not an uncaught
   exception. *)
let params ?n ~tmin ~tmax () =
  try Heartbeat.Params.make ?n ~tmin ~tmax ()
  with Invalid_argument msg -> usage "%s" msg

(* Exploration domains from -j/--jobs: 0 means all recommended cores. *)
let resolve_jobs jobs =
  if jobs < 0 then usage "--jobs must be >= 0"
  else if jobs = 0 then Domain.recommended_domain_count ()
  else jobs

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

let budget_secs_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-secs" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget: after $(docv) seconds the run stops \
           cooperatively and reports partial results (exit 4).")

let budget_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-mb" ] ~docv:"MB"
        ~doc:
          "Live-heap budget in megabytes: a trip stops the run and \
           reports partial results (exit 4).  Where the subcommand offers \
           $(b,--no-degrade), the parallel engine ($(b,-j) 2 or more), a \
           compressed $(b,--store) and $(b,--count) first degrade the \
           state store down the compression ladder in place (exact, \
           hashcompact, bitstate) and only stop once the ladder is \
           exhausted.")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Disable the graceful store degradation on a memory-budget \
           trip: stop and report partial results instead.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write a versioned checkpoint to $(docv) periodically and on \
           suspension (budget trip or signal), for $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 100_000
    & info [ "checkpoint-every" ] ~docv:"STATES"
        ~doc:
          "Periodic checkpoint interval in expanded states (sequential \
           engine only; the parallel engine checkpoints on suspension).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by $(b,--checkpoint).  The \
           model, parameters and store mode must match the writing run \
           (the checkpoint records them and a mismatch is rejected).  \
           Sequential resumed runs are byte-identical to uninterrupted \
           ones; parallel ones are verdict-identical.")

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

let exhaustion_json (e : Mc.Explore.exhaustion) =
  Printf.sprintf "{\"reason\":\"%s\",\"states\":%d,\"coverage\":%s}"
    (Mc.Budget.reason_name e.Mc.Explore.reason)
    e.Mc.Explore.states_so_far
    (coverage_json e.Mc.Explore.coverage)

(* Exploration statistics of a (possibly reduced) process-algebra state
   space as a deterministic JSON object; with [reduce] also the
   full-space size and the reduction ratio, so CI logs show what the
   reduction bought. *)
let pa_stats_json ~reduce variant params =
  let module P = Heartbeat.Pa_verify in
  let st = P.explore ~reduce variant params in
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"states\":%d,\"transitions\":%d,\"complete\":%b"
    st.P.states st.P.transitions st.P.complete;
  if reduce then begin
    let full = P.explore variant params in
    Printf.bprintf buf ",\"full_states\":%d,\"reduction_ratio\":%.2f"
      full.P.states
      (float_of_int full.P.states /. float_of_int st.P.states)
  end;
  Buffer.add_string buf "}";
  Buffer.contents buf
