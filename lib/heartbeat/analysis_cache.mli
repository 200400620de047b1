(** Aggregated hit counters for the memoised static analyses.

    Verification sweeps revisit the same model term at many table
    points; [Por.analyze_cached] and the [Lint] static bounds are
    memoised on the model term ({!Lint.Memo}), and this module gathers
    their counters for campaign-level stats reporting. *)

type stats = {
  por_lookups : int;
  por_hits : int;
  pa_bound_lookups : int;
  pa_bound_hits : int;
  ta_bound_lookups : int;
  ta_bound_hits : int;
  lu_lookups : int;
  lu_hits : int;
}

val stats : unit -> stats
(** Snapshot of all cache counters since start-up. *)

val lookups : stats -> int
val hits : stats -> int
