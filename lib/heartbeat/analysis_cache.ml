(* Aggregated hit counters for the memoised static analyses.

   The verify sweeps (tables, smoke matrices, benchmark campaigns)
   rebuild the same model at many table points and consult the same
   analyses — [Por.analyze] for the reduction, [Lubounds] LU tables for
   zone extrapolation, and for callers that ask, the [Lint.Pa] /
   [Lint.Ta_model] static state bounds — at each cell.  The analyses are
   memoised at their definition sites ([Lint.Memo]); this module just
   gathers the counters so campaign-level reports can show how much
   static-analysis work the caches absorbed. *)

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

let stats () =
  let por_lookups, por_hits = Por.cache_stats () in
  let pa_bound_lookups, pa_bound_hits = Lint.Pa.cache_stats () in
  let ta_bound_lookups, ta_bound_hits = Lint.Ta_model.cache_stats () in
  let lu_lookups, lu_hits = Lubounds.cache_stats () in
  {
    por_lookups;
    por_hits;
    pa_bound_lookups;
    pa_bound_hits;
    ta_bound_lookups;
    ta_bound_hits;
    lu_lookups;
    lu_hits;
  }

let lookups s =
  s.por_lookups + s.pa_bound_lookups + s.ta_bound_lookups + s.lu_lookups

let hits s = s.por_hits + s.pa_bound_hits + s.ta_bound_hits + s.lu_hits
