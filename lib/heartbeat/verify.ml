type outcome = {
  holds : bool;
  counterexample : Ta.Semantics.label list option;
  states_explored : int option;
  exhausted : Mc.Explore.exhaustion option;
}

let default_max = 5_000_000

(* Slice the model against the requirement's seed.  The returned pair
   is (sliced system to explore, bad predicate over it). *)
let sliced_parts variant params req model =
  let seed = Requirements.slice_seed variant params req in
  let sl = Slice_ta.slice ~seed model in
  let snet = Ta.Semantics.compile sl.Slice_ta.model in
  let bad = Requirements.bad_state variant params snet req in
  (Slice_ta.system sl snet, bad)

(* Dense-time check via the zone engine: same model builders, same bad
   predicates (they observe only the discrete part), different
   exploration.  Sequential and exact by construction, so the
   parallel/compressed-store knobs are rejected rather than ignored. *)
let check_zone ~fixed ~max_states ?budget ~lu variant params req =
  let with_r1_monitors = Requirements.needs_monitors req in
  let model = Ta_models.build ~fixed ~with_r1_monitors variant params in
  let z = Zone.Sym.compile ~lu model in
  let bad = Requirements.bad_state variant params (Zone.Sym.net z) req in
  let stats = Zone.Reach.new_stats () in
  match
    Zone.Reach.find ~max_states ?budget ~stats z ~goal:(Zone.Sym.bad_of z bad)
  with
  | Mc.Explore.Unreachable ->
      {
        holds = true;
        counterexample = None;
        states_explored = Some stats.Zone.Reach.states;
        exhausted = None;
      }
  | Mc.Explore.Reached w ->
      {
        holds = false;
        counterexample = Some w.Mc.Explore.trace;
        states_explored = None;
        exhausted = None;
      }
  | Mc.Explore.Exhausted e ->
      {
        holds = false;
        counterexample = None;
        states_explored = Some e.Mc.Explore.states_so_far;
        exhausted = Some e;
      }
  | Mc.Explore.Bound_hit n ->
      Format.kasprintf failwith
        "Verify.check: zone state bound %d exceeded (%s, %s, %a)" n
        (Ta_models.variant_name variant)
        (Requirements.name req) Params.pp params

let check ?(fixed = false) ?(max_states = default_max) ?(domains = 1)
    ?(slice = false) ?store ?budget ?degrade ?(zone = false)
    ?(lu = Zone.Sym.Global) variant params req =
  if zone then begin
    if slice then
      invalid_arg "Verify.check: zone and slice engines are exclusive";
    if domains > 1 || store <> None then
      invalid_arg
        "Verify.check: the zone engine is sequential with an exact store";
    check_zone ~fixed ~max_states ?budget ~lu variant params req
  end
  else begin
  if lu <> Zone.Sym.Global then
    invalid_arg "Verify.check: --lu location needs the zone engine";
  let with_r1_monitors = Requirements.needs_monitors req in
  let model = Ta_models.build ~fixed ~with_r1_monitors variant params in
  let net = Ta.Semantics.compile model in
  let slice_sys, bad =
    if slice then
      let sys, bad = sliced_parts variant params req model in
      (Some sys, bad)
    else (None, Requirements.bad_state variant params net req)
  in
  match
    Mc.Safety.check_state ~max_states ~domains ?slice:slice_sys ?store
      ?budget ?degrade (Ta.Semantics.system net) bad
  with
  | Mc.Safety.Holds ->
      {
        holds = true;
        counterexample = None;
        states_explored = None;
        exhausted = None;
      }
  | Mc.Safety.Violated trace ->
      {
        holds = false;
        counterexample = Some trace;
        states_explored = None;
        exhausted = None;
      }
  | Mc.Safety.Exhausted e ->
      (* no violation in the covered fraction, but no full verdict either *)
      {
        holds = false;
        counterexample = None;
        states_explored = Some e.Mc.Explore.states_so_far;
        exhausted = Some e;
      }
  | Mc.Safety.Unknown n ->
      Format.kasprintf failwith
        "Verify.check: state bound %d exceeded (%s, %s, %a)" n
        (Ta_models.variant_name variant)
        (Requirements.name req) Params.pp params
  end

(* The liveness formulas are pure label properties, so the slicing seed
   is empty: the pass keeps every guard (labels must be exact) and wins
   through dead writes, constant folding and clock activity alone. *)
let live_slice model =
  let sl = Slice_ta.slice model in
  Slice_ta.system sl (Ta.Semantics.compile sl.Slice_ta.model)

let check_live ?(fixed = false) ?(engine = Ltl.Check.Ndfs)
    ?(max_states = default_max) ?(slice = false) ?domains ?store ?budget
    variant params req =
  let model = Ta_models.build ~fixed variant params in
  let net = Ta.Semantics.compile model in
  let slice_sys = if slice then Some (live_slice model) else None in
  Ltl.Check.check ~engine ~fairness:Requirements.live_fairness ?slice:slice_sys
    ~max_states ?domains ?store ?budget (Ta.Semantics.system net)
    (Requirements.live_formula variant params req)

let check_live_run ?(fixed = false) ?(engine = Ltl.Check.Ndfs)
    ?(max_states = default_max) ?(slice = false) ?domains ?store ?budget
    ?checkpoint ?resume variant params req =
  let model = Ta_models.build ~fixed variant params in
  let net = Ta.Semantics.compile model in
  let slice_sys = if slice then Some (live_slice model) else None in
  Ltl.Check.check_run ~engine ~fairness:Requirements.live_fairness
    ?slice:slice_sys ~max_states ?domains ?store ?budget ?checkpoint ?resume
    (Ta.Semantics.system net)
    (Requirements.live_formula variant params req)

(* R1 with an explicit watchdog bound. *)
let r1_holds_with_bound ~fixed ~max_states ~domains variant params bound =
  let model =
    Ta_models.build ~fixed ~with_r1_monitors:true ~r1_bound:bound variant
      params
  in
  let net = Ta.Semantics.compile model in
  let bad = Requirements.bad_state variant params net Requirements.R1 in
  match
    Mc.Safety.check_state ~max_states ~domains (Ta.Semantics.system net) bad
  with
  | Mc.Safety.Holds -> true
  | Mc.Safety.Violated _ -> false
  | Mc.Safety.Unknown n ->
      Format.kasprintf failwith "Verify.worst_detection: state bound %d hit" n
  | Mc.Safety.Exhausted e ->
      (* unreachable without a budget (none is passed above) *)
      Format.kasprintf failwith "Verify.worst_detection: %a"
        Mc.Explore.pp_exhaustion e

let worst_detection ?(fixed = false) ?(max_states = default_max)
    ?(domains = 1) variant params =
  let ceiling = 4 * params.Params.tmax in
  if not (r1_holds_with_bound ~fixed ~max_states ~domains variant params ceiling)
  then
    Format.kasprintf failwith
      "Verify.worst_detection: no detection within %d (%s, %a)" ceiling
      (Ta_models.variant_name variant)
      Params.pp params;
  (* smallest bound that holds; bounds are monotone in B *)
  let rec search lo hi =
    (* invariant: lo fails (or is below every candidate), hi holds *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if r1_holds_with_bound ~fixed ~max_states ~domains variant params mid
      then search lo mid
      else search mid hi
  in
  search 0 ceiling

type row = { tmin : int; tmax : int; r1 : bool; r2 : bool; r3 : bool }

let table ?(fixed = false) ?(n = 1) ?(datasets = Params.table_datasets)
    ?(domains = 1) ?slice ?store variant =
  List.map
    (fun (tmin, tmax) ->
      let params = Params.make ~n ~tmin ~tmax () in
      let outcome req =
        (check ~fixed ~domains ?slice ?store variant params req).holds
      in
      {
        tmin;
        tmax;
        r1 = outcome Requirements.R1;
        r2 = outcome Requirements.R2;
        r3 = outcome Requirements.R3;
      })
    datasets

let pp_table ppf ~header rows =
  let tf b = if b then "T" else "F" in
  Format.fprintf ppf "%s@." header;
  Format.fprintf ppf "  %-6s" "tmin";
  List.iter (fun r -> Format.fprintf ppf " %4d" r.tmin) rows;
  Format.fprintf ppf "@.  %-6s" "tmax";
  List.iter (fun r -> Format.fprintf ppf " %4d" r.tmax) rows;
  Format.fprintf ppf "@.  %-6s" "R1";
  List.iter (fun r -> Format.fprintf ppf " %4s" (tf r.r1)) rows;
  Format.fprintf ppf "@.  %-6s" "R2";
  List.iter (fun r -> Format.fprintf ppf " %4s" (tf r.r2)) rows;
  Format.fprintf ppf "@.  %-6s" "R3";
  List.iter (fun r -> Format.fprintf ppf " %4s" (tf r.r3)) rows;
  Format.fprintf ppf "@."

let deadlocks ?(fixed = false) ?(max_states = default_max) ?(domains = 1)
    ?(store = Mc.Store.Exact) ?budget ?degrade variant params =
  let model = Ta_models.build ~fixed variant params in
  let net = Ta.Semantics.compile model in
  let sys = Ta.Semantics.system net in
  let goal c = Ta.Semantics.successors net c = [] in
  match
    if domains <= 1 && store = Mc.Store.Exact && budget = None then
      Mc.Explore.find ~max_states ~goal sys
    else
      Mc.Pexplore.find ~max_states ~domains ~store ?budget ?degrade ~goal sys
  with
  | Mc.Explore.Unreachable -> Mc.Safety.Holds
  | Mc.Explore.Reached w -> Mc.Safety.Violated w.Mc.Explore.trace
  | Mc.Explore.Bound_hit n -> Mc.Safety.Unknown n
  | Mc.Explore.Exhausted e -> Mc.Safety.Exhausted e

let deadlock_free ?fixed ?max_states ?domains ?store variant params =
  match deadlocks ?fixed ?max_states ?domains ?store variant params with
  | Mc.Safety.Holds -> true
  | Mc.Safety.Violated _ -> false
  | Mc.Safety.Unknown n ->
      Format.kasprintf failwith "Verify.deadlock_free: state bound %d hit" n
  | Mc.Safety.Exhausted e ->
      Format.kasprintf failwith "Verify.deadlock_free: %a"
        Mc.Explore.pp_exhaustion e
