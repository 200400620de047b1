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

(* [states] is what a full run reports explored; [engine] prefixes the
   state-bound failure. *)
let outcome ~engine ~states variant params req = function
  | Mc.Explore.Unreachable ->
      {
        holds = true;
        counterexample = None;
        states_explored = states;
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
      (* no violation in the covered fraction, but no full verdict either *)
      {
        holds = false;
        counterexample = None;
        states_explored = Some e.Mc.Explore.states_so_far;
        exhausted = Some e;
      }
  | Mc.Explore.Bound_hit n ->
      Format.kasprintf failwith
        "Verify.check: %sstate bound %d exceeded (%s, %s, %a)" engine n
        (Ta_models.variant_name variant)
        (Requirements.name req) Params.pp params

(* Dense-time check via the zone engine: same model builders, same bad
   predicates (they observe only the discrete part), different
   exploration. *)
let check_zone ~fixed ?budget variant params req =
  let with_r1_monitors = Requirements.needs_monitors req in
  let model = Ta_models.build ~fixed ~with_r1_monitors variant params in
  let z = Zone.Sym.compile model in
  let bad = Requirements.bad_state variant params (Zone.Sym.net z) req in
  let stats = Zone.Reach.new_stats () in
  let r =
    Zone.Reach.find ~max_states:default_max ?budget ~stats z
      ~goal:(Zone.Sym.bad_of z bad)
  in
  outcome ~engine:"zone " ~states:(Some stats.Zone.Reach.states) variant
    params req r

let check ?(fixed = false) ?(slice = false) ?budget ?(zone = false) ?lu:_
    variant params req =
  if zone then begin
    if slice then
      invalid_arg "Verify.check: zone and slice engines are exclusive";
    check_zone ~fixed ?budget variant params req
  end
  else begin
    let with_r1_monitors = Requirements.needs_monitors req in
    let model = Ta_models.build ~fixed ~with_r1_monitors variant params in
    let sys, bad =
      if slice then sliced_parts variant params req model
      else
        let net = Ta.Semantics.compile model in
        (Ta.Semantics.system net, Requirements.bad_state variant params net req)
    in
    outcome ~engine:"" ~states:None variant params req
      (Mc.Explore.find ~max_states:default_max ?budget ~goal:bad sys)
  end

(* The liveness formulas are pure label properties, so the slicing seed
   is empty: the pass keeps every guard (labels must be exact) and wins
   through dead writes, constant folding and clock activity alone. *)
let live_system ~fixed ~slice variant params =
  let model = Ta_models.build ~fixed variant params in
  if slice then
    let sl = Slice_ta.slice model in
    Slice_ta.system sl (Ta.Semantics.compile sl.Slice_ta.model)
  else Ta.Semantics.system (Ta.Semantics.compile model)

let check_live ?(fixed = false) ?(engine = Ltl.Check.Ndfs) ?(slice = false)
    variant params req =
  Ltl.Check.check ~engine ~fairness:Requirements.live_fairness
    ~max_states:default_max
    (live_system ~fixed ~slice variant params)
    (Requirements.live_formula variant params req)

let check_live_run ?(fixed = false) ?(engine = Ltl.Check.Ndfs) ?(slice = false)
    ?budget ?checkpoint ?resume variant params req =
  Ltl.Check.check_run ~engine ~fairness:Requirements.live_fairness
    ~max_states:default_max ?budget ?checkpoint ?resume
    (live_system ~fixed ~slice variant params)
    (Requirements.live_formula variant params req)

(* R1 with an explicit watchdog bound. *)
let r1_holds_with_bound ~fixed variant params bound =
  let model =
    Ta_models.build ~fixed ~with_r1_monitors:true ~r1_bound:bound variant
      params
  in
  let net = Ta.Semantics.compile model in
  let bad = Requirements.bad_state variant params net Requirements.R1 in
  match
    Mc.Explore.find ~max_states:default_max ~goal:bad (Ta.Semantics.system net)
  with
  | Mc.Explore.Unreachable -> true
  | Mc.Explore.Reached _ -> false
  | Mc.Explore.Bound_hit n ->
      Format.kasprintf failwith "Verify.worst_detection: state bound %d hit" n
  | Mc.Explore.Exhausted e ->
      (* unreachable without a budget (none is passed above) *)
      Format.kasprintf failwith "Verify.worst_detection: %a"
        Mc.Explore.pp_exhaustion e

let worst_detection ?(fixed = false) variant params =
  let ceiling = 4 * params.Params.tmax in
  if not (r1_holds_with_bound ~fixed variant params ceiling) then
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
      if r1_holds_with_bound ~fixed variant params mid then search lo mid
      else search mid hi
  in
  search 0 ceiling

type row = { tmin : int; tmax : int; r1 : bool; r2 : bool; r3 : bool }

let table ?(fixed = false) ?(n = 1) variant =
  List.map
    (fun (tmin, tmax) ->
      let params = Params.make ~n ~tmin ~tmax () in
      let outcome req = (check ~fixed variant params req).holds in
      {
        tmin;
        tmax;
        r1 = outcome Requirements.R1;
        r2 = outcome Requirements.R2;
        r3 = outcome Requirements.R3;
      })
    Params.table_datasets

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

let deadlocks ?(fixed = false) ?budget variant params =
  let net = Ta.Semantics.compile (Ta_models.build ~fixed variant params) in
  Mc.Safety.check_state ~max_states:default_max ?budget
    (Ta.Semantics.system net)
    (Ta.Semantics.deadlocked net)
