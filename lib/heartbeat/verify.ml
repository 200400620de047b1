type outcome = {
  holds : bool;
  counterexample : Ta.Semantics.label list option;
  states_explored : int option;
  exhausted : Mc.Explore.exhaustion option;
}

let default_max = 5_000_000

let model_for ~fixed variant params req =
  Ta_models.build ~fixed
    ~with_r1_monitors:(Requirements.needs_monitors req)
    variant params

let instance variant params req =
  Format.asprintf "%s, %s, %a"
    (Ta_models.variant_name variant)
    (Requirements.name req) Params.pp params

(* Slice the model against the requirement's seed.  The returned pair
   is (sliced system to explore, bad predicate over it). *)
let sliced_parts variant params req model =
  let seed = Requirements.slice_seed variant params req in
  let sl = Slice_ta.slice ~seed model in
  let snet = Ta.Semantics.compile sl.Slice_ta.model in
  let bad = Requirements.bad_state variant params snet req in
  (Slice_ta.system sl snet, bad)

(* [states] is what a full run reports explored; [engine] prefixes the
   state-bound failure, which names [instance]. *)
let outcome ~engine ~states ~instance = function
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
      Format.kasprintf failwith "Verify.check: %sstate bound %d exceeded (%s)"
        engine n instance

(* The plain discrete search: breadth-first over the digitised
   semantics of [net], so a violation comes with a shortest timestamped
   trace. *)
let find_discrete ?budget variant params req net =
  Mc.Explore.find ~max_states:default_max ?budget
    ~goal:(Requirements.bad_state variant params net req)
    (Ta.Semantics.system net)

let check_discrete ~fixed variant params req =
  outcome ~engine:"" ~states:None
    ~instance:(instance variant params req)
    (find_discrete variant params req
       (Ta.Semantics.compile (model_for ~fixed variant params req)))

(* The dense-time search: the same bad predicate (it observes only the
   discrete part) lifted to symbolic states. *)
let find_zone ?budget ?stats variant params req z =
  let bad = Requirements.bad_state variant params (Zone.Sym.net z) req in
  Zone.Reach.find ~max_states:default_max ?budget ?stats z
    ~goal:(Zone.Sym.bad_of z bad)

let decide_on_zones ~instance ~zones zone explain =
  match zone with
  | Mc.Explore.Reached _ -> (
      match explain () with
      | Mc.Explore.Unreachable ->
          Format.kasprintf failwith
            "Verify.check: the discrete search does not confirm the zone \
             violation (%s)"
            instance
      | Mc.Explore.Exhausted _ ->
          (* the zone verdict stands; only its explanation ran out *)
          {
            holds = false;
            counterexample = None;
            states_explored = None;
            exhausted = None;
          }
      | v -> outcome ~engine:"" ~states:None ~instance v)
  | v -> outcome ~engine:"zone " ~states:(Some zones) ~instance v

let check ?(fixed = false) ?(slice = false) ?budget ?(zone = false) ?lu:_
    variant params req =
  if zone && slice then
    invalid_arg "Verify.check: zone and slice engines are exclusive";
  let model = model_for ~fixed variant params req in
  let instance = instance variant params req in
  if slice then
    let sys, bad = sliced_parts variant params req model in
    outcome ~engine:"" ~states:None ~instance
      (Mc.Explore.find ~max_states:default_max ?budget ~goal:bad sys)
  else
    let z = Zone.Sym.compile model in
    let stats = Zone.Reach.new_stats () in
    let verdict = find_zone ?budget ~stats variant params req z in
    let zones = stats.Zone.Reach.states in
    if zone then outcome ~engine:"zone " ~states:(Some zones) ~instance verdict
    else
      (* the symbolic network compiled the discrete one, menus and all *)
      decide_on_zones ~instance ~zones verdict (fun () ->
          find_discrete ?budget variant params req (Zone.Sym.net z))

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

(* R1 with an explicit watchdog bound.  Only the verdict is needed, so
   the zone engine gives it alone. *)
let r1_holds_with_bound ~fixed variant params bound =
  let model =
    Ta_models.build ~fixed ~with_r1_monitors:true ~r1_bound:bound variant
      params
  in
  match find_zone variant params Requirements.R1 (Zone.Sym.compile model) with
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
