let default_max = 4_000_000

let participants variant (p : Params.t) =
  let n =
    match (variant : Pa_models.variant) with
    | Pa_models.Static | Pa_models.Expanding | Pa_models.Dynamic -> p.Params.n
    | Pa_models.Binary | Pa_models.Revised | Pa_models.Two_phase -> 1
  in
  List.init n (fun k -> k + 1)

let name_in names (l : Proc.Semantics.label) =
  match l with
  | Proc.Semantics.Tick -> false
  | Proc.Semantics.Act (name, _) -> List.mem name names

let is_tick (l : Proc.Semantics.label) = l = Proc.Semantics.Tick

(* Each monitor is paired with its alphabet: the action names its
   predicates observe, plus [tick] for the deadline monitors (their
   clock is the global tick).  The alphabet is what the partial-order
   reduction must keep visible for the verdict to carry over. *)
let monitors variant (p : Params.t) req :
    (Proc.Semantics.label Mc.Monitor.t * string list) list =
  let ps = participants variant p in
  let joining = Pa_models.has_join variant in
  let loses = List.concat_map (Pa_models.act_lose variant) ps in
  match (req : Requirements.requirement) with
  | Requirements.R1 ->
      (* One watchdog per participant: more than 2*tmax ticks after the
         last beat of p[i] received at p[0], while p[0] never
         inactivated, is an error.  For the joining variants the watchdog
         arms at the first received beat or join request and is disarmed
         by a leave beat. *)
      List.map
        (fun i ->
          let reset_names =
            [ Pa_models.act_beat_delivered_to_p0 i ]
            @ if joining then [ Pa_models.act_join_delivered_to_p0 i ] else []
          in
          let ok_names =
            [ Pa_models.act_inactivate_nv_p0; Pa_models.act_crash_p0 ]
            @
            if variant = Pa_models.Dynamic then
              [ Pa_models.act_leave_delivered_to_p0 i ]
            else []
          in
          let reset = name_in reset_names and ok = name_in ok_names in
          let bound = 2 * p.Params.tmax in
          let monitor =
            if joining then
              Mc.Monitor.deadline_after ~arm:reset ~tick:is_tick ~reset ~ok
                bound
            else Mc.Monitor.deadline ~tick:is_tick ~reset ~ok bound
          in
          (monitor, (Proc.Spec.tick_name :: reset_names) @ ok_names))
        ps
  | Requirements.R2 ->
      (* inactivate_nv_p[i] must be preceded by a loss or by an
         inactivation of p[0] or of some other participant (voluntary
         crash or watchdog inactivation; leaving does not count). *)
      List.map
        (fun i ->
          let fault =
            loses
            @ [ Pa_models.act_crash_p0; Pa_models.act_inactivate_nv_p0 ]
            @ List.concat_map
                (fun j ->
                  if j = i then []
                  else
                    [
                      Pa_models.act_crash_pi j; Pa_models.act_inactivate_nv_pi j;
                    ])
                ps
          in
          let bad = [ Pa_models.act_inactivate_nv_pi i ] in
          ( Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad),
            fault @ bad ))
        ps
  | Requirements.R3 ->
      (* inactivate_nv_p0 must be preceded by a loss or by any
         inactivation of a participant (leaving does not count). *)
      let fault =
        loses
        @ List.concat_map
            (fun j ->
              [ Pa_models.act_crash_pi j; Pa_models.act_inactivate_nv_pi j ])
            ps
      in
      let bad = [ Pa_models.act_inactivate_nv_p0 ] in
      [
        ( Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad),
          fault @ bad );
      ]

let check_verdict ?(max_states = default_max) ?(domains = 1)
    ?(reduce = false) ?budget ?degrade variant params req =
  let spec = Pa_models.build variant params in
  let sys = Proc.Semantics.system spec in
  (* reduction composes with domains > 1 through the parallel-safe
     proviso: each reduced system is built with [~par:true] and Safety
     is told not to force the sequential engine *)
  let par = domains > 1 in
  let analysis = if reduce then Some (Por.analyze_cached spec) else None in
  (* first non-Holds verdict wins; all monitors must hold for Holds *)
  let rec go = function
    | [] -> Mc.Safety.Holds
    | (monitor, alphabet) :: rest -> (
        let reduction =
          Option.map (fun a -> Por.reduced_system ~alphabet ~par a) analysis
        in
        match
          Mc.Safety.check_monitor ~max_states ~domains ?reduction
            ~parallel_reduction:par ?budget ?degrade sys monitor
        with
        | Mc.Safety.Holds -> go rest
        | v -> v)
  in
  go (monitors variant params req)

let check ?max_states ?domains ?reduce variant params req =
  match check_verdict ?max_states ?domains ?reduce variant params req with
  | Mc.Safety.Holds -> true
  | Mc.Safety.Violated _ -> false
  | Mc.Safety.Unknown n ->
      Format.kasprintf failwith
        "Pa_verify.check: state bound %d exceeded (%s, %s)" n
        (Pa_models.variant_name variant)
        (Requirements.name req)
  | Mc.Safety.Exhausted e ->
      Format.kasprintf failwith "Pa_verify.check: %a (%s, %s)"
        Mc.Explore.pp_exhaustion e
        (Pa_models.variant_name variant)
        (Requirements.name req)

type explore_stats = { states : int; transitions : int; complete : bool }

let explore ?(max_states = default_max) ?(reduce = false) variant params =
  let spec = Pa_models.build variant params in
  let sys =
    if reduce then Por.reduced_system (Por.analyze_cached spec)
    else Proc.Semantics.system spec
  in
  let space = Mc.Explore.space ~max_states sys in
  {
    states = Lts.Graph.num_states space.Mc.Explore.lts;
    transitions = Lts.Graph.num_transitions space.Mc.Explore.lts;
    complete = space.Mc.Explore.complete;
  }

(* The model and the optional ample-set reduction both LTL entry points
   check. *)
let live_parts ~reduce ~domains variant params =
  let spec = Pa_models.build variant params in
  let sys = Proc.Semantics.system spec in
  let reduction =
    if reduce then
      let a = Por.analyze_cached spec in
      Some (fun ~alphabet -> Por.reduction ~par:(domains > 1) a ~alphabet)
    else None
  in
  (sys, reduction)

let check_live ?(engine = Ltl.Check.Ndfs) ?(reduce = false) ?(domains = 1)
    variant params req =
  let sys, reduction = live_parts ~reduce ~domains variant params in
  Ltl.Check.check ~engine ~fairness:Requirements.live_fairness_pa ?reduction
    ~max_states:default_max ~domains sys
    (Requirements.live_formula_pa variant params req)

let check_live_run ?(engine = Ltl.Check.Ndfs) ?(reduce = false) ?(domains = 1)
    ?budget ?checkpoint ?resume variant params req =
  let sys, reduction = live_parts ~reduce ~domains variant params in
  Ltl.Check.check_run ~engine ~fairness:Requirements.live_fairness_pa
    ?reduction ~max_states:default_max ~domains ?budget ?checkpoint ?resume sys
    (Requirements.live_formula_pa variant params req)
