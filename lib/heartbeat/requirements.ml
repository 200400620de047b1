type requirement = R1 | R2 | R3

let all = [ R1; R2; R3 ]
let name = function R1 -> "R1" | R2 -> "R2" | R3 -> "R3"
let needs_monitors = function R1 -> true | R2 | R3 -> false

(* "p[j] is still a live participant": any location other than the two
   inactivated ones.  Never-joined and left participants are handled
   separately, following the paper's UPPAAL formulas
   (e.g. [P2.Alive or (not jnd[..]) or leave[..]]). *)
let alive_pred variant net j =
  let loc_is loc = Ta.Semantics.loc_is net ~auto:(Ta_models.p_name j) ~loc in
  let v = loc_is "VInact" and nv = loc_is "NVInact" in
  let left =
    if variant = Ta_models.Dynamic then loc_is "Left" else fun _ -> false
  in
  fun c -> (not (v c)) && (not (nv c)) && not (left c)

(* "p[j]'s state cannot excuse someone else's inactivation": p[j] is
   alive, or it never joined, or it left voluntarily. *)
let no_excuse_pred variant net j =
  let alive = alive_pred variant net j in
  let left =
    if variant = Ta_models.Dynamic then
      Ta.Semantics.loc_is net ~auto:(Ta_models.p_name j) ~loc:"Left"
    else fun _ -> false
  in
  let unjoined =
    if Ta_models.has_join variant then
      let jv = Ta.Semantics.var net (Printf.sprintf "jnd%d" j) in
      fun c -> jv c = 0
    else fun _ -> false
  in
  fun c -> alive c || left c || unjoined c

let bad_state variant (p : Params.t) (net : Ta.Semantics.t) req =
  let loc_is auto loc = Ta.Semantics.loc_is net ~auto ~loc in
  let var name = Ta.Semantics.var net name in
  let ps = Ta_models.participants variant p in
  match req with
  | R1 ->
      (* Some watchdog reached its error location. *)
      let errors =
        List.map (fun i -> loc_is (Ta_models.monitor_name i) "Error") ps
      in
      fun c -> List.exists (fun pred -> pred c) errors
  | R2 ->
      (* Some participant was non-voluntarily inactivated although no
         message was ever lost, p[0] is still alive, and every other
         participant is alive (or never joined / left voluntarily). *)
      let lost = var "lost" in
      let p0_alive = loc_is Ta_models.p0_name "Alive" in
      let nv =
        List.map (fun i -> (i, loc_is (Ta_models.p_name i) "NVInact")) ps
      in
      let no_excuse = List.map (fun j -> (j, no_excuse_pred variant net j)) ps in
      fun c ->
        lost c = 0 && p0_alive c
        && List.exists
             (fun (i, nv_i) ->
               nv_i c
               && List.for_all (fun (j, ok_j) -> j = i || ok_j c) no_excuse)
             nv
  | R3 ->
      (* p[0] was non-voluntarily inactivated although no message was ever
         lost and every participant is alive (or never joined / left). *)
      let lost = var "lost" in
      let p0_nv = loc_is Ta_models.p0_name "NVInact" in
      let no_excuse = List.map (fun j -> no_excuse_pred variant net j) ps in
      fun c ->
        lost c = 0 && p0_nv c && List.for_all (fun ok_j -> ok_j c) no_excuse

(* The slicing seed mirrors [bad_state]: every variable and location a
   requirement's predicate observes must survive the slice, so the
   predicate can be built against the sliced net and the seeded clocks
   keep exact values.  No clocks are observed by any requirement. *)
let slice_seed variant (p : Params.t) req : Slice_ta.seed =
  let ps = Ta_models.participants variant p in
  let joining = Ta_models.has_join variant in
  let alive_locs j =
    [ (Ta_models.p_name j, "VInact"); (Ta_models.p_name j, "NVInact") ]
    @ if variant = Ta_models.Dynamic then [ (Ta_models.p_name j, "Left") ] else []
  in
  let excuse_vars =
    if joining then List.map (fun j -> Printf.sprintf "jnd%d" j) ps else []
  in
  match req with
  | R1 ->
      {
        Slice_ta.empty_seed with
        Slice_ta.seed_locs =
          List.map (fun i -> (Ta_models.monitor_name i, "Error")) ps;
      }
  | R2 ->
      {
        Slice_ta.seed_vars = "lost" :: excuse_vars;
        seed_clocks = [];
        seed_locs =
          (Ta_models.p0_name, "Alive") :: List.concat_map alive_locs ps;
      }
  | R3 ->
      {
        Slice_ta.seed_vars = "lost" :: excuse_vars;
        seed_clocks = [];
        seed_locs =
          (Ta_models.p0_name, "NVInact") :: List.concat_map alive_locs ps;
      }

(* ------------------------------------------------------------------ *)
(* Liveness formulations                                               *)
(* ------------------------------------------------------------------ *)

let is_act p = function
  | Ta.Semantics.Act a -> p a
  | Ta.Semantics.Delay -> false

let act name = Ltl.Formula.lbl name (is_act (String.equal name))

(* The [fault] atom reads every label of a liveness product, so its
   prefix test allocates nothing: [String.sub] would copy the prefix,
   and [String.starts_with] builds a closure per call unless the
   compiler has flambda. *)
let rec agrees prefix a i =
  i = String.length prefix || (prefix.[i] = a.[i] && agrees prefix a (i + 1))

let has_prefix prefix a =
  String.length a >= String.length prefix && agrees prefix a 0

(* Environment faults: message losses, voluntary crashes, voluntary
   leaves.  Non-voluntary inactivations are deliberately *not* faults —
   they are the protocol's own decisions, and the runs we want to expose
   (the §5.5 races) contain them. *)
let fault =
  Ltl.Formula.lbl "fault"
    (is_act (fun a ->
         has_prefix "lose" a || has_prefix "jlose" a || has_prefix "crash_" a
         || has_prefix "leave" a))

let benign = Ltl.Formula.globally (Ltl.Formula.Not fault)

let live_fairness =
  [ Ltl.Check.often "time" (fun l -> l = Ta.Semantics.Delay) ]

let live_formula variant (p : Params.t) req =
  let ps = Ta_models.participants variant p in
  let joining = Ta_models.has_join variant in
  let dlv1 i = act (Printf.sprintf "dlv1_%d" i) in
  let dlv0 i = act (Printf.sprintf "dlv0_%d" i) in
  let join i = act (Printf.sprintf "join%d" i) in
  let joined_owes i f =
    if joining then Ltl.Formula.implies (Ltl.Formula.finally (join i)) f
    else f
  in
  match req with
  | R1 ->
      (* The watchdog arms at the first *delivered* beat (a join whose
         every beat is lost leaves p[0] unaware of p[i], so p[0] owes
         nothing), hence the F dlv1_i guard rather than F join_i. *)
      Ltl.Formula.conj
        (List.map
           (fun i ->
             Ltl.Formula.implies
               (Ltl.Formula.finally (dlv1 i))
               (Ltl.Formula.disj
                  ([
                     Ltl.Formula.infinitely_often (dlv1 i);
                     Ltl.Formula.finally (act "inactivate_nv_p0");
                     Ltl.Formula.finally (act "crash_p0");
                   ]
                  @
                  if variant = Ta_models.Dynamic then
                    [ Ltl.Formula.finally (act (Printf.sprintf "leave%d" i)) ]
                  else [])))
           ps)
  | R2 ->
      Ltl.Formula.implies benign
        (Ltl.Formula.conj
           (List.map
              (fun i -> joined_owes i (Ltl.Formula.infinitely_often (dlv1 i)))
              ps))
  | R3 ->
      Ltl.Formula.implies benign
        (Ltl.Formula.conj
           (List.map
              (fun i -> joined_owes i (Ltl.Formula.infinitely_often (dlv0 i)))
              ps))

let live_description = function
  | R1 ->
      "if some participant's beats stop arriving forever, p[0] is \
       eventually inactivated (untimed essence of R1; the 2*tmax bound \
       stays with the watchdogs)"
  | R2 ->
      "with no losses, crashes or leaves, every participant's beats keep \
       arriving at p[0] forever"
  | R3 ->
      "with no losses, crashes or leaves, p[0]'s beats keep arriving at \
       every participant forever"

(* ------------------------------------------------------------------ *)
(* Liveness on the process-algebra models                              *)
(* ------------------------------------------------------------------ *)

let pa_act name =
  Ltl.Formula.lbl name (fun (l : Proc.Semantics.label) ->
      match l with
      | Proc.Semantics.Act (n, _) -> n = name
      | Proc.Semantics.Tick -> false)

(* One single-name atom per fault: a multi-name predicate would break
   the [Lbl] contract {!Ltl.Formula.stutter_invariant} relies on, and
   with it the partial-order reduction of the check. *)
let benign_pa variant ps =
  let faults =
    List.concat_map (Pa_models.act_lose variant) ps
    @ [ Pa_models.act_crash_p0 ]
    @ List.map Pa_models.act_crash_pi ps
    @
    if variant = Pa_models.Dynamic then List.map Pa_models.act_leave_pi ps
    else []
  in
  Ltl.Formula.conj
    (List.map
       (fun nm -> Ltl.Formula.globally (Ltl.Formula.Not (pa_act nm)))
       faults)

let live_fairness_pa =
  [ Ltl.Check.often "tick" (fun l -> l = Proc.Semantics.Tick) ]

let live_formula_pa variant (p : Params.t) req =
  let ps = Ta_models.participants variant p in
  let joining = Ta_models.has_join variant in
  let dlv1 i = pa_act (Pa_models.act_beat_delivered_to_p0 i) in
  let dlv0 i = pa_act (Pa_models.act_beat_delivered_to_pi i) in
  let jdlv i = pa_act (Pa_models.act_join_delivered_to_p0 i) in
  let joined_owes i f =
    (* the watchdogs arm at the first delivered join/beat, so the
       obligation is guarded by the delivery, not the attempt *)
    if joining then Ltl.Formula.implies (Ltl.Formula.finally (jdlv i)) f
    else f
  in
  match req with
  | R1 ->
      Ltl.Formula.conj
        (List.map
           (fun i ->
             Ltl.Formula.implies
               (Ltl.Formula.finally (dlv1 i))
               (Ltl.Formula.disj
                  ([
                     Ltl.Formula.infinitely_often (dlv1 i);
                     Ltl.Formula.finally (pa_act Pa_models.act_inactivate_nv_p0);
                     Ltl.Formula.finally (pa_act Pa_models.act_crash_p0);
                   ]
                  @
                  if variant = Pa_models.Dynamic then
                    [
                      Ltl.Formula.finally
                        (pa_act (Pa_models.act_leave_delivered_to_p0 i));
                    ]
                  else [])))
           ps)
  | R2 ->
      Ltl.Formula.implies (benign_pa variant ps)
        (Ltl.Formula.conj
           (List.map
              (fun i -> joined_owes i (Ltl.Formula.infinitely_often (dlv1 i)))
              ps))
  | R3 ->
      Ltl.Formula.implies (benign_pa variant ps)
        (Ltl.Formula.conj
           (List.map
              (fun i -> joined_owes i (Ltl.Formula.infinitely_often (dlv0 i)))
              ps))
