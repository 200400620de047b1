(* Adversarial fault-injection campaigns: sweep fault scenarios across
   disciplines and parameter points, run each under the R1-R3 monitors,
   and shrink any violating schedule to a minimal reproduction. *)

module F = Sim.Fault

type point = {
  kind : Runtime.kind;
  params : Params.t;
  fixed : bool;
  scenario : string;
  faults : F.schedule;
  seed : int64;
  duration : float;
}

type outcome = {
  point : point;
  verdict : Monitors.verdict;
  shrunk : F.schedule option;
  sent : int;
  lost : int;
  dropped : int;
  detected_at : float option;
  inactivations : int;
}

type t = {
  fixed : bool;
  seed : int64;
  outcomes : outcome list;
  interrupted : Mc.Budget.reason option;
}

(* The paper's claimed detection bound for p[0] (Section 5's R1 reading):
   2*tmax after the last heartbeat.  The unfixed protocols are monitored
   against this claim — which the halving schedule genuinely exceeds at
   the parameter points the tables mark F. *)
let claimed_r1_bound (p : Params.t) = 2.0 *. float_of_int p.Params.tmax

(* The corrected (Section 6.2) worst case, computed over the float
   waiting-time recurrence the runtime actually executes.  (The integer
   bound of {!Bounds.p0_detection_exhaustive} halves with integer
   division, which under-counts e.g. (1,10): float halving visits
   5, 2.5, 1.25 for an extra 8.75, not 8.) *)
let exact_r1_bound kind (p : Params.t) =
  let tmin = float_of_int p.Params.tmin and tmax = float_of_int p.Params.tmax in
  match (kind : Runtime.kind) with
  | Runtime.Halving ->
      let rec halvings t acc =
        if t < tmin then acc else halvings (t /. 2.0) (acc +. t)
      in
      (2.0 *. tmax) +. halvings (tmax /. 2.0) 0.0
  | Runtime.Two_phase -> (2.0 *. tmax) +. tmin
  | Runtime.Fixed_rate k -> tmax *. (1.0 +. (1.0 /. float_of_int k))

let monitor_bounds ~fixed kind (p : Params.t) =
  let tmin = float_of_int p.Params.tmin and tmax = float_of_int p.Params.tmax in
  let r1 = if fixed then exact_r1_bound kind p else claimed_r1_bound p in
  let pi = if fixed then 2.0 *. tmax else (3.0 *. tmax) -. tmin in
  (r1, pi)

(* The default adversary: every fault class the injector knows, at
   phases chosen off the round boundaries (multiples of 0.05*tmax are
   avoided indirectly by the fractional factors) so exact ties with
   protocol timers cannot arise. *)
let default_scenarios (p : Params.t) =
  let tmin = float_of_int p.Params.tmin and tmax = float_of_int p.Params.tmax in
  [
    ("crash-early", [ F.crash ~at:((2.0 *. tmax) +. (0.6 *. tmin)) 1 ]);
    ("crash-coordinator", [ F.crash ~at:(2.35 *. tmax) 0 ]);
    ( "crash-recover",
      [
        F.crash ~at:((2.0 *. tmax) +. (0.6 *. tmin)) 1;
        F.recover ~at:((3.0 *. tmax) +. (0.6 *. tmin)) 1;
      ] );
    ( "coordinator-flap",
      [ F.crash ~at:(1.7 *. tmax) 0; F.recover ~at:(2.4 *. tmax) 0 ] );
    ( "partition",
      [
        F.partition ~at:(2.15 *. tmax) ~drop_inflight:true
          ~duration:(1.2 *. tmax) [ 1 ];
      ] );
    ("burst", [ F.burst ~at:(2.2 *. tmax) ~duration:(1.4 *. tmax) 0.85 ]);
    ( "chaos",
      [
        F.duplicate ~at:(1.1 *. tmax) ~duration:(2.0 *. tmax) 0.25;
        F.reorder ~at:(1.6 *. tmax) ~duration:(2.0 *. tmax) 0.25;
        F.jitter ~at:(2.1 *. tmax) ~duration:(2.0 *. tmax) (0.4 *. tmin);
      ] );
  ]

let max_jitter faults =
  List.fold_left
    (fun acc { F.action; _ } ->
      match action with
      | F.Jitter { extra; _ } -> Float.max acc extra
      | _ -> acc)
    0.0 faults

let run_point pt =
  let tmin_f = float_of_int pt.params.Params.tmin in
  let j = max_jitter pt.faults in
  let r1_bound, pi_bound = monitor_bounds ~fixed:pt.fixed pt.kind pt.params in
  let mon =
    (* Grace must cover the worst lateness still in flight when the
       protocol acts on a miss: a reordered message takes up to tmin
       (both hops) plus jitter on each. *)
    Monitors.create ~n:pt.params.Params.n ~r1_bound ~pi_bound
      ~grace:(tmin_f +. (2.0 *. j) +. 0.5)
      ~quiescence_after:(tmin_f +. j +. 0.5)
      Requirements.all
  in
  let cfg =
    Runtime.config ~kind:pt.kind ~faults:pt.faults ~fixed_bounds:pt.fixed
      ~seed:pt.seed ~duration:pt.duration pt.params
  in
  let result = Runtime.run ~on_event:(Monitors.feed mon) cfg in
  Monitors.finish mon ~now:pt.duration;
  (Monitors.verdict mon, result)

let fails pt faults =
  match fst (run_point { pt with faults }) with
  | Monitors.Fail _ -> true
  | Monitors.Pass -> false

(* Greedy 1-minimal shrink of a violating schedule: repeatedly delete
   single events while the violation persists, then halve window
   durations.  Every candidate is re-run under the same seed, so the
   result is a genuine minimal reproduction, not a guess. *)
let shrink pt =
  let rec drop_events sched =
    let rec try_each acc = function
      | [] -> sched
      | e :: rest ->
          let candidate = List.rev_append acc rest in
          if fails pt candidate then drop_events candidate
          else try_each (e :: acc) rest
    in
    try_each [] sched
  in
  let halve ev =
    let shorter d rebuild =
      if d > 1.0 then Some { ev with F.action = rebuild (d /. 2.0) } else None
    in
    match ev.F.action with
    | F.Partition { isolated; duration; drop_inflight } ->
        shorter duration (fun d ->
            F.Partition { isolated; duration = d; drop_inflight })
    | F.Burst { duration; loss } ->
        shorter duration (fun d -> F.Burst { duration = d; loss })
    | F.Duplicate { duration; prob } ->
        shorter duration (fun d -> F.Duplicate { duration = d; prob })
    | F.Reorder { duration; prob } ->
        shorter duration (fun d -> F.Reorder { duration = d; prob })
    | F.Jitter { duration; extra } ->
        shorter duration (fun d -> F.Jitter { duration = d; extra })
    | F.Crash _ | F.Recover _ -> None
  in
  let rec trim sched budget =
    if budget = 0 then sched
    else
      let arr = Array.of_list sched in
      let rec scan i =
        if i >= Array.length arr then None
        else
          match halve arr.(i) with
          | None -> scan (i + 1)
          | Some ev' ->
              let candidate =
                Array.to_list (Array.mapi (fun k e -> if k = i then ev' else e) arr)
              in
              if fails pt candidate then Some candidate else scan (i + 1)
      in
      match scan 0 with
      | Some c -> trim c (budget - 1)
      | None -> sched
  in
  trim (drop_events pt.faults) 8

let kinds = [ Runtime.Halving; Runtime.Two_phase; Runtime.Fixed_rate 2 ]

let run ?(n = 1) ?(fixed = false) ?(seed = 7L) ?(duration_factor = 10.0)
    ?(shrink_failures = true) ?budget () =
  let master = Sim.Rng.create seed in
  let outcomes = ref [] in
  (* Budget polled between points only: a point is the unit of work, so
     an interrupted campaign is a clean prefix of the full sweep (the
     sub-seeds are still drawn in sweep order, keeping the points that
     did run identical to the uninterrupted campaign's). *)
  let stopped () =
    match budget with None -> false | Some b -> Mc.Budget.check b <> None
  in
  List.iter
    (fun (tmin, tmax) ->
      let params = Params.make ~n ~tmin ~tmax () in
      List.iter
        (fun kind ->
          List.iter
            (fun (scenario, faults) ->
              (* One independent sub-seed per point, drawn in sweep
                 order: reproducible, and stable under re-running a
                 single point (the seed is recorded in the outcome). *)
              let pt_seed = Sim.Rng.int64 master in
              let pt =
                {
                  kind;
                  params;
                  fixed;
                  scenario;
                  faults;
                  seed = pt_seed;
                  duration = duration_factor *. float_of_int tmax;
                }
              in
              if stopped () then ()
              else
              let verdict, result = run_point pt in
              let shrunk =
                match verdict with
                | Monitors.Fail _ when shrink_failures -> Some (shrink pt)
                | _ -> None
              in
              outcomes :=
                {
                  point = pt;
                  verdict;
                  shrunk;
                  sent = result.Runtime.messages_sent;
                  lost = result.Runtime.messages_lost;
                  dropped = result.Runtime.messages_dropped;
                  detected_at = result.Runtime.p0_detected_at;
                  inactivations =
                    List.length result.Runtime.pi_inactivated_at;
                }
                :: !outcomes)
            (default_scenarios params))
        kinds)
    Params.table_datasets;
  let interrupted = Option.bind budget Mc.Budget.tripped in
  { fixed; seed; outcomes = List.rev !outcomes; interrupted }

let violations t =
  List.filter
    (fun o -> match o.verdict with Monitors.Fail _ -> true | _ -> false)
    t.outcomes

(* --- deterministic JSON (no Hashtbl order, no wall clock) --- *)

let fstr = Printf.sprintf "%.12g"

let outcome_to_json o =
  let b = Buffer.create 512 in
  let { kind; params; scenario; faults; seed; duration; fixed = _; _ } =
    o.point
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"kind\":%s,\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"scenario\":%s,\"seed\":\"%Ld\",\"duration\":%s,\"faults\":%s"
       (Lint_report.json_str (Runtime.kind_name kind))
       params.Params.tmin params.Params.tmax params.Params.n
       (Lint_report.json_str scenario)
       seed (fstr duration) (F.to_json faults));
  (match o.verdict with
  | Monitors.Pass -> Buffer.add_string b ",\"verdict\":\"pass\""
  | Monitors.Fail v ->
      Buffer.add_string b
        (Printf.sprintf
           ",\"verdict\":\"fail\",\"violation\":{\"req\":\"%s\",\"at\":%s,\"reason\":%s,\"prefix_events\":%d}"
           (Requirements.name v.Monitors.req)
           (fstr v.Monitors.at)
           (Lint_report.json_str v.Monitors.reason)
           (List.length v.Monitors.prefix)));
  Option.iter
    (fun s -> Buffer.add_string b (",\"shrunk\":" ^ F.to_json s))
    o.shrunk;
  Buffer.add_string b
    (Printf.sprintf ",\"sent\":%d,\"lost\":%d,\"dropped\":%d" o.sent o.lost
       o.dropped);
  (match o.detected_at with
  | Some at -> Buffer.add_string b (",\"detected_at\":" ^ fstr at)
  | None -> Buffer.add_string b ",\"detected_at\":null");
  Buffer.add_string b (Printf.sprintf ",\"inactivations\":%d}" o.inactivations);
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"campaign\":{\"fixed\":%b,\"seed\":\"%Ld\",\"points\":%d,\"violations\":%d,\"interrupted\":%s},\"outcomes\":[\n"
       t.fixed t.seed (List.length t.outcomes)
       (List.length (violations t))
       (match t.interrupted with
       | None -> "null"
       | Some r -> Printf.sprintf "\"%s\"" (Mc.Budget.reason_name r)));
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b (outcome_to_json o))
    t.outcomes;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let pp_outcome ppf o =
  let v =
    match o.verdict with
    | Monitors.Pass -> "pass"
    | Monitors.Fail v ->
        Printf.sprintf "FAIL %s at t=%s"
          (Requirements.name v.Monitors.req)
          (fstr v.Monitors.at)
  in
  Format.fprintf ppf "%-14s (%2d,%2d) %-18s %s"
    (Runtime.kind_name o.point.kind)
    o.point.params.Params.tmin o.point.params.Params.tmax o.point.scenario v;
  match o.shrunk with
  | Some s -> Format.fprintf ppf "  [shrunk to %d event(s)]" (List.length s)
  | None -> ()

let pp ppf t =
  let bad = violations t in
  Format.fprintf ppf
    "campaign: %d points, %d violation(s) (%s bounds, seed %Ld)@."
    (List.length t.outcomes) (List.length bad)
    (if t.fixed then "fixed 6.2" else "unfixed")
    t.seed;
  Option.iter
    (fun r ->
      Format.fprintf ppf "  INTERRUPTED (%a): partial sweep@." Mc.Budget.pp_reason
        r)
    t.interrupted;
  List.iter (fun o -> Format.fprintf ppf "  %a@." pp_outcome o) t.outcomes
