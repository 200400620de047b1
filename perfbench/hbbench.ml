(* Workload runner of the benchmark (see perfbench/README.md).

   One process runs one named workload: it sets the workload up several
   times, then repeats passes over the workload's queries until the
   time budget is spent, checking every answer against the committed
   reference.  With --trace it instead runs one untraced and one traced
   pass, a fixed probe over every layer, and microbenchmarks on states
   sampled with the workload seed, and reports the per-layer figures.
   The raw measurements go to stdout as one JSON object; run.py turns
   them into the benchmark's metrics. *)

module H = Heartbeat

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Per-layer accounting                                                 *)
(* ------------------------------------------------------------------ *)

(* A layer's counters.  [calls] counts entries (or events), [items]
   what the calls produced (successor edges), [total_ns] the time spent
   inside the layer's spans and [child_ns] the part of that spent in
   nested spans, so [total_ns - child_ns] is the layer's self time. *)
type layer = {
  mutable calls : int;
  mutable items : int;
  mutable total_ns : int;
  mutable child_ns : int;
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 64

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; items = 0; total_ns = 0; child_ns = 0 } in
      Hashtbl.add layers name l;
      l

let tracing = ref false

(* Child-time accumulators of the spans currently open, innermost first. *)
let frames : int ref list ref = ref []

let span l f =
  if not !tracing then f ()
  else begin
    let child = ref 0 in
    frames := child :: !frames;
    let t0 = clock_ns () in
    let finish () =
      let d = clock_ns () - t0 in
      frames := List.tl !frames;
      l.calls <- l.calls + 1;
      l.total_ns <- l.total_ns + d;
      l.child_ns <- l.child_ns + !child;
      match !frames with p :: _ -> p := !p + d | [] -> ()
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let span_named name f = span (layer name) f

(* A timing proxy around a system: successor calls are spans of
   [prefix ^ ".successors"]; state hashing and equality are counted. *)
let proxy (type s l) prefix (sys : (s, l) Mc.System.t) : (s, l) Mc.System.t =
  let module S = (val sys) in
  let succ = layer (prefix ^ ".successors")
  and hash = layer (prefix ^ ".hash")
  and eq = layer (prefix ^ ".equal") in
  (module struct
    type state = S.state
    type label = S.label

    let initial = S.initial

    let successors s =
      let r = span succ (fun () -> S.successors s) in
      succ.items <- succ.items + List.length r;
      r

    let equal_state a b =
      eq.calls <- eq.calls + 1;
      S.equal_state a b

    let hash_state s =
      hash.calls <- hash.calls + 1;
      S.hash_state s

    let pp_state = S.pp_state
    let pp_label = S.pp_label
  end)

let sys_of traced prefix sys = if traced then proxy prefix sys else sys

(* States and transitions expanded inside explorer spans (Mc.Safety,
   Mc.Explore), as opposed to LTL products and zone graphs. *)
let explored_states = ref 0
let explored_transitions = ref 0

let expansions () =
  List.fold_left
    (fun (c, i) n ->
      let l = layer n in
      (c + l.calls, i + l.items))
    (0, 0)
    [ "ta.successors"; "proc.successors"; "por.successors" ]

let explore_span f =
  let c0, i0 = expansions () in
  let r = span_named "mc.explore" f in
  let c1, i1 = expansions () in
  explored_states := !explored_states + c1 - c0;
  explored_transitions := !explored_transitions + i1 - i0;
  r

(* ------------------------------------------------------------------ *)
(* Queries and workloads                                                *)
(* ------------------------------------------------------------------ *)

(* One public verdict or count call.  [run ~traced] returns the answer
   compared with the reference; the traced form issues the same query
   through the layers' public functions with timing proxies in place. *)
type query = { key : string; run : traced:bool -> string }

type workload = {
  setup : unit -> unit;
      (** builds, compiles and analyses every model the queries use,
          bypassing the memo tables so that each repetition does the work *)
  queries : query list;
  samples : unit -> sampled;
      (** the representative instances microbenchmarked in traced runs *)
}

(* States sampled from an instance, with the operations to time on them. *)
and sampled = {
  ta : ta_sample;
  pa : pa_sample;
  zone : zone_sample;
  product : product_sample;
}

and ta_sample = {
  net : Ta.Semantics.t;
  configs : Ta.Semantics.config array;
  goal : Ta.Semantics.config -> bool;
}

and pa_sample = {
  spec : Proc.Spec.t;
  pstates : Proc.Semantics.state array;
  monitor : Proc.Semantics.label Mc.Monitor.t;
  labels : Proc.Semantics.label array;
}

and zone_sample = { zsym : Zone.Sym.t; zstates : Zone.Sym.state array }

and product_sample =
  | Product : {
      psys : ('s * int, 'l Ltl.Check.step) Mc.System.t;
      pstates : ('s * int) array;
    }
      -> product_sample

let tf b = if b then "T" else "F"
let q key run = { key; run }

let expected_ta model =
  match Lint.Ta_model.static_bound_cached model with
  | Lint.Interval.Finite n -> Some n
  | Lint.Interval.Unbounded -> None

let expected_pa spec =
  match Lint.Pa.static_bound_cached spec with
  | Lint.Interval.Finite n -> Some n
  | Lint.Interval.Unbounded -> None

let params_key (p : H.Params.t) =
  Printf.sprintf "n%d/%d-%d" p.H.Params.n p.H.Params.tmin p.H.Params.tmax

let safety_answer = function
  | Mc.Safety.Holds -> "T"
  | Mc.Safety.Violated _ -> "F"
  | Mc.Safety.Unknown n -> Printf.sprintf "unknown(%d)" n
  | Mc.Safety.Exhausted _ -> "exhausted"

(* --- discrete TA: Verify.check and its traced decomposition --- *)

let ta_check ?(fixed = false) ?r1_bound variant params req ~traced =
  if (not traced) && r1_bound = None then
    tf (H.Verify.check ~fixed variant params req).H.Verify.holds
  else
    let model =
      H.Ta_models.build ~fixed
        ~with_r1_monitors:(H.Requirements.needs_monitors req)
        ?r1_bound variant params
    in
    let net = span_named "ta.compile" (fun () -> Ta.Semantics.compile model) in
    let bad = H.Requirements.bad_state variant params net req in
    let expected_states = expected_ta model in
    explore_span (fun () ->
        safety_answer
          (Mc.Safety.check_state ~max_states:5_000_000 ?expected_states
             (sys_of traced "ta" (Ta.Semantics.system net))
             bad))

(* Verify.worst_detection, decomposed the same way: the smallest
   watchdog bound under which R1 holds. *)
let worst_detection variant params ~traced =
  if not traced then string_of_int (H.Verify.worst_detection variant params)
  else
    let holds b =
      ta_check ~r1_bound:b variant params H.Requirements.R1 ~traced = "T"
    in
    let rec search lo hi =
      if hi - lo <= 1 then hi
      else
        let mid = (lo + hi) / 2 in
        if holds mid then search lo mid else search mid hi
    in
    let ceiling = 4 * params.H.Params.tmax in
    if holds ceiling then string_of_int (search 0 ceiling) else "none"

(* --- the paper ---------------------------------------------------- *)

let scenario_answer (s : H.Scenarios.t) =
  let last = H.Scenarios.last_event s in
  Printf.sprintf "%d@%d:%s" (List.length s.H.Scenarios.events)
    last.H.Scenarios.time last.H.Scenarios.action

let graph_answer g =
  Printf.sprintf "%d/%d" (Lts.Graph.num_states g) (Lts.Graph.num_transitions g)

let sim_seed seed salt = Int64.of_int ((seed * 7919) + salt)

(* The ICDCS'98 series are seeded from the workload seed, so their
   answers are invariants rather than numbers: every injected crash is
   detected within the analytic bound, rates are positive. *)
let simulation_queries ~runs ~seed =
  let params = H.Params.make ~tmin:2 ~tmax:10 () in
  let kinds = H.Experiments.default_kinds params in
  let ok b = if b then "ok" else "violated" in
  [
    q "sim/rate" (fun ~traced:_ ->
        ok
          (List.for_all
             (fun k ->
               let r = H.Experiments.steady_rate ~seed:(sim_seed seed 1) k params in
               r.H.Experiments.msgs_per_time > 0.)
             kinds));
    q "sim/detection" (fun ~traced:_ ->
        ok
          (List.for_all
             (fun k ->
               let d =
                 H.Experiments.detection ~runs ~seed:(sim_seed seed 2) k params
               in
               (* the analytic bound counts from the last received beat;
                  measured from the crash, add one in-flight round trip *)
               d.H.Experiments.detected = runs
               && d.H.Experiments.max_delay
                  <= d.H.Experiments.analytic_bound
                     +. float params.H.Params.tmin)
             kinds));
    q "sim/reliability" (fun ~traced:_ ->
        ok
          (List.for_all
             (fun loss ->
               List.for_all
                 (fun k ->
                   let r =
                     H.Experiments.reliability ~runs ~seed:(sim_seed seed 3) k
                       params ~loss
                   in
                   r.H.Experiments.false_detections <= runs)
                 kinds)
             [ 0.01; 0.05; 0.2 ]));
    q "sim/qos" (fun ~traced:_ ->
        ok
          (List.for_all
             (fun r -> r.Fd.Qos.mean_detection > 0.)
             (Fd.Qos.margin_sweep ~runs:(max 4 (runs / 5)) ~margins:[ 1.0; 4.0 ]
                ~probes:3 ~seed:(sim_seed seed 4) ())));
  ]

let variant_key v = H.Ta_models.variant_name v

(* Uncached set-up of a TA model: what Verify.check does before its
   first successor call. *)
let setup_ta ?(fixed = false) ?(with_r1_monitors = false) variant params =
  let model = H.Ta_models.build ~fixed ~with_r1_monitors variant params in
  ignore (Ta.Semantics.compile model);
  ignore (Lint.Ta_model.static_bound model)

(* A bounded breadth-first prefix of a system, sampled with the seed. *)
let sample_states ~seed ?(prefix = 20_000) ?(keep = 256) sys =
  let sp = Mc.Explore.space ~max_states:prefix sys in
  let states = sp.Mc.Explore.states in
  let rng = Random.State.make [| seed |] in
  let n = Array.length states in
  Array.init (min keep n) (fun _ -> states.(Random.State.int rng n))

let ta_sample ~seed ?(fixed = false) variant params req =
  let model =
    H.Ta_models.build ~fixed
      ~with_r1_monitors:(H.Requirements.needs_monitors req)
      variant params
  in
  let net = Ta.Semantics.compile model in
  {
    net;
    configs = sample_states ~seed (Ta.Semantics.system net);
    goal = H.Requirements.bad_state variant params net req;
  }

(* R2 precedence monitor of the PA binary protocol, for microbenchmarks
   of Mc.Monitor.step on sampled labels. *)
let pa_sample ~seed variant params =
  let spec = H.Pa_models.build variant params in
  let sys = Proc.Semantics.system spec in
  let pstates = sample_states ~seed sys in
  let module S = (val sys) in
  let labels =
    Array.of_list
      (List.concat_map (fun s -> List.map fst (S.successors s)) (Array.to_list pstates))
  in
  let name_in names = function
    | Proc.Semantics.Tick -> false
    | Proc.Semantics.Act (n, _) -> List.mem n names
  in
  let monitor =
    Mc.Monitor.precedence
      ~fault:(name_in (H.Pa_models.act_lose variant 1))
      ~bad:(name_in [ H.Pa_models.act_inactivate_nv_pi 1 ])
  in
  { spec; pstates; monitor; labels }

let zone_sample ~seed ?(lu = Zone.Sym.Location) model =
  let zsym = Zone.Sym.compile ~lu model in
  { zsym; zstates = sample_states ~seed (Zone.Sym.system zsym) }

let product_sample ~seed ?(fixed = false) variant params req =
  let net = Ta.Semantics.compile (H.Ta_models.build ~fixed variant params) in
  let buchi = Ltl.Buchi.of_formula (H.Requirements.live_formula variant params req) in
  let psys, _ =
    Ltl.Check.product (Ta.Semantics.system net) buchi ~stutter:Ltl.Check.Extend
  in
  Product { psys; pstates = sample_states ~seed psys }

let race_params ~tmax variant =
  if H.Ta_models.is_multi variant && variant <> H.Ta_models.Static then
    H.Params.make ~tmin:2 ~tmax:2 ()
  else H.Params.make ~tmin:tmax ~tmax ()

(* The instances bypassed layers are microbenchmarked on. *)
let default_samples ~seed =
  {
    ta =
      ta_sample ~seed H.Ta_models.Binary (H.Params.make ~tmin:1 ~tmax:10 ())
        H.Requirements.R1;
    pa = pa_sample ~seed H.Pa_models.Binary (H.Params.make ~tmin:2 ~tmax:4 ());
    zone = zone_sample ~seed (Fc.fischer ~n:4 ());
    product =
      product_sample ~seed H.Ta_models.Binary
        (race_params ~tmax:4 H.Ta_models.Binary)
        H.Requirements.R2;
  }

let paper ~reduced ~seed =
  let datasets =
    if reduced then [ (1, 4); (4, 4) ] else [ (1, 6); (2, 6); (3, 6); (5, 6); (6, 6) ]
  in
  let points =
    List.concat_map
      (fun v ->
        List.map (fun (tmin, tmax) -> (v, H.Params.make ~tmin ~tmax ())) datasets)
      H.Ta_models.all_variants
  in
  let table fixed =
    List.concat_map
      (fun (v, p) ->
        List.map
          (fun req ->
            q
              (Printf.sprintf "paper/%s/%s/%s/%s"
                 (if fixed then "fixed" else "table")
                 (variant_key v) (params_key p) (H.Requirements.name req))
              (ta_check ~fixed v p req))
          H.Requirements.all)
      points
  in
  let figures =
    List.map
      (fun (name, f) ->
        q ("paper/figure/" ^ name) (fun ~traced:_ ->
            span_named "heartbeat.scenarios" (fun () -> scenario_answer (f ()))))
      (if reduced then [ ("fig11", H.Scenarios.fig11) ]
       else
         [
           ("fig10a", H.Scenarios.fig10a);
           ("fig10b", H.Scenarios.fig10b);
           ("fig11", H.Scenarios.fig11);
           ("fig12", H.Scenarios.fig12);
           ("fig13", H.Scenarios.fig13);
         ])
  in
  let components =
    let p = H.Params.make ~tmin:1 ~tmax:2 () in
    [
      q "paper/fig1/p0" (fun ~traced:_ ->
          graph_answer (H.Figures.p0_component p)
          ^ " " ^ graph_answer (H.Figures.p0_reduced p));
      q "paper/fig2/p1" (fun ~traced:_ ->
          graph_answer (H.Figures.p1_component p)
          ^ " " ^ graph_answer (H.Figures.p1_reduced p));
    ]
  in
  let worst =
    List.map
      (fun (tmin, tmax) ->
        let p = H.Params.make ~tmin ~tmax () in
        q
          (Printf.sprintf "paper/worst_detection/binary/%s" (params_key p))
          (fun ~traced ->
            Printf.sprintf "%s/%d"
              (worst_detection H.Ta_models.Binary p ~traced)
              (H.Bounds.p0_detection_exhaustive p)))
      datasets
  in
  {
    setup =
      (fun () ->
        List.iter
          (fun (v, p) ->
            List.iter
              (fun fixed ->
                setup_ta ~fixed v p;
                setup_ta ~fixed ~with_r1_monitors:true v p)
              [ false; true ])
          points);
    queries =
      table false @ table true @ figures @ components @ worst
      @ simulation_queries ~runs:(if reduced then 10 else 100) ~seed;
    samples =
      (fun () ->
        {
          (default_samples ~seed) with
          ta =
            ta_sample ~seed H.Ta_models.Dynamic
              (H.Params.make ~tmin:1 ~tmax:10 ())
              H.Requirements.R1;
        });
  }

(* --- process algebra --------------------------------------------- *)

(* Pa_verify's monitors, rebuilt from the public action names so that
   the traced run can time Mc.Monitor and the reduced systems. *)
let pa_monitors variant (p : H.Params.t) req =
  let ps =
    match variant with
    | H.Pa_models.Static | H.Pa_models.Expanding | H.Pa_models.Dynamic ->
        List.init p.H.Params.n (fun k -> k + 1)
    | H.Pa_models.Binary | H.Pa_models.Revised | H.Pa_models.Two_phase -> [ 1 ]
  in
  let name_in names = function
    | Proc.Semantics.Tick -> false
    | Proc.Semantics.Act (n, _) -> List.mem n names
  in
  let is_tick l = l = Proc.Semantics.Tick in
  let joining = H.Pa_models.has_join variant in
  let loses = List.concat_map (H.Pa_models.act_lose variant) ps in
  match (req : H.Requirements.requirement) with
  | H.Requirements.R1 ->
      List.map
        (fun i ->
          let reset_names =
            H.Pa_models.act_beat_delivered_to_p0 i
            :: (if joining then [ H.Pa_models.act_join_delivered_to_p0 i ] else [])
          in
          let ok_names =
            [ H.Pa_models.act_inactivate_nv_p0; H.Pa_models.act_crash_p0 ]
            @
            if variant = H.Pa_models.Dynamic then
              [ H.Pa_models.act_leave_delivered_to_p0 i ]
            else []
          in
          let reset = name_in reset_names and ok = name_in ok_names in
          let bound = 2 * p.H.Params.tmax in
          ( (if joining then
               Mc.Monitor.deadline_after ~arm:reset ~tick:is_tick ~reset ~ok bound
             else Mc.Monitor.deadline ~tick:is_tick ~reset ~ok bound),
            (Proc.Spec.tick_name :: reset_names) @ ok_names ))
        ps
  | H.Requirements.R2 ->
      List.map
        (fun i ->
          let fault =
            loses
            @ [ H.Pa_models.act_crash_p0; H.Pa_models.act_inactivate_nv_p0 ]
            @ List.concat_map
                (fun j ->
                  if j = i then []
                  else [ H.Pa_models.act_crash_pi j; H.Pa_models.act_inactivate_nv_pi j ])
                ps
          in
          let bad = [ H.Pa_models.act_inactivate_nv_pi i ] in
          (Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad), fault @ bad))
        ps
  | H.Requirements.R3 ->
      let fault =
        loses
        @ List.concat_map
            (fun j -> [ H.Pa_models.act_crash_pi j; H.Pa_models.act_inactivate_nv_pi j ])
            ps
      in
      let bad = [ H.Pa_models.act_inactivate_nv_p0 ] in
      [ (Mc.Monitor.precedence ~fault:(name_in fault) ~bad:(name_in bad), fault @ bad) ]

let pa_check ~reduce variant params req ~traced =
  if not traced then tf (H.Pa_verify.check ~reduce variant params req)
  else
    let spec = H.Pa_models.build variant params in
    let sys = proxy "proc" (Proc.Semantics.system spec) in
    let expected_states = expected_pa spec in
    let analysis =
      if reduce then
        Some (span_named "por.analyze" (fun () -> Por.analyze_cached spec))
      else None
    in
    let rec go = function
      | [] -> Mc.Safety.Holds
      | (monitor, alphabet) :: rest -> (
          let reduction =
            Option.map
              (fun a -> proxy "por" (Por.reduced_system ~alphabet a))
              analysis
          in
          match
            explore_span (fun () ->
                Mc.Safety.check_monitor ~max_states:4_000_000 ?expected_states
                  ?reduction sys monitor)
          with
          | Mc.Safety.Holds -> go rest
          | v -> v)
    in
    safety_answer (go (pa_monitors variant params req))

let pa_explore ~reduce variant params ~traced =
  let answer states transitions complete =
    Printf.sprintf "%d/%d%s" states transitions (if complete then "" else "*")
  in
  if not traced then
    let s = H.Pa_verify.explore ~reduce variant params in
    answer s.H.Pa_verify.states s.H.Pa_verify.transitions s.H.Pa_verify.complete
  else
    let spec = H.Pa_models.build variant params in
    let sys =
      if reduce then
        proxy "por"
          (Por.reduced_system
             (span_named "por.analyze" (fun () -> Por.analyze_cached spec)))
      else proxy "proc" (Proc.Semantics.system spec)
    in
    let sp =
      explore_span (fun () ->
          Mc.Explore.space ~max_states:4_000_000 ?expected_states:(expected_pa spec)
            sys)
    in
    answer
      (Lts.Graph.num_states sp.Mc.Explore.lts)
      (Lts.Graph.num_transitions sp.Mc.Explore.lts)
      sp.Mc.Explore.complete

let pa_variants =
  H.Pa_models.[ Binary; Revised; Two_phase; Static; Expanding; Dynamic ]

let pa ~reduced ~seed =
  let params v =
    match (v : H.Pa_models.variant) with
    | H.Pa_models.Static ->
        if reduced then H.Params.make ~n:1 ~tmin:2 ~tmax:3 ()
        else H.Params.make ~n:2 ~tmin:2 ~tmax:2 ()
    | _ -> if reduced then H.Params.make ~tmin:2 ~tmax:3 () else H.Params.make ~tmin:2 ~tmax:3 ()
  in
  let queries =
    List.concat_map
      (fun v ->
        let p = params v in
        let base = Printf.sprintf "pa/%s/%s" (H.Pa_models.variant_name v) (params_key p) in
        List.concat_map
          (fun req ->
            List.map
              (fun reduce ->
                q
                  (Printf.sprintf "%s/%s/%s" base (H.Requirements.name req)
                     (if reduce then "reduced" else "full"))
                  (pa_check ~reduce v p req))
              [ false; true ])
          H.Requirements.all
        @ List.map
            (fun reduce ->
              q
                (Printf.sprintf "%s/explore/%s" base (if reduce then "reduced" else "full"))
                (pa_explore ~reduce v p))
            [ false; true ])
      pa_variants
  in
  {
    setup =
      (fun () ->
        List.iter
          (fun v ->
            let spec = H.Pa_models.build v (params v) in
            ignore (Proc.Semantics.compile spec);
            ignore (Por.analyze spec);
            ignore (Lint.Pa.static_bound spec))
          pa_variants);
    queries;
    samples =
      (fun () ->
        let v = H.Pa_models.Static in
        { (default_samples ~seed) with pa = pa_sample ~seed v (params v) });
  }

(* --- dense time --------------------------------------------------- *)

let zone_stats = Zone.Reach.new_stats ()

let zone_find z goal =
  let stats = Zone.Reach.new_stats () in
  let r =
    span_named "zone.reach" (fun () ->
        Zone.Reach.find ~max_states:5_000_000 ~stats z ~goal)
  in
  if !tracing then begin
    zone_stats.Zone.Reach.states <- zone_stats.Zone.Reach.states + stats.Zone.Reach.states;
    zone_stats.Zone.Reach.transitions <-
      zone_stats.Zone.Reach.transitions + stats.Zone.Reach.transitions;
    zone_stats.Zone.Reach.subsumed <-
      zone_stats.Zone.Reach.subsumed + stats.Zone.Reach.subsumed
  end;
  (r, stats)

let zone_check variant params req ~traced =
  if not traced then
    let o = H.Verify.check ~zone:true ~lu:Zone.Sym.Location variant params req in
    match o.H.Verify.states_explored with
    | Some n when o.H.Verify.holds -> Printf.sprintf "T/%d" n
    | _ -> tf o.H.Verify.holds
  else
    let model =
      H.Ta_models.build ~with_r1_monitors:(H.Requirements.needs_monitors req)
        variant params
    in
    let z =
      span_named "zone.sym.compile" (fun () ->
          Zone.Sym.compile ~lu:Zone.Sym.Location model)
    in
    let bad = H.Requirements.bad_state variant params (Zone.Sym.net z) req in
    match zone_find z (Zone.Sym.bad_of z bad) with
    | Mc.Explore.Unreachable, stats -> Printf.sprintf "T/%d" stats.Zone.Reach.states
    | Mc.Explore.Reached _, _ -> "F"
    | (Mc.Explore.Bound_hit _ | Mc.Explore.Exhausted _), _ -> "unknown"

let fischer_count n ~traced =
  let z =
    span_named "zone.sym.compile" (fun () ->
        Zone.Sym.compile ~lu:Zone.Sym.Location (Fc.fischer ~n ()))
  in
  if not traced then
    let c, complete = Zone.Reach.count ~max_states:5_000_000 z in
    Printf.sprintf "%d%s" c (if complete then "" else "*")
  else
    match zone_find z (fun _ -> false) with
    | Mc.Explore.Unreachable, stats -> string_of_int stats.Zone.Reach.states
    | _ -> "unknown"

let fc_verdict (spec : Fc.spec) ~traced:_ =
  let z =
    span_named "zone.sym.compile" (fun () ->
        Zone.Sym.compile ~lu:Zone.Sym.Location spec.Fc.model)
  in
  let goal = Zone.Sym.bad_of z (Fc.bad_predicate spec (Zone.Sym.net z)) in
  match zone_find z goal with
  | Mc.Explore.Unreachable, _ -> "safe"
  | Mc.Explore.Reached _, _ -> "unsafe"
  | _ -> "unknown"

(* R3 holds on the heartbeat models, so its zone graph is explored in
   full: at n = 2 that is 188 063 / 299 606 zones, about 30 s, so R3 is
   checked at n = 1 while the refuted R1/R2 run at n = 2. *)
let dense ~reduced ~seed =
  let n = if reduced then 1 else 2 in
  let params = H.Params.make ~n ~tmin:1 ~tmax:2 () in
  let params_for = function
    | H.Requirements.R3 -> H.Params.make ~n:1 ~tmin:1 ~tmax:2 ()
    | H.Requirements.R1 | H.Requirements.R2 -> params
  in
  let fischer_n = if reduced then 4 else 8 in
  let variants = [ H.Ta_models.Expanding; H.Ta_models.Dynamic ] in
  let queries =
    List.concat_map
      (fun v ->
        List.map
          (fun req ->
            let p = params_for req in
            q
              (Printf.sprintf "dense/%s/%s/%s" (variant_key v) (params_key p)
                 (H.Requirements.name req))
              (zone_check v p req))
          H.Requirements.all)
      variants
    @ [ q (Printf.sprintf "dense/fischer/n%d" fischer_n) (fischer_count fischer_n) ]
    @ List.map (fun s -> q ("dense/fc/" ^ s.Fc.fc_name) (fc_verdict s)) Fc.all
  in
  {
    setup =
      (fun () ->
        List.iter
          (fun v ->
            List.iter
              (fun req ->
                let m =
                  H.Ta_models.build
                    ~with_r1_monitors:(H.Requirements.needs_monitors req)
                    v (params_for req)
                in
                ignore (Lubounds.analyze m);
                ignore (Zone.Sym.compile ~lu:Zone.Sym.Location m))
              H.Requirements.all)
          variants;
        List.iter
          (fun m ->
            ignore (Lubounds.analyze m);
            ignore (Zone.Sym.compile ~lu:Zone.Sym.Location m))
          (Fc.fischer ~n:fischer_n () :: List.map (fun s -> s.Fc.model) Fc.all));
    queries;
    samples =
      (fun () ->
        let v = H.Ta_models.Dynamic in
        {
          (default_samples ~seed) with
          ta = ta_sample ~seed v params H.Requirements.R2;
          zone = zone_sample ~seed (H.Ta_models.build v params);
        });
  }

(* --- liveness and checkpoints ------------------------------------ *)

let engine_name = function Ltl.Check.Ndfs -> "ndfs" | Ltl.Check.Scc -> "scc"

let live_answer = function
  | Ltl.Check.Holds -> "T"
  | Ltl.Check.Refuted l ->
      Printf.sprintf "F/%d+%d" (List.length l.Ltl.Check.prefix)
        (List.length l.Ltl.Check.cycle)
  | Ltl.Check.Unknown n -> Printf.sprintf "unknown(%d)" n
  | Ltl.Check.Exhausted _ -> "exhausted"

let ltl_product_states = ref 0

let ta_live ~fixed ~engine variant params req ~traced =
  if not traced then live_answer (H.Verify.check_live ~fixed ~engine variant params req)
  else
    let net = Ta.Semantics.compile (H.Ta_models.build ~fixed variant params) in
    let formula = H.Requirements.live_formula variant params req in
    let succ = layer "ta.successors" in
    let before = succ.calls in
    let v =
      span_named ("ltl." ^ engine_name engine) (fun () ->
          Ltl.Check.check ~engine ~fairness:H.Requirements.live_fairness
            ~max_states:5_000_000
            (proxy "ta" (Ta.Semantics.system net))
            formula)
    in
    ltl_product_states := !ltl_product_states + succ.calls - before;
    live_answer v

let pa_live ~reduce params req ~traced =
  let v = H.Pa_models.Binary in
  if not traced then live_answer (H.Pa_verify.check_live ~reduce v params req)
  else
    let spec = H.Pa_models.build v params in
    let reduction =
      if reduce then
        let a = span_named "por.analyze" (fun () -> Por.analyze_cached spec) in
        Some
          (fun ~alphabet ->
            Option.map (proxy "por") (Por.reduction a ~alphabet))
      else None
    in
    let succ = layer "proc.successors" and psucc = layer "por.successors" in
    let before = succ.calls + psucc.calls in
    let r =
      span_named "ltl.ndfs" (fun () ->
          Ltl.Check.check ~fairness:H.Requirements.live_fairness_pa ?reduction
            ~max_states:4_000_000
            (proxy "proc" (Proc.Semantics.system spec))
            (H.Requirements.live_formula_pa v params req))
    in
    ltl_product_states := !ltl_product_states + succ.calls + psucc.calls - before;
    live_answer r


(* Timings of the last checkpoint round trip, for the traced report. *)
let checkpoint_stats : (string, float) Hashtbl.t = Hashtbl.create 4
let tmp_dir = ref "."

(* Suspend an SCC product build half way, save the cursor with
   Mc.Checkpoint, load it back and resume: the resumed verdict must be
   the uninterrupted one.  The half-way point is found by counting the
   budget polls (one per expanded product state) of a full run. *)
let checkpoint_round_trip ~fixed variant params req ~traced:_ =
  let polls = ref 0 in
  let stop_after limit =
    Mc.Budget.make
      ~probe:(fun () ->
        incr polls;
        if !polls >= limit then Some Mc.Budget.Cancelled else None)
      ~check_every:1 ()
  in
  let run ?resume budget =
    H.Verify.check_live_run ~fixed ~engine:Ltl.Check.Scc ?budget ?resume variant
      params req
  in
  match run (Some (stop_after max_int)) with
  | Ltl.Check.Suspended _ -> "suspended-unbudgeted"
  | Ltl.Check.Concluded total -> (
      let half = !polls / 2 in
      polls := 0;
      match span_named "ltl.scc" (fun () -> run (Some (stop_after half))) with
      | Ltl.Check.Concluded _ -> "not-suspended"
      | Ltl.Check.Suspended (_, cur) ->
          let file =
            Filename.concat !tmp_dir
              (Printf.sprintf "hbbench-%d.ck" (Unix.getpid ()))
          in
          let kind = "perfbench/liveness" in
          let t0 = clock_ns () in
          span_named "mc.checkpoint.save" (fun () ->
              Mc.Checkpoint.save ~file ~kind cur);
          let t1 = clock_ns () in
          let bytes = (Unix.stat file).Unix.st_size in
          let cur' =
            span_named "mc.checkpoint.load" (fun () ->
                match Mc.Checkpoint.load ~file ~kind with
                | Ok c -> c
                | Error e -> failwith e)
          in
          let t2 = clock_ns () in
          Sys.remove file;
          let resumed =
            span_named "mc.checkpoint.resume" (fun () -> run ~resume:cur' None)
          in
          let t3 = clock_ns () in
          (* the first traced round trip is the workload's own *)
          if !tracing && Hashtbl.length checkpoint_stats = 0 then
          List.iter
            (fun (k, v) -> Hashtbl.replace checkpoint_stats k v)
            [
              ("save_s", float (t1 - t0) *. 1e-9);
              ("load_s", float (t2 - t1) *. 1e-9);
              ("resume_s", float (t3 - t2) *. 1e-9);
              ("bytes", float bytes);
              ("at_states", float half);
            ];
          match resumed with
          | Ltl.Check.Concluded v when live_answer v = live_answer total ->
              "resumed:" ^ live_answer v
          | _ -> "resume-mismatch")

let liveness ~reduced ~seed =
  let tmax = if reduced then 2 else 8 in
  let variants =
    if reduced then [ H.Ta_models.Binary; H.Ta_models.Expanding ]
    else H.Ta_models.all_variants
  in
  let matrix =
    List.concat_map
      (fun v ->
        let p = race_params ~tmax v in
        List.concat_map
          (fun req ->
            List.concat_map
              (fun fixed ->
                List.map
                  (fun engine ->
                    q
                      (Printf.sprintf "liveness/%s/%s/%s-live/%s/%s" (variant_key v)
                         (params_key p) (H.Requirements.name req)
                         (if fixed then "fixed" else "unfixed")
                         (engine_name engine))
                      (ta_live ~fixed ~engine v p req))
                  [ Ltl.Check.Ndfs; Ltl.Check.Scc ])
              [ false; true ])
          H.Requirements.all)
      variants
  in
  let pa_params = H.Params.make ~tmin:2 ~tmax:2 () in
  let pa_queries =
    List.concat_map
      (fun req ->
        List.map
          (fun reduce ->
            q
              (Printf.sprintf "liveness/pa/binary/%s/%s-live/%s" (params_key pa_params)
                 (H.Requirements.name req)
                 (if reduce then "reduced" else "full"))
              (pa_live ~reduce pa_params req))
          [ false; true ])
      H.Requirements.all
  in
  (* the largest SCC product build of the matrix: unfixed dynamic R1-live *)
  let ck_variant = if reduced then H.Ta_models.Binary else H.Ta_models.Dynamic in
  let ck_params = race_params ~tmax ck_variant in
  let checkpoint =
    q
      (Printf.sprintf "liveness/checkpoint/%s/%s/R1-live/unfixed/scc"
         (variant_key ck_variant) (params_key ck_params))
      (checkpoint_round_trip ~fixed:false ck_variant ck_params H.Requirements.R1)
  in
  {
    setup =
      (fun () ->
        List.iter
          (fun v ->
            let p = race_params ~tmax v in
            List.iter
              (fun fixed ->
                setup_ta ~fixed v p;
                List.iter
                  (fun req ->
                    ignore
                      (Ltl.Buchi.of_formula (H.Requirements.live_formula v p req)))
                  H.Requirements.all)
              [ false; true ])
          variants;
        let spec = H.Pa_models.build H.Pa_models.Binary pa_params in
        ignore (Por.analyze spec);
        ignore (Lint.Pa.static_bound spec));
    queries = matrix @ pa_queries @ [ checkpoint ];
    samples =
      (fun () ->
        {
          (default_samples ~seed) with
          product =
            product_sample ~seed ck_variant ck_params H.Requirements.R1;
        });
  }

let workloads = [ ("paper", paper); ("pa", pa); ("dense", dense); ("liveness", liveness) ]

(* ------------------------------------------------------------------ *)
(* The layer probe: one small instance per layer, run traced            *)
(* ------------------------------------------------------------------ *)

(* Every traced run ends with the same small queries through every
   layer, so that each per-layer figure is measured on every workload;
   the workload's own traffic is what it adds on top. *)
let probe_queries () =
  let binary = H.Params.make ~tmin:1 ~tmax:10 () in
  let pa_p = H.Params.make ~tmin:2 ~tmax:4 () in
  let race = race_params ~tmax:4 H.Ta_models.Binary in
  [
    q "probe/ta" (ta_check H.Ta_models.Binary binary H.Requirements.R1);
    q "probe/pa/full" (pa_explore ~reduce:false H.Pa_models.Binary pa_p);
    q "probe/pa/reduced" (pa_explore ~reduce:true H.Pa_models.Binary pa_p);
    q "probe/zone" (fischer_count 4);
    q "probe/ltl/ndfs"
      (ta_live ~fixed:false ~engine:Ltl.Check.Ndfs H.Ta_models.Binary race
         H.Requirements.R2);
    q "probe/ltl/scc"
      (ta_live ~fixed:false ~engine:Ltl.Check.Scc H.Ta_models.Binary race
         H.Requirements.R2);
    q "probe/checkpoint"
      (checkpoint_round_trip ~fixed:true H.Ta_models.Binary race H.Requirements.R1);
  ]

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                      *)
(* ------------------------------------------------------------------ *)

(* Nanoseconds per operation of [f], which performs [ops] operations
   per call: Bechamel's OLS estimate over a short quota. *)
let bench_ns name ~ops f =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.15) ~kde:None ~stabilize:false ()
  in
  let inst = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ inst ] (Test.make ~name (Staged.stage f)) in
  let res =
    Analyze.all (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]) inst raw
  in
  let est =
    Hashtbl.fold
      (fun _ o acc ->
        match Analyze.OLS.estimates o with Some (t :: _) -> t | _ -> acc)
      res nan
  in
  est /. float ops

let iter_all a f () = Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) a

let mean_bytes a =
  let total =
    Array.fold_left
      (fun acc x -> acc + String.length (Marshal.to_string x [ Marshal.No_sharing ]))
      0 a
  in
  float total /. float (max 1 (Array.length a))

(* Store microbenchmarks on a state sample: fingerprinting, and
   interning the sample into a fresh exact store. *)
let store_bench (type s) ~hash ~equal (states : s array) =
  let module St = Mc.Store.Make (struct
    type t = s

    let equal = equal
    let hash = hash
  end) in
  let n = Array.length states in
  let fp = bench_ns "store.fingerprint" ~ops:n (iter_all states Mc.Store.fingerprint) in
  let intern =
    bench_ns "store.intern" ~ops:n (fun () ->
        let t = St.create ~shards:1 Mc.Store.Exact in
        Array.iter (fun s -> ignore (St.intern t s ~depth:0)) states)
  in
  (fp, intern, mean_bytes states)

let dbm_bench (z : zone_sample) ~seed =
  let dim = Zone.Sym.dim z.zsym in
  let dbms = Array.map (fun s -> s.Zone.Sym.dbm) z.zstates in
  let n = Array.length dbms in
  let l = Array.make dim 0 and u = Array.make dim 0 in
  List.iteri
    (fun i (_, lo, up) ->
      if i + 1 < dim then begin
        l.(i + 1) <- lo;
        u.(i + 1) <- up
      end)
    (Zone.Sym.lu_bounds z.zsym);
  let rng = Random.State.make [| seed; 17 |] in
  let cons =
    Array.init n (fun _ ->
        let i = Random.State.int rng dim and j = Random.State.int rng dim in
        (i, j, Zone.Dbm.bnd (Random.State.int rng 8) ~strict:false))
  in
  (* close, up and extrapolation cost the same on their own output, so
     they run in place on one private copy; constrain is timed on fresh
     copies, less the cost of copying *)
  let work = Array.map Zone.Dbm.copy dbms in
  let in_place name f = bench_ns name ~ops:n (fun () -> Array.iteri f work) in
  let copy_ns = bench_ns "dbm.copy" ~ops:n (fun () -> ignore (Array.map Zone.Dbm.copy dbms)) in
  let on_copies name f =
    bench_ns name ~ops:n (fun () -> Array.iteri f (Array.map Zone.Dbm.copy dbms)) -. copy_ns
  in
  let others = Array.init n (fun k -> dbms.((k * 7 + 3) mod n)) in
  [
    ("zone.dbm.close.ns", in_place "dbm.close" (fun _ m -> ignore (Zone.Dbm.close ~dim m)));
    ( "zone.dbm.constrain.ns",
      on_copies "dbm.constrain" (fun k m ->
          let i, j, b = cons.(k) in
          ignore (Zone.Dbm.constrain ~dim m i j b)) );
    ("zone.dbm.up.ns", in_place "dbm.up" (fun _ m -> Zone.Dbm.up ~dim m));
    ( "zone.dbm.extrapolate_lu.ns",
      in_place "dbm.extrapolate" (fun _ m -> Zone.Dbm.extrapolate_lu ~dim m ~l ~u) );
    ( "zone.dbm.includes.ns",
      bench_ns "dbm.includes" ~ops:n (fun () ->
          Array.iteri (fun k m -> ignore (Zone.Dbm.includes ~dim m others.(k))) dbms) );
    ( "zone.sym.successors.ns",
      bench_ns "sym.successors" ~ops:(Array.length z.zstates)
        (iter_all z.zstates (Zone.Sym.successors z.zsym)) );
  ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time_s f =
  let t0 = clock_ns () in
  ignore (Sys.opaque_identity (f ()));
  float (clock_ns () - t0) *. 1e-9

let median_time ~reps f = median (List.init reps (fun _ -> time_s f))

(* Sequential vs two-domain exploration of the same space (never more
   domains than the host has). *)
let pexplore_probe () =
  let sys =
    Ta.Semantics.system
      (Ta.Semantics.compile
         (H.Ta_models.build H.Ta_models.Dynamic (H.Params.make ~tmin:1 ~tmax:10 ())))
  in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let seq = median_time ~reps:3 (fun () -> Mc.Explore.count sys) in
  let steals = ref 0 in
  let par =
    median_time ~reps:3 (fun () ->
        let r, stats = Mc.Pexplore.count_stats ~domains sys in
        steals := stats.Mc.Pexplore.steals;
        r)
  in
  (seq /. par, float !steals)

(* ------------------------------------------------------------------ *)
(* Running a workload                                                   *)
(* ------------------------------------------------------------------ *)

let load_reference file =
  let t = Hashtbl.create 512 in
  if file <> "" then begin
    let ic = open_in file in
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line '\t' with
         | Some i when line <> "" && line.[0] <> '#' ->
             Hashtbl.replace t (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  t

type tally = {
  mutable checks : int;
  mutable wrong : int;
  mutable wrong_keys : string list;
  answers : (string, string) Hashtbl.t;
}

let check tally reference key answer =
  Hashtbl.replace tally.answers key answer;
  tally.checks <- tally.checks + 1;
  let ok =
    match Hashtbl.find_opt reference key with Some a -> a = answer | None -> false
  in
  if not ok then begin
    tally.wrong <- tally.wrong + 1;
    if not (List.mem key tally.wrong_keys) then
      tally.wrong_keys <- key :: tally.wrong_keys
  end

(* A fixed computation that uses none of the repository's code but works
   like it: hash-table inserts and lookups of small arrays, list
   allocation and sorting.  Its data stays small enough to die in the
   minor heap.  The speed of a shared host drifts by +-20 % over tens of
   seconds; timed between queries, this chunk follows that drift (0.96
   correlation with query times over 10 s windows), so dividing by it
   takes the drift out of the workload's times. *)
let calibration_table = Array.make (1 lsl 21) 0

let calibration_chunk () =
  let t0 = clock_ns () in
  let a = calibration_table and mask = (1 lsl 21) - 1 and x = ref 1 in
  for i = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lxor (!x lsr 11)) land mask in
    Array.unsafe_set a j (Array.unsafe_get a j + i)
  done;
  let acc = ref 0 in
  for r = 1 to 4 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 3_999 do
      Hashtbl.replace h ((i * 7919 * r) land 0xffff) (Array.make 4 i)
    done;
    let l = List.init 4_000 (fun i -> ((i * 104729) land 0xffff, i)) in
    List.iter
      (fun (k, i) -> if Hashtbl.mem h k then acc := !acc + Hashtbl.hash (k, i))
      (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc);
  float (clock_ns () - t0) *. 1e-9

(* One pass over the queries: per-query latencies (ms), wall and CPU
   seconds, and the calibration chunk time weighted by the work it
   brackets.  Chunks run before the first query and after every
   [stride]-th, so their placement (and with it the allocation sequence
   the GC sees) does not depend on timing: [stride] is chosen from the
   query count for about 32 chunks a pass.  Each group of queries is
   weighted by the mean of the chunks before and after it; chunk time is
   excluded from the pass's wall and CPU time. *)
let run_pass ~traced tally reference queries =
  let stride = max 1 (List.length queries / 32) in
  let cpu0 = Sys.time () and t0 = clock_ns () in
  let chunk_s = ref 0. and weighted = ref 0. and work = ref 0. in
  let chunk () =
    let c = calibration_chunk () in
    chunk_s := !chunk_s +. c;
    c
  in
  let prev = ref (chunk ()) and group = ref 0. in
  (* the calibration of each query's group, filled in as groups close *)
  let factors = ref [] and pending = ref 0 in
  let close_group () =
    let next = chunk () in
    let c = (!prev +. next) /. 2. in
    weighted := !weighted +. (!group *. c);
    work := !work +. !group;
    factors := List.init !pending (fun _ -> c) @ !factors;
    prev := next;
    group := 0.;
    pending := 0
  in
  let lat =
    List.mapi
      (fun k qr ->
        let s = clock_ns () in
        let a = qr.run ~traced in
        let d = float (clock_ns () - s) *. 1e-6 in
        check tally reference qr.key a;
        group := !group +. d;
        incr pending;
        if (k + 1) mod stride = 0 then close_group ();
        d)
      queries
  in
  if !pending > 0 then close_group ();
  ( List.combine lat (List.rev !factors),
    (float (clock_ns () - t0) *. 1e-9) -. !chunk_s,
    Sys.time () -. cpu0 -. !chunk_s,
    if !work > 0. then !weighted /. !work else !prev )

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float kb /. 1024.)
      | _ -> go ()
    in
    let r = go () in
    close_in ic;
    r
  with Sys_error _ -> nan

(* Non-finite numbers (a layer that could not be measured) print as
   null, which run.py rejects. *)
let json_number fmt x = if Float.is_finite x then Printf.sprintf fmt x else "null"

let json_floats l =
  "[" ^ String.concat "," (List.map (json_number "%.6g") l) ^ "]"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let answers_json tally =
  let kv =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally.answers [] |> List.sort compare
  in
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) kv)
  ^ "}"

let layer_metrics ~samples ~seed ~traced_wall ~untraced_wall =
  let get n = layer n in
  let self n = let l = get n in float (l.total_ns - l.child_ns) *. 1e-9 in
  let per_call n =
    let l = get n in
    if l.calls = 0 then nan else float l.total_ns /. float l.calls
  in
  let ta = get "ta.successors" and pr = get "proc.successors" and po = get "por.successors" in
  let explore = get "mc.explore" in
  let s = samples in
  let ta_sys = Ta.Semantics.system s.ta.net in
  let module T = (val ta_sys) in
  let ta_fp, ta_intern, ta_bytes =
    store_bench ~hash:T.hash_state ~equal:T.equal_state s.ta.configs
  in
  let pa_sys = Proc.Semantics.system s.pa.spec in
  let module P = (val pa_sys) in
  let pairs a = Array.init (Array.length a) (fun k -> (a.(k), a.((k * 5 + 1) mod Array.length a))) in
  let pa_pairs = pairs s.pa.pstates in
  let n_ta = Array.length s.ta.configs and n_pa = Array.length s.pa.pstates in
  let monitor_steps =
    let m = s.pa.monitor in
    let qs = Array.map (fun _ -> m.Mc.Monitor.start) s.pa.labels in
    fun () -> Array.iteri (fun k l -> qs.(k) <- m.Mc.Monitor.step qs.(k) l) s.pa.labels
  in
  let product_ns, product_scc_s =
    match s.product with
    | Product { psys; pstates } ->
        let module Pr = (val psys) in
        let ns =
          bench_ns "product.successors" ~ops:(Array.length pstates)
            (iter_all pstates Pr.successors)
        in
        let sp = Mc.Explore.space ~max_states:2_000_000 psys in
        (ns, median_time ~reps:3 (fun () -> Lts.Graph.scc sp.Mc.Explore.lts))
  in
  let speedup, steals = pexplore_probe () in
  let zstats = zone_stats in
  let zreach = get "zone.reach" in
  let sym_ns_dbm = dbm_bench s.zone ~seed in
  let sim_events, sim_rate =
    let events = ref 0 in
    let cfg =
      H.Runtime.config ~kind:H.Runtime.Halving ~seed:(sim_seed seed 5) ~duration:20_000.0
        (H.Params.make ~tmin:2 ~tmax:10 ())
    in
    let t = time_s (fun () -> H.Runtime.run ~on_event:(fun _ -> incr events) cfg) in
    (float !events, float !events /. t)
  in
  let cache = H.Analysis_cache.stats () in
  let gc = Gc.quick_stat () in
  let ck k = Option.value (Hashtbl.find_opt checkpoint_stats k) ~default:nan in
  let model_for_compile = H.Ta_models.build ~with_r1_monitors:true H.Ta_models.Dynamic (H.Params.make ~tmin:1 ~tmax:10 ()) in
  [
    ("ta.successors.calls", float ta.calls);
    ("ta.successors.ns", per_call "ta.successors");
    ("ta.successors.self_s", self "ta.successors");
    ("ta.hash.ns", bench_ns "ta.hash" ~ops:n_ta (iter_all s.ta.configs T.hash_state));
    ("ta.equal.calls", float (get "ta.equal").calls);
    ("ta.compile.ms", 1e3 *. median_time ~reps:5 (fun () -> Ta.Semantics.compile model_for_compile));
    ("mc.explore.states", float !explored_states);
    ("mc.explore.transitions", float !explored_transitions);
    ("mc.explore.self_s", self "mc.explore");
    ("mc.explore.states_per_s", float !explored_states /. (float explore.total_ns *. 1e-9));
    ("mc.safety.goal.ns", bench_ns "safety.goal" ~ops:n_ta (iter_all s.ta.configs s.ta.goal));
    ("mc.monitor.step.ns", bench_ns "monitor.step" ~ops:(max 1 (Array.length s.pa.labels)) monitor_steps);
    ("mc.store.fingerprint.ns", ta_fp);
    ("mc.store.fingerprint.bytes", ta_bytes);
    ("mc.store.intern.ns", ta_intern);
    ("mc.pexplore.speedup_2dom", speedup);
    ("mc.pexplore.steals", steals);
    ("proc.successors.calls", float pr.calls);
    ("proc.successors.ns", per_call "proc.successors");
    ("proc.successors.self_s", self "proc.successors");
    ("proc.hash.ns", bench_ns "proc.hash" ~ops:n_pa (iter_all s.pa.pstates P.hash_state));
    ("proc.equal.ns", bench_ns "proc.equal" ~ops:n_pa (iter_all pa_pairs (fun (a, b) -> P.equal_state a b)));
    ("proc.state.bytes", mean_bytes s.pa.pstates);
    ("por.analyze.ms", 1e3 *. median_time ~reps:3 (fun () -> Por.analyze s.pa.spec));
    ("por.successors.ns", per_call "por.successors");
    ("por.reduction_ratio", float pr.calls /. float (max 1 po.calls));
    ("por.states_per_s", float po.calls /. (float po.total_ns *. 1e-9));
    ("zone.reach.states", float zstats.Zone.Reach.states);
    ("zone.reach.transitions", float zstats.Zone.Reach.transitions);
    ( "zone.reach.subsumed_ratio",
      float zstats.Zone.Reach.subsumed /. float (max 1 zstats.Zone.Reach.transitions) );
    ("zone.reach.zones_per_s", float zstats.Zone.Reach.states /. (float zreach.total_ns *. 1e-9));
    (* Zone.Sym and Zone.Dbm run inside Zone.Reach and cannot be split
       off from outside: this self time includes them *)
    ("zone.reach.self_s", self "zone.reach");
  ]
  @ sym_ns_dbm
  @ [
      ( "zone.sym.compile.ms",
        1e3 *. median_time ~reps:3 (fun () -> Zone.Sym.compile ~lu:Zone.Sym.Location (Fc.fischer ~n:8 ())) );
      ("lubounds.analyze.ms", 1e3 *. median_time ~reps:3 (fun () -> Lubounds.analyze (Fc.fischer ~n:8 ())));
      ( "ltl.buchi.of_formula.ms",
        1e3
        *. median_time ~reps:5 (fun () ->
               List.map
                 (fun r ->
                   Ltl.Buchi.of_formula
                     (H.Requirements.live_formula H.Ta_models.Dynamic
                        (H.Params.make ~tmin:2 ~tmax:2 ()) r))
                 H.Requirements.all) );
      ("ltl.product.states", float !ltl_product_states);
      ("ltl.product.successors.ns", product_ns);
      ("ltl.ndfs.s", (float (get "ltl.ndfs").total_ns) *. 1e-9);
      ("ltl.scc.s", (float (get "ltl.scc").total_ns) *. 1e-9);
      ("lts.scc.s", product_scc_s);
      ("mc.checkpoint.save.s", ck "save_s");
      ("mc.checkpoint.load.s", ck "load_s");
      ("mc.checkpoint.bytes", ck "bytes");
      ("mc.checkpoint.resume.s", ck "resume_s");
      ("sim.events", sim_events);
      ("sim.events_per_s", sim_rate);
      ( "analysis_cache.hit_ratio",
        float (H.Analysis_cache.hits cache) /. float (max 1 (H.Analysis_cache.lookups cache)) );
      ("gc.minor_words", gc.Gc.minor_words);
      ("gc.major_words", gc.Gc.major_words);
      ("gc.major_collections", float gc.Gc.major_collections);
      ("gc.top_heap_mb", float gc.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1048576.);
      ("trace.overhead_ratio", traced_wall /. untraced_wall);
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and reduced = ref false and reference = ref "" in
  let setup_reps = 15 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper|pa|dense|liveness");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set trace, " traced run: per-layer figures");
      ("--reduced", Arg.Set reduced, " smallest instances (self-test profile)");
      ("--reference", Arg.Set_string reference, "FILE reference answers (key TAB answer)");
      ("--tmp-dir", Arg.Set_string tmp_dir, "DIR directory for checkpoint files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hbbench --workload NAME [options]";
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !workload); exit 2
  in
  let w = make ~reduced:!reduced ~seed:!seed in
  let reference = load_reference !reference in
  let tally = { checks = 0; wrong = 0; wrong_keys = []; answers = Hashtbl.create 256 } in
  (* each set-up is bracketed by calibration chunks, like the passes *)
  let setups =
    List.init setup_reps (fun _ ->
        let c0 = calibration_chunk () in
        let t = time_s w.setup in
        (t, (c0 +. calibration_chunk ()) /. 2.))
  in
  let deadline = clock_ns () + int_of_float (!seconds *. 1e9) in
  let passes = ref [] in
  (* the peak over the first pass: later passes start from a heap that
     the seeded simulation queries have shaped, which moves the peak by
     one heap increment from seed to seed *)
  let first_pass_rss = ref 0. in
  let body =
    if not !trace then begin
      let rec loop () =
        passes := run_pass ~traced:false tally reference w.queries :: !passes;
        if !first_pass_rss = 0. then first_pass_rss := peak_rss_mb ();
        if clock_ns () < deadline then loop ()
      in
      loop ();
      ""
    end
    else begin
      (* untraced, traced, untraced: the overhead ratio compares the
         traced pass with the second, equally warm, untraced one *)
      ignore (run_pass ~traced:false tally reference w.queries);
      first_pass_rss := peak_rss_mb ();
      tracing := true;
      let ((_, traced_wall, _, traced_calib) as traced) =
        run_pass ~traced:true tally reference w.queries
      in
      tracing := false;
      let _, untraced_wall, _, untraced_calib =
        run_pass ~traced:false tally reference w.queries
      in
      tracing := true;
      passes := [ traced ];
      let explored =
        (layer "ta.successors").calls + (layer "proc.successors").calls
        + (layer "por.successors").calls + zone_stats.Zone.Reach.states
      in
      check tally reference ("states/" ^ !workload ^ if !reduced then "/reduced" else "")
        (string_of_int explored);
      let probe_tally =
        { checks = 0; wrong = 0; wrong_keys = []; answers = Hashtbl.create 8 }
      in
      ignore (run_pass ~traced:true probe_tally (Hashtbl.create 1) (probe_queries ()));
      tracing := false;
      let samples = w.samples () in
      (* both walls in calibration units, so that host drift between
         the two passes does not read as tracing overhead *)
      let metrics =
        layer_metrics ~samples ~seed:!seed
          ~traced_wall:(traced_wall /. traced_calib)
          ~untraced_wall:(untraced_wall /. untraced_calib)
      in
      Printf.sprintf ",\"states_per_pass\":%d,\"layers\":{%s}" explored
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ json_number "%.9g" v) metrics))
    end
  in
  let passes = List.rev !passes in
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"reduced\":%b,\"traced\":%b,\"ocaml\":%s,\"recommended_domains\":%d,\"setup_s\":%s,\"setup_calib_s\":%s,\"pass_wall_s\":%s,\"pass_cpu_s\":%s,\"pass_calib_s\":%s,\"query_ms\":%s,\"query_calib_s\":%s,\"peak_rss_mb\":%s,\"checks\":%d,\"checks_wrong\":%d,\"wrong_keys\":[%s],\"answers\":%s%s}\n"
    (json_string !workload) !seed !reduced !trace (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    (json_floats (List.map fst setups))
    (json_floats (List.map snd setups))
    (json_floats (List.map (fun (_, w, _, _) -> w) passes))
    (json_floats (List.map (fun (_, _, c, _) -> c) passes))
    (json_floats (List.map (fun (_, _, _, k) -> k) passes))
    (json_floats (List.concat_map (fun (l, _, _, _) -> List.map fst l) passes))
    (json_floats (List.concat_map (fun (l, _, _, _) -> List.map snd l) passes))
    (json_number "%.3f" !first_pass_rss)
    tally.checks tally.wrong
    (String.concat "," (List.map json_string (List.rev tally.wrong_keys)))
    (answers_json tally) body
