(* Benchmark and regeneration harness.

   Part 1 regenerates every table and figure of the evaluation (the
   analysis paper's Tables 1 and 2, the fixed-version table, the
   counterexample Figures 10-13, the component Figures 1-2, the §6.2
   bound table, and the ICDCS'98 quantitative series), printing the same
   rows the papers report.

   Part 2 times the kernels behind each experiment with Bechamel — one
   Test.make per table/figure plus the substrate microbenchmarks. *)

open Bechamel
module H = Heartbeat

(* ------------------------------------------------------------------ *)
(* Part 1: regeneration                                                 *)
(* ------------------------------------------------------------------ *)

let print_table ?(fixed = false) variant =
  let header =
    Printf.sprintf "%s%s (n=1)"
      (H.Ta_models.variant_name variant)
      (if fixed then " [fixed]" else "")
  in
  Format.printf "%a@."
    (fun ppf -> H.Verify.pp_table ppf ~header)
    (H.Verify.table ~fixed variant)

let regenerate () =
  Format.printf "=== Table 1: (revised) binary, two-phase, static ===@.@.";
  List.iter print_table
    [ H.Ta_models.Binary; H.Ta_models.Revised; H.Ta_models.Two_phase;
      H.Ta_models.Static ];
  Format.printf "@.=== Table 2: expanding, dynamic ===@.@.";
  List.iter print_table [ H.Ta_models.Expanding; H.Ta_models.Dynamic ];
  Format.printf "@.=== Section 6: fixed versions ===@.@.";
  List.iter (print_table ~fixed:true) H.Ta_models.all_variants;
  Format.printf "@.=== Figures 10-13: counterexamples ===@.@.";
  List.iter
    (fun s -> Format.printf "%a@." H.Scenarios.pp s)
    (H.Scenarios.all ());
  Format.printf "@.=== Figures 1-2: component state spaces ===@.@.";
  let p = H.Params.make ~tmin:1 ~tmax:2 () in
  Format.printf "p[0] with stopwatch (tmax=2, tmin=1): raw %a; reduced %a@."
    Lts.Graph.pp_stats (H.Figures.p0_component p) Lts.Graph.pp_stats
    (H.Figures.p0_reduced p);
  Format.printf "p[1] with watchdog  (tmax=2, tmin=1): raw %a; reduced %a@."
    Lts.Graph.pp_stats (H.Figures.p1_component p) Lts.Graph.pp_stats
    (H.Figures.p1_reduced p);
  Format.printf "@.=== Section 6.2: detection bounds (tmax=10) ===@.@.";
  Format.printf
    "tmin  claimed(2*tmax)  corrected  halving-worst  p[i]-tight  join@.";
  List.iter
    (fun tmin ->
      let p = H.Params.make ~tmin ~tmax:10 () in
      Format.printf "%4d  %15d  %9d  %13d  %10d  %4d@." tmin
        (H.Bounds.original_p0_claim p)
        (H.Bounds.p0_detection p)
        (H.Bounds.p0_detection_exhaustive p)
        (H.Bounds.pi_waiting p) (H.Bounds.pi_join_waiting p))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Format.printf
    "@.=== worst-case detection measured on the model (binary) ===@.@.";
  Format.printf "tmin  analytic  model-measured@.";
  List.iter
    (fun (tmin, tmax) ->
      let p = H.Params.make ~tmin ~tmax () in
      Format.printf "%4d  %8d  %14d@." tmin
        (H.Bounds.p0_detection_exhaustive p)
        (H.Verify.worst_detection H.Ta_models.Binary p))
    H.Params.table_datasets;
  Format.printf "@.=== ICDCS'98 quantitative claims (simulation) ===@.@.";
  let params = H.Params.make ~tmin:2 ~tmax:10 () in
  Format.printf "steady-state rate (%a):@." H.Params.pp params;
  List.iter
    (fun k ->
      Format.printf "  %a@." H.Experiments.pp_rate
        (H.Experiments.steady_rate k params))
    (H.Experiments.default_kinds params);
  Format.printf "@.detection delay (200 runs):@.";
  List.iter
    (fun k ->
      Format.printf "  %a@." H.Experiments.pp_detection
        (H.Experiments.detection ~runs:200 k params))
    (H.Experiments.default_kinds params);
  Format.printf "@.false deactivations under loss (200 runs each):@.";
  List.iter
    (fun loss ->
      List.iter
        (fun k ->
          Format.printf "  %a@." H.Experiments.pp_reliability
            (H.Experiments.reliability ~runs:200 k params ~loss))
        (H.Experiments.default_kinds params))
    [ 0.01; 0.02; 0.05; 0.1; 0.2 ];
  Format.printf
    "@.=== ablation: bursty vs independent loss (same 5%% average) ===@.@.";
  let bursty = Sim.Loss.gilbert ~p_gb:0.01 ~p_bg:0.19 () in
  List.iter
    (fun k ->
      let b =
        H.Experiments.reliability_model ~runs:200 k params ~model:bursty
      in
      let u =
        H.Experiments.reliability ~runs:200 k params
          ~loss:(Sim.Loss.expected_loss bursty)
      in
      Format.printf
        "  %-14s bursty %3d/200 false detections, independent %3d/200@."
        (H.Runtime.kind_name k) b.H.Experiments.false_detections
        u.H.Experiments.false_detections)
    (H.Experiments.default_kinds params);
  Format.printf "@.=== expanding protocol: join latency (tmin=5, tmax=10) ===@.@.";
  Format.printf "  %a@." H.Experiments.pp_join
    (H.Experiments.join_latency (H.Params.make ~tmin:5 ~tmax:10 ()));
  Format.printf
    "@.=== failure-detector QoS (follow-up work; period 10, 5%% loss) ===@.@.";
  List.iter
    (fun probes ->
      List.iter
        (fun r -> Format.printf "  %a@." Fd.Qos.pp_tradeoff r)
        (Fd.Qos.margin_sweep ~runs:40 ~margins:[ 1.0; 4.0 ] ~probes ()))
    [ 0; 3 ];
  Format.printf "@.=== ablation: acceleration depth (halving, tmax=10) ===@.@.";
  List.iter
    (fun ratio ->
      let tmin = max 1 (10 / ratio) in
      let p = H.Params.make ~tmin ~tmax:10 () in
      let rate = H.Experiments.steady_rate H.Runtime.Halving p in
      let det = H.Experiments.detection ~runs:100 H.Runtime.Halving p in
      let rel =
        H.Experiments.reliability ~runs:100 H.Runtime.Halving p ~loss:0.05
      in
      Format.printf
        "  tmax/tmin=%d: rate %6.4f  mean detection %6.2f (bound %6.2f)  \
         false rate %4.2f@."
        ratio rate.H.Experiments.msgs_per_time det.H.Experiments.mean_delay
        det.H.Experiments.analytic_bound rel.H.Experiments.false_rate)
    [ 1; 2; 5; 10 ]

(* ------------------------------------------------------------------ *)
(* Part 1b: sequential vs parallel exploration                          *)
(* ------------------------------------------------------------------ *)

(* The two exploration workloads used for the parallel-engine comparison:
   the binary protocol with its R1 watchdogs (small space, deep levels)
   and the static protocol with two participants — three automata, the
   "ternary" configuration — whose ~240k-state space is the largest
   explored in this harness. *)
let binary_system () =
  let params = H.Params.make ~tmin:1 ~tmax:10 () in
  let model =
    H.Ta_models.build ~with_r1_monitors:true H.Ta_models.Binary params
  in
  Ta.Semantics.system (Ta.Semantics.compile model)

let ternary_system () =
  let params = H.Params.make ~n:2 ~tmin:2 ~tmax:6 () in
  let model = H.Ta_models.build H.Ta_models.Static params in
  Ta.Semantics.system (Ta.Semantics.compile model)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Best-of-[n] wall clock: scheduler and GC noise on a shared host only
   ever inflates a sample, so the minimum is the least-biased estimate
   of engine cost.  The returned value is from the first run. *)
let time_best n f =
  let r0, t0 = time f in
  let best = ref t0 in
  for _ = 2 to n do
    let _, t = time f in
    if t < !best then best := t
  done;
  (r0, !best)

(* ------------------------------------------------------------------ *)
(* Part 1c: partial-order reduction — full vs ample-set state counts    *)
(* ------------------------------------------------------------------ *)

(* One measurement point per shipped PA variant; static also gets the
   two-participant instance, the genuinely concurrent configuration
   where the reduction passes 4x. *)
let por_points =
  [
    (H.Pa_models.Binary, 1, 2, 4);
    (H.Pa_models.Revised, 1, 2, 4);
    (H.Pa_models.Two_phase, 1, 2, 4);
    (H.Pa_models.Static, 1, 2, 4);
    (H.Pa_models.Static, 2, 2, 4);
    (H.Pa_models.Expanding, 1, 2, 4);
    (H.Pa_models.Dynamic, 1, 2, 4);
  ]

let por_report () =
  Format.printf
    "@.=== partial-order reduction: full vs ample-set exploration ===@.@.";
  let rows =
    List.map
      (fun (v, n, tmin, tmax) ->
        let params = H.Params.make ~n ~tmin ~tmax () in
        let full, t_full = time (fun () -> H.Pa_verify.explore v params) in
        let red, t_red =
          time (fun () -> H.Pa_verify.explore ~reduce:true v params)
        in
        let ratio =
          float_of_int full.H.Pa_verify.states
          /. float_of_int red.H.Pa_verify.states
        in
        Format.printf
          "PA %-10s n=%d (%d,%d): full %8d states %8d trans %7.2fs | \
           reduced %8d states %8d trans %7.2fs | %.2fx@."
          (H.Pa_models.variant_name v)
          n tmin tmax full.H.Pa_verify.states full.H.Pa_verify.transitions
          t_full red.H.Pa_verify.states red.H.Pa_verify.transitions t_red
          ratio;
        (v, n, tmin, tmax, full, red, ratio))
      por_points
  in
  (* machine-readable summary (deterministic: timings excluded) *)
  print_string "{\"tool\":\"bench\",\"section\":\"por\",\"rows\":[";
  List.iteri
    (fun k (v, n, tmin, tmax, full, red, ratio) ->
      if k > 0 then print_string ",";
      Printf.printf
        "{\"variant\":\"%s\",\"n\":%d,\"tmin\":%d,\"tmax\":%d,\"full_states\":%d,\"reduced_states\":%d,\"reduction_ratio\":%.2f}"
        (H.Pa_models.variant_name v)
        n tmin tmax full.H.Pa_verify.states red.H.Pa_verify.states ratio)
    rows;
  print_string "]}\n"

let parallel_report () =
  Format.printf
    "@.=== parallel exploration: sequential vs 2/4 domains ===@.@.";
  Format.printf "(host reports %d recommended domains)@.@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun (name, sys) ->
      let (seq : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space), t_seq =
        time (fun () -> Mc.Explore.space sys)
      in
      Format.printf "%-28s %8d states  seq %7.3fs@." name
        (Lts.Graph.num_states seq.Mc.Explore.lts)
        t_seq;
      List.iter
        (fun d ->
          let (par, stats), t_par =
            time (fun () -> Mc.Pexplore.space_stats ~domains:d sys)
          in
          let identical =
            Marshal.to_string
              (seq.Mc.Explore.lts, seq.Mc.Explore.states, seq.Mc.Explore.complete)
              []
            = Marshal.to_string
                (par.Mc.Explore.lts, par.Mc.Explore.states, par.Mc.Explore.complete)
                []
          in
          Format.printf
            "%-28s %8s         %d dom %7.3fs  speedup %5.2fx  %s  (peak \
             frontier %d)@."
            "" "" d t_par (t_seq /. t_par)
            (if identical then "byte-identical" else "MISMATCH")
            stats.Mc.Pexplore.peak_frontier)
        [ 2; 4 ])
    [ ("binary+monitors(1,10)", binary_system ());
      ("ternary static n=2 (2,6)", ternary_system ()) ]

(* ------------------------------------------------------------------ *)
(* Part 1d: engine sweep — BENCH_pr6.json                               *)
(* ------------------------------------------------------------------ *)

(* VmHWM from /proc/self/status in kB (0 when unavailable): the peak
   resident set over the whole process life, sampled after the sweep. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            go
              (int_of_string
                 (String.concat ""
                    (List.filter_map
                       (fun c ->
                         if c >= '0' && c <= '9' then
                           Some (String.make 1 c)
                         else None)
                       (List.of_seq (String.to_seq line)))))
          else go acc
    in
    let r = go 0 in
    close_in ic;
    r
  with Sys_error _ -> 0

(* Simulator event throughput: one long deterministic run, counting the
   full protocol/channel trace. *)
let events_per_sec () =
  let params = H.Params.make ~tmin:2 ~tmax:10 () in
  let cfg =
    H.Runtime.config ~kind:H.Runtime.Halving ~duration:50_000.0 params
  in
  let events = ref 0 in
  let _, t = time (fun () -> H.Runtime.run ~on_event:(fun _ -> incr events) cfg) in
  (!events, float_of_int !events /. t)

(* The six-variant sweep: for every shipped TA protocol, the sequential
   engine vs the parallel engine at 1/2/4 domains, with byte-identity
   checked against the sequential space on every run. *)
let pr6_report () =
  let sweep_domains = [ 1; 2; 4 ] in
  let sweep =
    List.map
      (fun v -> (v, H.Params.make ~tmin:2 ~tmax:8 ()))
      H.Ta_models.all_variants
  in
  Format.printf "@.=== sequential vs parallel engine sweep ===@.@.";
  Format.printf "(host reports %d recommended domains)@.@."
    (Domain.recommended_domain_count ());
  let rows =
    List.map
      (fun (v, params) ->
        let sys =
          Ta.Semantics.system
            (Ta.Semantics.compile (H.Ta_models.build v params))
        in
        let (seq : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space),
            t_seq =
          time_best 3 (fun () -> Mc.Explore.space sys)
        in
        let states = Lts.Graph.num_states seq.Mc.Explore.lts in
        let transitions = Lts.Graph.num_transitions seq.Mc.Explore.lts in
        let seq_bytes =
          Marshal.to_string
            (seq.Mc.Explore.lts, seq.Mc.Explore.states, seq.Mc.Explore.complete)
            [ Marshal.No_sharing ]
        in
        Format.printf "%-14s %a: %8d states  seq %7.3fs (%.0f st/s)@."
          (H.Ta_models.variant_name v)
          H.Params.pp params states t_seq
          (float_of_int states /. t_seq);
        let runs =
          List.map
            (fun d ->
              let (par, stats), t =
                time_best 3 (fun () -> Mc.Pexplore.space_stats ~domains:d sys)
              in
              let identical =
                String.equal seq_bytes
                  (Marshal.to_string
                     (par.Mc.Explore.lts, par.Mc.Explore.states,
                      par.Mc.Explore.complete)
                     [ Marshal.No_sharing ])
              in
              Format.printf "  %d dom %7.3fs  speedup %5.2fx  %s  (%d steals)@."
                d t (t_seq /. t)
                (if identical then "byte-identical" else "MISMATCH")
                stats.Mc.Pexplore.steals;
              (d, t, stats, identical))
            sweep_domains
        in
        (v, params, states, transitions, t_seq, runs))
      sweep
  in
  let ws4 =
    List.fold_left
      (fun acc (_, _, _, _, _, runs) ->
        List.fold_left
          (fun acc (d, t, _, _) -> if d = 4 then acc +. t else acc)
          acc runs)
      0. rows
  in
  Format.printf "@.sweep wall at 4 domains: %.3fs@." ws4;
  let n_events, ev_rate = events_per_sec () in
  Format.printf "simulator: %d events, %.0f events/s@." n_events ev_rate;
  let por =
    List.map
      (fun (v, n, tmin, tmax) ->
        let params = H.Params.make ~n ~tmin ~tmax () in
        let full = H.Pa_verify.explore v params in
        let red = H.Pa_verify.explore ~reduce:true v params in
        ( v, n, tmin, tmax, full.H.Pa_verify.states, red.H.Pa_verify.states ))
      por_points
  in
  let rss = peak_rss_kb () in
  Format.printf "peak RSS: %d kB@." rss;
  (* machine-readable artifact *)
  let oc = open_out "BENCH_pr6.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\"tool\":\"bench\",\"section\":\"pr6\",\n";
  p " \"host_recommended_domains\":%d,\"samples_per_cell\":3,\n"
    (Domain.recommended_domain_count ());
  p " \"sweep\":[\n";
  List.iteri
    (fun k (v, params, states, transitions, t_seq, runs) ->
      if k > 0 then p ",\n";
      p
        "  {\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"states\":%d,\"transitions\":%d,\"seq_wall_s\":%.4f,\"seq_states_per_sec\":%.0f,\"runs\":["
        (H.Ta_models.variant_name v)
        params.H.Params.tmin params.H.Params.tmax params.H.Params.n states
        transitions t_seq
        (float_of_int states /. t_seq);
      List.iteri
        (fun j (d, t, (stats : Mc.Pexplore.stats), identical) ->
          if j > 0 then p ",";
          p
            "{\"domains\":%d,\"wall_s\":%.4f,\"states_per_sec\":%.0f,\"speedup_vs_seq\":%.3f,\"byte_identical\":%b,\"steals\":%d}"
            d t
            (float_of_int states /. t)
            (t_seq /. t) identical stats.Mc.Pexplore.steals)
        runs;
      p "]}")
    rows;
  p "\n ],\n";
  p " \"ws4_wall_s\":%.4f,\n" ws4;
  p " \"sim_events\":%d,\"sim_events_per_sec\":%.0f,\n" n_events ev_rate;
  p " \"peak_rss_kb\":%d,\n" rss;
  p " \"por\":[";
  List.iteri
    (fun k (v, n, tmin, tmax, full, red) ->
      if k > 0 then p ",";
      p
        "{\"variant\":\"%s\",\"n\":%d,\"tmin\":%d,\"tmax\":%d,\"full_states\":%d,\"reduced_states\":%d,\"reduction_ratio\":%.2f}"
        (H.Pa_models.variant_name v)
        n tmin tmax full red
        (float_of_int full /. float_of_int red))
    por;
  p "]}\n";
  close_out oc;
  Format.printf "wrote BENCH_pr6.json@."

(* ------------------------------------------------------------------ *)
(* Part 1e: resilience costs — BENCH_pr7.json                           *)
(* ------------------------------------------------------------------ *)

(* What the resilience layer costs when nothing goes wrong, and what it
   buys when something does: budget-poll overhead on a clean run, wall
   time of forced degradation-ladder walks, and checkpoint
   write/restore cost at the half-explored point — all on the dynamic
   n=1 model, the largest shipped TA space. *)
let pr7_report () =
  let params = H.Params.make ~tmin:1 ~tmax:40 () in
  let sys =
    Ta.Semantics.system
      (Ta.Semantics.compile (H.Ta_models.build H.Ta_models.Dynamic params))
  in
  Format.printf
    "@.=== PR7: resilience costs (dynamic n=1, tmin=1 tmax=40) ===@.@.";
  let (seq : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space),
      t_plain =
    time_best 3 (fun () -> Mc.Explore.space sys)
  in
  let states = Lts.Graph.num_states seq.Mc.Explore.lts in
  let seq_bytes =
    Marshal.to_string
      (seq.Mc.Explore.lts, seq.Mc.Explore.states, seq.Mc.Explore.complete)
      [ Marshal.No_sharing ]
  in
  let _, t_budget =
    time_best 3 (fun () ->
        Mc.Explore.space_run ~budget:(Mc.Budget.unlimited ()) sys)
  in
  let seq_overhead = (t_budget -. t_plain) /. t_plain in
  Format.printf
    "sequential %d states: plain %.3fs, budgeted %.3fs (%+.1f%% poll \
     overhead)@."
    states t_plain t_budget (100. *. seq_overhead);
  let _, t_par_plain =
    time_best 3 (fun () -> Mc.Pexplore.count ~domains:4 sys)
  in
  let _, t_par_budget =
    time_best 3 (fun () ->
        Mc.Pexplore.count ~domains:4 ~budget:(Mc.Budget.unlimited ()) sys)
  in
  let par_overhead = (t_par_budget -. t_par_plain) /. t_par_plain in
  Format.printf
    "parallel count (4 dom): plain %.3fs, budgeted %.3fs (%+.1f%% poll \
     overhead)@."
    t_par_plain t_par_budget (100. *. par_overhead);
  (* forced degradation: a probe that reports a memory trip exactly
     [shots] times walks the store that many rungs down the ladder *)
  let memory_shots shots =
    let left = Atomic.make shots in
    Mc.Budget.make
      ~probe:(fun () ->
        if Atomic.fetch_and_add left (-1) > 0 then Some (Mc.Budget.Memory 1)
        else None)
      ~check_every:1 ()
  in
  let ladder shots =
    let ((count, complete), stats), t =
      time (fun () ->
          Mc.Pexplore.count_stats ~domains:4 ~budget:(memory_shots shots) sys)
    in
    Format.printf "ladder x%d (%s): %d states %s in %.3fs@." shots
      (String.concat " -> " ("exact" :: stats.Mc.Pexplore.degraded))
      count
      (if complete then "complete" else "PARTIAL")
      t;
    (shots, stats.Mc.Pexplore.degraded, count, complete, t)
  in
  let lad1 = ladder 1 in
  let lad2 = ladder 2 in
  let ladders = [ lad1; lad2 ] in
  (* checkpoint cost at the half-explored point *)
  let stop_at_half =
    let left = Atomic.make (states / 2) in
    Mc.Budget.make
      ~probe:(fun () ->
        if Atomic.fetch_and_add left (-1) > 0 then None
        else Some Mc.Budget.Cancelled)
      ~check_every:1 ()
  in
  match Mc.Explore.space_run ~budget:stop_at_half sys with
  | Mc.Explore.Done _ -> failwith "pr7 bench: expected a suspension"
  | Mc.Explore.Suspended (_, cur) ->
      let file = Filename.temp_file "hbckpt" ".ck" in
      let kind = "bench/pr7/dynamic" in
      let (), t_save = time (fun () -> Mc.Checkpoint.save ~file ~kind cur) in
      let size = (Unix.stat file).Unix.st_size in
      let (cur' : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.cursor),
          t_load =
        time (fun () ->
            match Mc.Checkpoint.load ~file ~kind with
            | Ok c -> c
            | Error e -> failwith e)
      in
      Sys.remove file;
      let r, t_resume = time (fun () -> Mc.Explore.space_run ~resume:cur' sys) in
      let resumed_identical =
        match r with
        | Mc.Explore.Done sp ->
            String.equal seq_bytes
              (Marshal.to_string
                 (sp.Mc.Explore.lts, sp.Mc.Explore.states, sp.Mc.Explore.complete)
                 [ Marshal.No_sharing ])
        | Mc.Explore.Suspended _ -> false
      in
      Format.printf
        "checkpoint at %d/%d states: save %.3fs (%d bytes), load %.3fs, \
         resume %.3fs, %s@."
        (Mc.Explore.cursor_states cur)
        states t_save size t_load t_resume
        (if resumed_identical then "byte-identical" else "MISMATCH");
      let oc = open_out "BENCH_pr7.json" in
      let p fmt = Printf.fprintf oc fmt in
      p "{\"tool\":\"bench\",\"section\":\"pr7\",\n";
      p " \"model\":\"dynamic\",\"n\":1,\"tmin\":1,\"tmax\":40,\"states\":%d,\n"
        states;
      p
        " \"seq_plain_wall_s\":%.4f,\"seq_budget_wall_s\":%.4f,\"seq_poll_overhead\":%.4f,\n"
        t_plain t_budget seq_overhead;
      p
        " \"par4_plain_wall_s\":%.4f,\"par4_budget_wall_s\":%.4f,\"par4_poll_overhead\":%.4f,\n"
        t_par_plain t_par_budget par_overhead;
      p " \"degradation\":[";
      List.iteri
        (fun k (shots, rungs, count, complete, t) ->
          if k > 0 then p ",";
          p
            "{\"memory_trips\":%d,\"rungs\":[%s],\"states\":%d,\"complete\":%b,\"wall_s\":%.4f}"
            shots
            (String.concat ","
               (List.map (fun r -> Printf.sprintf "\"%s\"" r) rungs))
            count complete t)
        ladders;
      p "],\n";
      p
        " \"checkpoint\":{\"at_states\":%d,\"bytes\":%d,\"save_wall_s\":%.4f,\"load_wall_s\":%.4f,\"resume_wall_s\":%.4f,\"resumed_byte_identical\":%b}}\n"
        (Mc.Explore.cursor_states cur)
        size t_save t_load t_resume resumed_identical;
      close_out oc;
      Format.printf "wrote BENCH_pr7.json@."

(* ------------------------------------------------------------------ *)
(* Part 1f: static slicing — BENCH_pr8.json                             *)
(* ------------------------------------------------------------------ *)

(* Cost/benefit of the static slice, alone and composed with the
   ample-set reduction: the TA family at the pr6 sweep point (where the
   property-free slice wins through clock activity and dead writes),
   the PA family at the POR measurement points (slice alone, POR alone,
   slice-then-POR), plus the analysis-cache counters so the memoisation
   payoff is on record next to the numbers it pays for. *)
let pr8_report () =
  Format.printf "@.=== PR8: property-driven slicing sweep ===@.@.";
  let ta_rows =
    List.map
      (fun v ->
        let params = H.Params.make ~tmin:2 ~tmax:8 () in
        let model = H.Ta_models.build v params in
        let full_sys = Ta.Semantics.system (Ta.Semantics.compile model) in
        let (full : (Ta.Semantics.config, Ta.Semantics.label) Mc.Explore.space),
            t_full =
          time_best 3 (fun () -> Mc.Explore.space full_sys)
        in
        let sl = Slice.Ta.slice model in
        let ssys =
          Slice.Ta.system sl (Ta.Semantics.compile sl.Slice.Ta.model)
        in
        let sliced, t_slice = time_best 3 (fun () -> Mc.Explore.space ssys) in
        let fs = Lts.Graph.num_states full.Mc.Explore.lts
        and ft = Lts.Graph.num_transitions full.Mc.Explore.lts
        and ss = Lts.Graph.num_states sliced.Mc.Explore.lts
        and st = Lts.Graph.num_transitions sliced.Mc.Explore.lts in
        Format.printf
          "ta %-12s %a: %7d -> %6d states (%.2fx)  %8d -> %7d trans  %7.3fs \
           -> %6.3fs (%.0f st/s sliced)@."
          (H.Ta_models.variant_name v)
          H.Params.pp params fs ss
          (float_of_int fs /. float_of_int ss)
          ft st t_full t_slice
          (float_of_int ss /. t_slice);
        (v, params, fs, ft, t_full, ss, st, t_slice))
      H.Ta_models.all_variants
  in
  Format.printf "@.";
  let pa_rows =
    List.map
      (fun (v, n, tmin, tmax) ->
        let params = H.Params.make ~n ~tmin ~tmax () in
        let full, t_full = time_best 3 (fun () -> H.Pa_verify.explore v params) in
        let slice, t_slice =
          time_best 3 (fun () -> H.Pa_verify.explore ~slice:true v params)
        in
        let por, t_por =
          time_best 3 (fun () -> H.Pa_verify.explore ~reduce:true v params)
        in
        let both, t_both =
          time_best 3 (fun () ->
              H.Pa_verify.explore ~slice:true ~reduce:true v params)
        in
        let r a b =
          float_of_int a.H.Pa_verify.states
          /. float_of_int b.H.Pa_verify.states
        in
        Format.printf
          "pa %-12s n=%d (%d,%d): %6d states  slice %.2fx  por %.2fx  \
           slice+por %.2fx (%d states, %.0f st/s)@."
          (H.Pa_models.variant_name v)
          n tmin tmax full.H.Pa_verify.states (r full slice) (r full por)
          (r full both) both.H.Pa_verify.states
          (float_of_int both.H.Pa_verify.states /. t_both);
        (v, n, tmin, tmax, (full, t_full), (slice, t_slice), (por, t_por),
         (both, t_both)))
      por_points
  in
  let cache = H.Analysis_cache.stats () in
  Format.printf "@.%a@." H.Analysis_cache.pp cache;
  let rss = peak_rss_kb () in
  Format.printf "peak RSS: %d kB@." rss;
  let oc = open_out "BENCH_pr8.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\"tool\":\"bench\",\"section\":\"pr8\",\"samples_per_cell\":3,\n";
  p " \"ta\":[\n";
  List.iteri
    (fun k (v, (params : H.Params.t), fs, ft, t_full, ss, st, t_slice) ->
      if k > 0 then p ",\n";
      p
        "  {\"variant\":\"%s\",\"tmin\":%d,\"tmax\":%d,\"n\":%d,\"full_states\":%d,\"full_transitions\":%d,\"full_wall_s\":%.4f,\"sliced_states\":%d,\"sliced_transitions\":%d,\"sliced_wall_s\":%.4f,\"state_ratio\":%.2f,\"transition_ratio\":%.2f,\"sliced_states_per_sec\":%.0f}"
        (H.Ta_models.variant_name v)
        params.H.Params.tmin params.H.Params.tmax params.H.Params.n fs ft
        t_full ss st t_slice
        (float_of_int fs /. float_of_int ss)
        (float_of_int ft /. float_of_int st)
        (float_of_int ss /. t_slice))
    ta_rows;
  p "\n ],\n";
  p " \"pa\":[\n";
  List.iteri
    (fun k
         ( v, n, tmin, tmax, (full, t_full), (slice, t_slice), (por, t_por),
           (both, t_both) ) ->
      if k > 0 then p ",\n";
      let cell tag (s : H.Pa_verify.explore_stats) t =
        p
          "\"%s\":{\"states\":%d,\"transitions\":%d,\"wall_s\":%.4f,\"states_per_sec\":%.0f,\"state_ratio\":%.2f,\"transition_ratio\":%.2f}"
          tag s.H.Pa_verify.states s.H.Pa_verify.transitions t
          (float_of_int s.H.Pa_verify.states /. t)
          (float_of_int full.H.Pa_verify.states
          /. float_of_int s.H.Pa_verify.states)
          (float_of_int full.H.Pa_verify.transitions
          /. float_of_int s.H.Pa_verify.transitions)
      in
      p "  {\"variant\":\"%s\",\"n\":%d,\"tmin\":%d,\"tmax\":%d,"
        (H.Pa_models.variant_name v)
        n tmin tmax;
      cell "full" full t_full;
      p ",";
      cell "slice" slice t_slice;
      p ",";
      cell "por" por t_por;
      p ",";
      cell "slice_por" both t_both;
      p "}")
    pa_rows;
  p "\n ],\n";
  p " \"cache\":%s,\n" (H.Analysis_cache.to_json cache);
  p " \"peak_rss_kb\":%d}\n" rss;
  close_out oc;
  Format.printf "wrote BENCH_pr8.json@."

(* ------------------------------------------------------------------ *)
(* Part 1g: the dense-time zone engine — BENCH_pr9.json                 *)
(* ------------------------------------------------------------------ *)

(* Discrete vs zone-graph exploration on the six heartbeat variants,
   plus FISCHER-n scaling with and without inclusion subsumption.

   The variant sweep runs expanding/dynamic at n=2, where the discrete
   digitised state space exceeds the 1M-state cap (the per-tick delay
   interleavings of two peers blow it up) while the zone graph
   completes: the zone rows are exact where the discrete rows are
   cut short, which is the point of the engine.  The four small
   variants stay at n=1, where discrete wins on raw wall clock —
   both directions are on record.

   FISCHER-n is the classic dense-time workload (the protocol is
   *wrong* under any digitisation coarser than the strict x>k
   boundary, so only the zone engine checks it here); the ±subsumption
   columns isolate what the inclusion waiting-list discipline buys. *)

let pr9_variant_points =
  [
    (H.Ta_models.Binary, 1);
    (H.Ta_models.Revised, 1);
    (H.Ta_models.Two_phase, 1);
    (H.Ta_models.Static, 1);
    (H.Ta_models.Expanding, 2);
    (H.Ta_models.Dynamic, 2);
  ]

let pr9_discrete_cap = 1_000_000

let pr9_report () =
  Format.printf "@.=== PR9: discrete vs dense-time zone exploration ===@.@.";
  let flag b = if b then "" else "*" in
  let variant_rows =
    List.map
      (fun (v, n) ->
        let params = H.Params.make ~n ~tmin:1 ~tmax:2 () in
        let model = H.Ta_models.build v params in
        let sys = Ta.Semantics.system (Ta.Semantics.compile model) in
        let (dc, dcomp), dt =
          time_best 3 (fun () ->
              Mc.Explore.count ~max_states:pr9_discrete_cap sys)
        in
        let z = Zone.Sym.compile model in
        let stats = Zone.Reach.new_stats () in
        let (zc, zcomp), zt =
          time_best 3 (fun () ->
              let s = Zone.Reach.new_stats () in
              let r = Zone.Reach.count ~max_states:pr9_discrete_cap ~stats:s z in
              stats.Zone.Reach.states <- s.Zone.Reach.states;
              stats.Zone.Reach.transitions <- s.Zone.Reach.transitions;
              stats.Zone.Reach.subsumed <- s.Zone.Reach.subsumed;
              r)
        in
        Format.printf
          "%-10s n=%d (1,2): discrete %8d%s states %7.2fs   zone %7d%s \
           zones %7.2fs  (%d subsumed)@."
          (H.Ta_models.variant_name v)
          n dc (flag dcomp) dt zc (flag zcomp) zt stats.Zone.Reach.subsumed;
        (v, n, (dc, dcomp, dt), (zc, zcomp, zt), stats))
      pr9_variant_points
  in
  Format.printf "@.";
  let fischer_rows =
    List.map
      (fun n ->
        let z = Zone.Sym.compile (Fc.fischer ~n ()) in
        let sub_stats = Zone.Reach.new_stats () in
        let (cs, _), ts =
          time_best 3 (fun () ->
              let s = Zone.Reach.new_stats () in
              let r = Zone.Reach.count ~subsume:true ~stats:s z in
              sub_stats.Zone.Reach.subsumed <- s.Zone.Reach.subsumed;
              r)
        in
        let (cn, _), tn =
          time_best 3 (fun () -> Zone.Reach.count ~subsume:false z)
        in
        Format.printf
          "fischer n=%d: subsumption %7d zones %6.2fs (%d subsumed)   \
           equality %7d zones %6.2fs  (%.2fx)@."
          n cs ts sub_stats.Zone.Reach.subsumed cn tn
          (float_of_int cn /. float_of_int cs);
        (n, (cs, ts, sub_stats.Zone.Reach.subsumed), (cn, tn)))
      [ 2; 3; 4; 5; 6 ]
  in
  let rss = peak_rss_kb () in
  Format.printf "@.peak RSS: %d kB@." rss;
  let oc = open_out "BENCH_pr9.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\"tool\":\"bench\",\"section\":\"pr9\",\"samples_per_cell\":3,\n";
  p " \"discrete_cap\":%d,\n" pr9_discrete_cap;
  p " \"variants\":[\n";
  List.iteri
    (fun k (v, n, (dc, dcomp, dt), (zc, zcomp, zt), (stats : Zone.Reach.stats)) ->
      if k > 0 then p ",\n";
      p
        "  {\"variant\":\"%s\",\"tmin\":1,\"tmax\":2,\"n\":%d,\"discrete_states\":%d,\"discrete_complete\":%b,\"discrete_wall_s\":%.4f,\"zone_states\":%d,\"zone_complete\":%b,\"zone_wall_s\":%.4f,\"zone_transitions\":%d,\"subsumed\":%d,\"zone_states_per_sec\":%.0f}"
        (H.Ta_models.variant_name v)
        n dc dcomp dt zc zcomp zt stats.Zone.Reach.transitions
        stats.Zone.Reach.subsumed
        (float_of_int zc /. zt))
    variant_rows;
  p "\n ],\n";
  p " \"fischer\":[\n";
  List.iteri
    (fun k (n, (cs, ts, subsumed), (cn, tn)) ->
      if k > 0 then p ",\n";
      p
        "  {\"n\":%d,\"subsume_zones\":%d,\"subsume_wall_s\":%.4f,\"subsumed\":%d,\"equality_zones\":%d,\"equality_wall_s\":%.4f,\"zone_ratio\":%.2f}"
        n cs ts subsumed cn tn
        (float_of_int cn /. float_of_int cs))
    fischer_rows;
  p "\n ],\n";
  p " \"peak_rss_kb\":%d}\n" rss;
  close_out oc;
  Format.printf "wrote BENCH_pr9.json@."

(* ------------------------------------------------------------------ *)
(* Part 1h: location-sensitive LU extrapolation — BENCH_pr10.json      *)
(* ------------------------------------------------------------------ *)

(* Global vs location-based Extra+LU on the workloads where the zone
   graph is the bottleneck: FISCHER-n scaling (the clock is reset
   before every comparison on the way back to Idle, so per-location
   bounds collapse to -1 over most of the ring and zones merge), and
   the two big heartbeat variants at n=2.  Same subsumption discipline
   in both columns, so the delta is the extrapolation alone.  The
   headline is the largest FISCHER n that completes under the zone cap
   in each mode. *)

let pr10_zone_cap = 2_000_000

let pr10_report () =
  Format.printf
    "@.=== PR10: global vs location-sensitive LU extrapolation ===@.@.";
  let flag b = if b then "" else "*" in
  let measure ~samples model lu =
    let z = Zone.Sym.compile ~lu model in
    let (n, complete), t =
      time_best samples (fun () ->
          Zone.Reach.count ~subsume:true ~max_states:pr10_zone_cap z)
    in
    (n, complete, t)
  in
  let fischer_rows =
    List.map
      (fun n ->
        let model = Fc.fischer ~n () in
        let samples = if n <= 5 then 3 else 1 in
        let gz, gc, gt = measure ~samples model Zone.Sym.Global in
        let lz, lc, lt = measure ~samples model Zone.Sym.Location in
        Format.printf
          "fischer n=%d: global %8d%s zones %7.2fs   location %8d%s zones \
           %7.2fs  (%.2fx)@."
          n gz (flag gc) gt lz (flag lc) lt
          (float_of_int gz /. float_of_int lz);
        (n, samples, (gz, gc, gt), (lz, lc, lt)))
      [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  Format.printf "@.";
  let variant_rows =
    List.map
      (fun v ->
        let params = H.Params.make ~n:2 ~tmin:1 ~tmax:2 () in
        let model = H.Ta_models.build v params in
        let gz, gc, gt = measure ~samples:3 model Zone.Sym.Global in
        let lz, lc, lt = measure ~samples:3 model Zone.Sym.Location in
        Format.printf
          "%-10s n=2 (1,2): global %8d%s zones %7.2fs   location %8d%s \
           zones %7.2fs  (%.2fx)@."
          (H.Ta_models.variant_name v)
          gz (flag gc) gt lz (flag lc) lt
          (float_of_int gz /. float_of_int lz);
        (v, (gz, gc, gt), (lz, lc, lt)))
      [ H.Ta_models.Expanding; H.Ta_models.Dynamic ]
  in
  let max_feasible pick =
    List.fold_left
      (fun acc (n, _, g, l) ->
        let _, complete, _ = pick (g, l) in
        if complete then max acc n else acc)
      0 fischer_rows
  in
  let max_global = max_feasible fst and max_location = max_feasible snd in
  let rss = peak_rss_kb () in
  Format.printf
    "@.max feasible fischer n under %d zones: global %d, location %d@."
    pr10_zone_cap max_global max_location;
  Format.printf "peak RSS: %d kB@." rss;
  let oc = open_out "BENCH_pr10.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\"tool\":\"bench\",\"section\":\"pr10\",\n";
  p " \"zone_cap\":%d,\n" pr10_zone_cap;
  p " \"fischer\":[\n";
  List.iteri
    (fun k (n, samples, (gz, gc, gt), (lz, lc, lt)) ->
      if k > 0 then p ",\n";
      p
        "  {\"n\":%d,\"samples\":%d,\"global_zones\":%d,\"global_complete\":%b,\"global_wall_s\":%.4f,\"location_zones\":%d,\"location_complete\":%b,\"location_wall_s\":%.4f,\"zone_ratio\":%.3f}"
        n samples gz gc gt lz lc lt
        (float_of_int gz /. float_of_int lz))
    fischer_rows;
  p "\n ],\n";
  p " \"variants\":[\n";
  List.iteri
    (fun k (v, (gz, gc, gt), (lz, lc, lt)) ->
      if k > 0 then p ",\n";
      p
        "  {\"variant\":\"%s\",\"tmin\":1,\"tmax\":2,\"n\":2,\"samples\":3,\"global_zones\":%d,\"global_complete\":%b,\"global_wall_s\":%.4f,\"location_zones\":%d,\"location_complete\":%b,\"location_wall_s\":%.4f,\"zone_ratio\":%.3f}"
        (H.Ta_models.variant_name v)
        gz gc gt lz lc lt
        (float_of_int gz /. float_of_int lz))
    variant_rows;
  p "\n ],\n";
  p " \"max_feasible_n\":{\"global\":%d,\"location\":%d},\n" max_global
    max_location;
  p " \"peak_rss_kb\":%d}\n" rss;
  close_out oc;
  Format.printf "wrote BENCH_pr10.json@."

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timings                                             *)
(* ------------------------------------------------------------------ *)

let check variant tmin tmax req () =
  let params = H.Params.make ~tmin ~tmax () in
  ignore (H.Verify.check variant params req)

let bench_tests =
  Test.make_grouped ~name:"hbproto"
    [
      (* Table 1 kernels: one representative requirement per protocol. *)
      Test.make ~name:"table1/binary-R1(4,10)"
        (Staged.stage (check H.Ta_models.Binary 4 10 H.Requirements.R1));
      Test.make ~name:"table1/binary-R3(10,10)"
        (Staged.stage (check H.Ta_models.Binary 10 10 H.Requirements.R3));
      Test.make ~name:"table1/static-R2(10,10)"
        (Staged.stage (check H.Ta_models.Static 10 10 H.Requirements.R2));
      (* Table 2 kernels. *)
      Test.make ~name:"table2/expanding-R2(5,10)"
        (Staged.stage (check H.Ta_models.Expanding 5 10 H.Requirements.R2));
      Test.make ~name:"table2/dynamic-R2(5,10)"
        (Staged.stage (check H.Ta_models.Dynamic 5 10 H.Requirements.R2));
      (* Fixed-version kernel. *)
      Test.make ~name:"fixed/binary-all(10,10)"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:10 ~tmax:10 () in
             List.iter
               (fun req ->
                 ignore
                   (H.Verify.check ~fixed:true H.Ta_models.Binary params req))
               H.Requirements.all));
      (* Figures. *)
      Test.make ~name:"fig10/cex-extraction"
        (Staged.stage (fun () -> ignore (H.Scenarios.fig10a ())));
      Test.make ~name:"fig11/cex-extraction"
        (Staged.stage (fun () -> ignore (H.Scenarios.fig11 ())));
      Test.make ~name:"fig1/p0-weak-trace-reduction"
        (Staged.stage (fun () ->
             ignore (H.Figures.p0_reduced (H.Params.make ~tmin:1 ~tmax:2 ()))));
      (* Process-algebra encoding. *)
      Test.make ~name:"pa/binary-statespace(10,10)"
        (Staged.stage (fun () ->
             ignore
               (H.Pa_verify.state_count H.Pa_models.Binary
                  (H.Params.make ~tmin:10 ~tmax:10 ()))));
      Test.make ~name:"pa/binary-R2(10,10)"
        (Staged.stage (fun () ->
             ignore
               (H.Pa_verify.check H.Pa_models.Binary
                  (H.Params.make ~tmin:10 ~tmax:10 ())
                  H.Requirements.R2)));
      (* Ample-set reduction: per-state overhead vs states saved. *)
      Test.make ~name:"por/binary-full-explore(2,4)"
        (Staged.stage (fun () ->
             ignore
               (H.Pa_verify.explore H.Pa_models.Binary
                  (H.Params.make ~tmin:2 ~tmax:4 ()))));
      Test.make ~name:"por/binary-reduced-explore(2,4)"
        (Staged.stage (fun () ->
             ignore
               (H.Pa_verify.explore ~reduce:true H.Pa_models.Binary
                  (H.Params.make ~tmin:2 ~tmax:4 ()))));
      (* Substrate microbenchmarks. *)
      Test.make ~name:"ta/statespace-binary(1,10)"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:1 ~tmax:10 () in
             let net =
               Ta.Semantics.compile
                 (H.Ta_models.build H.Ta_models.Binary params)
             in
             ignore (Mc.Explore.count (Ta.Semantics.system net))));
      (* Büchi-product liveness vs plain reachability on the same model:
         the R2-live check on the fixed binary protocol holds, so both
         engines walk the whole product — the overhead over a bare state
         count is the cost of the automaton component. *)
      Test.make ~name:"ltl/binary-plain-reach(4,4)"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:4 ~tmax:4 () in
             let net =
               Ta.Semantics.compile
                 (H.Ta_models.build ~fixed:true H.Ta_models.Binary params)
             in
             ignore (Mc.Explore.count (Ta.Semantics.system net))));
      Test.make ~name:"ltl/binary-R2-product-ndfs(4,4)"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:4 ~tmax:4 () in
             ignore
               (H.Verify.check_live ~fixed:true ~engine:Ltl.Check.Ndfs
                  H.Ta_models.Binary params H.Requirements.R2)));
      Test.make ~name:"ltl/binary-R2-product-scc(4,4)"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:4 ~tmax:4 () in
             ignore
               (H.Verify.check_live ~fixed:true ~engine:Ltl.Check.Scc
                  H.Ta_models.Binary params H.Requirements.R2)));
      (* Sequential vs parallel exploration of the heartbeat spaces. *)
      Test.make ~name:"pexplore/binary-seq"
        (Staged.stage (fun () ->
             ignore (Mc.Explore.space (binary_system ()))));
      Test.make ~name:"pexplore/binary-2dom"
        (Staged.stage (fun () ->
             ignore (Mc.Pexplore.space ~domains:2 (binary_system ()))));
      Test.make ~name:"pexplore/binary-4dom"
        (Staged.stage (fun () ->
             ignore (Mc.Pexplore.space ~domains:4 (binary_system ()))));
      Test.make ~name:"pexplore/ternary-seq"
        (Staged.stage (fun () ->
             ignore (Mc.Explore.space (ternary_system ()))));
      Test.make ~name:"pexplore/ternary-2dom"
        (Staged.stage (fun () ->
             ignore (Mc.Pexplore.space ~domains:2 (ternary_system ()))));
      Test.make ~name:"pexplore/ternary-4dom"
        (Staged.stage (fun () ->
             ignore (Mc.Pexplore.space ~domains:4 (ternary_system ()))));
      Test.make ~name:"mc/regex-compile-step"
        (Staged.stage (fun () ->
             let r =
               Mc.Regex.(
                 seq
                   (star (atom "a" (String.equal "a")))
                   (repeat (atom "b" (String.equal "b")) 8))
             in
             let m = Mc.Regex.compile r in
             let q = ref m.Mc.Monitor.start in
             for _ = 1 to 100 do
               q := m.Mc.Monitor.step !q "a";
               q := m.Mc.Monitor.step !q "b"
             done;
             ignore (m.Mc.Monitor.accepting !q)));
      Test.make ~name:"lts/minimize-fig-component"
        (Staged.stage (fun () ->
             let g =
               H.Figures.p0_component (H.Params.make ~tmin:1 ~tmax:2 ())
             in
             ignore (Lts.Minimize.strong g)));
      Test.make ~name:"sim/steady-run-1000"
        (Staged.stage (fun () ->
             let params = H.Params.make ~tmin:2 ~tmax:10 () in
             ignore
               (H.Runtime.run
                  (H.Runtime.config ~kind:H.Runtime.Halving ~duration:1000.0
                     params))));
      Test.make ~name:"fd/qos-run-500tu"
        (Staged.stage (fun () ->
             ignore
               (Fd.Qos.measure
                  (Fd.Detector.config ~loss:0.05 ~duration:500.0 ()))));
      Test.make ~name:"sim/heap-10k"
        (Staged.stage (fun () ->
             let r = Sim.Rng.create 3L in
             let h = ref Sim.Heap.empty in
             for _ = 1 to 10_000 do
               h := Sim.Heap.insert (Sim.Rng.float r) () !h
             done;
             let rec drain h =
               match Sim.Heap.pop h with None -> () | Some (_, h') -> drain h'
             in
             drain !h));
    ]

let run_benchmarks () =
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None
      ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] bench_tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      instance raw
  in
  Format.printf "@.=== Bechamel timings (monotonic clock) ===@.@.";
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
      in
      Format.printf "  %-44s %14.0f ns/run  (%.3f ms)@." name ns (ns /. 1e6))
    (List.sort compare rows)

let () =
  let has f = Array.exists (String.equal f) Sys.argv in
  let bench_only = has "--bench-only" in
  let tables_only = has "--tables-only" in
  if has "--parallel-only" then parallel_report ()
  else if has "--por-only" then por_report ()
  else if has "--pr6-only" then pr6_report ()
  else if has "--pr7-only" then pr7_report ()
  else if has "--pr8-only" then pr8_report ()
  else if has "--pr9-only" then pr9_report ()
  else if has "--pr10-only" then pr10_report ()
  else begin
    if not bench_only then regenerate ();
    if not tables_only then begin
      parallel_report ();
      por_report ();
      run_benchmarks ()
    end
  end
