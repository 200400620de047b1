type metrics = {
  detection_time : float option;
  mistakes : int;
  mistake_rate : float;
  mean_mistake_duration : float;
  availability : float;
  messages : int;
}

let measure (cfg : Detector.config) : metrics =
  let result = Detector.run cfg in
  let crash_at =
    match cfg.Detector.crash with Some (1, at) -> Some at | _ -> None
  in
  let horizon =
    match crash_at with Some at -> at | None -> cfg.Detector.duration
  in
  (* walk process 1's suspicion intervals before the crash/horizon *)
  let mistakes = ref 0 in
  let mistaken_time = ref 0.0 in
  let open_suspicion = ref None in
  List.iter
    (fun e ->
      match e with
      | Detector.Suspect { who = 1; at } when at < horizon ->
          incr mistakes;
          open_suspicion := Some at
      | Detector.Trust { who = 1; at } ->
          Option.iter
            (fun s -> mistaken_time := !mistaken_time +. (min at horizon -. s))
            !open_suspicion;
          open_suspicion := None
      | _ -> ())
    result.Detector.events;
  (* a pre-crash suspicion never revoked before the horizon: if there was
     no crash it is an (ongoing) mistake; with a crash it may be the
     detection, so only count its pre-crash span as mistaken when the
     process was alive *)
  (match (!open_suspicion, crash_at) with
  | Some s, None -> mistaken_time := !mistaken_time +. (horizon -. s)
  | Some _, Some _ -> ()
  | None, _ -> ());
  let detection_time =
    match crash_at with
    | None -> None
    | Some at ->
        Option.map
          (fun d -> d -. at)
          (Detector.suspected_forever result ~who:1 ~after:at)
  in
  {
    detection_time;
    mistakes = !mistakes;
    mistake_rate = float_of_int !mistakes /. horizon;
    mean_mistake_duration =
      (if !mistakes = 0 then 0.0
       else !mistaken_time /. float_of_int !mistakes);
    availability = 1.0 -. (!mistaken_time /. horizon);
    messages = result.Detector.messages;
  }

type tradeoff_row = {
  margin : float;
  probes : int;
  mean_detection : float;
  t_mistake_rate : float;
  t_availability : float;
}

let margin_sweep ?(runs = 50) ?(margins = [ 0.5; 1.0; 2.0; 4.0; 8.0 ])
    ?(probes = 0) ?(loss = 0.05) ?(seed = 5L) () =
  let loss = Sim.Loss.bernoulli loss in
  let master = Sim.Rng.create seed in
  List.map
    (fun margin ->
      let estimator = Estimator.Fixed { margin } in
      let det_stats = Sim.Stats.create () in
      let mistake_total = ref 0.0 in
      let avail_total = ref 0.0 in
      for _ = 1 to runs do
        (* crash run for detection *)
        let crash_at = Sim.Rng.uniform master 40.0 80.0 in
        let cfg =
          Detector.config ~estimator ~probes ~loss ~crash:(1, crash_at)
            ~seed:(Sim.Rng.int64 master) ~duration:(crash_at +. 200.0) ()
        in
        Option.iter (Sim.Stats.add det_stats) (measure cfg).detection_time;
        (* crash-free run for accuracy *)
        let cfg =
          Detector.config ~estimator ~probes ~loss ~seed:(Sim.Rng.int64 master)
            ~duration:2_000.0 ()
        in
        let m = measure cfg in
        mistake_total := !mistake_total +. m.mistake_rate;
        avail_total := !avail_total +. m.availability
      done;
      {
        margin;
        probes;
        mean_detection = Sim.Stats.mean det_stats;
        t_mistake_rate = !mistake_total /. float_of_int runs;
        t_availability = !avail_total /. float_of_int runs;
      })
    margins

let pp_tradeoff ppf r =
  Format.fprintf ppf
    "margin %5.2f  probes %d: detection %6.2f  mistakes/time %8.5f  \
     availability %.4f"
    r.margin r.probes r.mean_detection r.t_mistake_rate r.t_availability
