type rate_row = { kind : Runtime.kind; msgs_per_time : float }

let steady_rate ?(seed = 11L) kind params =
  let duration = 10_000.0 in
  let cfg = Runtime.config ~kind ~seed ~duration params in
  let result = Runtime.run cfg in
  { kind; msgs_per_time = float_of_int result.Runtime.messages_sent /. duration }

type detection_row = {
  d_kind : Runtime.kind;
  runs : int;
  detected : int;
  mean_delay : float;
  max_delay : float;
  analytic_bound : float;
}

let analytic_bound kind (p : Params.t) =
  match (kind : Runtime.kind) with
  | Runtime.Halving -> float_of_int (Bounds.p0_detection_exhaustive p)
  | Runtime.Two_phase -> float_of_int ((2 * p.Params.tmax) + p.Params.tmin)
  | Runtime.Fixed_rate k ->
      (* k misses of period tmax/k after a full period of grace. *)
      float_of_int p.Params.tmax *. (1.0 +. (1.0 /. float_of_int k))

let detection ?(runs = 200) ?(seed = 42L) kind params =
  let stats = Sim.Stats.create () in
  let detected = ref 0 in
  let master = Sim.Rng.create seed in
  let horizon = float_of_int (20 * params.Params.tmax) in
  for _ = 1 to runs do
    let crash_at =
      Sim.Rng.uniform master
        (float_of_int params.Params.tmax)
        (float_of_int (5 * params.Params.tmax))
    in
    let cfg =
      Runtime.config ~kind
        ~faults:[ Sim.Fault.crash ~at:crash_at 1 ]
        ~seed:(Sim.Rng.int64 master) ~duration:(crash_at +. horizon) params
    in
    let result = Runtime.run cfg in
    match Runtime.detection_delay cfg result with
    | Some d ->
        incr detected;
        Sim.Stats.add stats d
    | None -> ()
  done;
  {
    d_kind = kind;
    runs;
    detected = !detected;
    mean_delay = Sim.Stats.mean stats;
    max_delay =
      (if Sim.Stats.count stats = 0 then nan else Sim.Stats.max_value stats);
    analytic_bound = analytic_bound kind params;
  }

type reliability_row = {
  r_kind : Runtime.kind;
  loss : float;
  r_runs : int;
  false_detections : int;
  false_rate : float;
}

let reliability_model ?(runs = 200) ?(duration = 2_000.0) ?(seed = 7L) kind
    params ~model =
  let master = Sim.Rng.create seed in
  let false_detections = ref 0 in
  for _ = 1 to runs do
    let cfg =
      Runtime.config ~kind ~loss:model ~seed:(Sim.Rng.int64 master) ~duration
        params
    in
    let result = Runtime.run cfg in
    if result.Runtime.false_detection then incr false_detections
  done;
  {
    r_kind = kind;
    loss = Sim.Loss.expected_loss model;
    r_runs = runs;
    false_detections = !false_detections;
    false_rate = float_of_int !false_detections /. float_of_int runs;
  }

let reliability ?runs ?duration ?seed kind params ~loss =
  reliability_model ?runs ?duration ?seed kind params
    ~model:(Sim.Loss.bernoulli loss)

let default_kinds (_ : Params.t) =
  [ Runtime.Halving; Runtime.Two_phase; Runtime.Fixed_rate 2 ]

let pp_rate ppf r =
  Format.fprintf ppf "%-14s %8.4f msgs/unit-time"
    (Runtime.kind_name r.kind)
    r.msgs_per_time

let pp_detection ppf r =
  Format.fprintf ppf
    "%-14s detected %d/%d  mean %6.2f  max %6.2f  (analytic worst %6.2f)"
    (Runtime.kind_name r.d_kind)
    r.detected r.runs r.mean_delay r.max_delay r.analytic_bound

let pp_reliability ppf r =
  Format.fprintf ppf "%-14s loss=%4.2f  false detections %d/%d (rate %.3f)"
    (Runtime.kind_name r.r_kind)
    r.loss r.false_detections r.r_runs r.false_rate

type join_row = {
  j_runs : int;
  joined : int;
  mean_latency : float;
  max_latency : float;
  join_bound : float;
}

(* One joining episode: p[0] beats joined members at its round
   boundaries (multiples of tmax); the joiner starts at [phase] and
   requests every tmin over the slow pre-join channel.  Returns the time
   from start-up to the first received beat. *)
let one_join (p : Params.t) rng phase =
  let tmin = float_of_int p.Params.tmin
  and tmax = float_of_int p.Params.tmax in
  let engine = Sim.Engine.create ~seed:(Sim.Rng.int64 rng) () in
  let joined_at_p0 = ref None in
  let acked_at = ref None in
  (* join requests, starting at [phase], every tmin, delay up to tmax *)
  let rec send_join () =
    if !acked_at = None then begin
      let delay = Sim.Rng.uniform (Sim.Engine.rng engine) 0.0 tmax in
      ignore
        (Sim.Engine.schedule engine ~delay (fun () ->
             if !joined_at_p0 = None then
               joined_at_p0 := Some (Sim.Engine.now engine)));
      ignore (Sim.Engine.schedule engine ~delay:tmin send_join)
    end
  in
  ignore (Sim.Engine.at engine ~time:phase send_join);
  (* p[0]'s round boundaries: beat the joiner once it is in the list *)
  for k = 1 to 9 do
    ignore
      (Sim.Engine.at engine
         ~time:(float_of_int k *. tmax)
         (fun () ->
           match !joined_at_p0 with
           | Some _ when !acked_at = None ->
               let delay =
                 Sim.Rng.uniform (Sim.Engine.rng engine) 0.0 (tmin /. 2.0)
               in
               ignore
                 (Sim.Engine.schedule engine ~delay (fun () ->
                      if !acked_at = None then
                        acked_at := Some (Sim.Engine.now engine)))
           | _ -> ()))
  done;
  Sim.Engine.run ~until:(10.0 *. tmax) engine;
  Option.map (fun t -> t -. phase) !acked_at

let join_latency ?(runs = 500) ?(seed = 99L) (p : Params.t) =
  let rng = Sim.Rng.create seed in
  let stats = Sim.Stats.create () in
  let joined = ref 0 in
  for _ = 1 to runs do
    let phase =
      Sim.Rng.uniform rng 0.0 (float_of_int p.Params.tmax)
    in
    match one_join p rng phase with
    | Some latency ->
        incr joined;
        Sim.Stats.add stats latency
    | None -> ()
  done;
  {
    j_runs = runs;
    joined = !joined;
    mean_latency = Sim.Stats.mean stats;
    max_latency =
      (if Sim.Stats.count stats = 0 then nan else Sim.Stats.max_value stats);
    join_bound = float_of_int (Bounds.pi_join_waiting p);
  }

let pp_join ppf r =
  Format.fprintf ppf
    "join latency: %d/%d acknowledged, mean %6.2f  max %6.2f  (bound %6.2f)"
    r.joined r.j_runs r.mean_latency r.max_latency r.join_bound
