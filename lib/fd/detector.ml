type event = Suspect of { who : int; at : float } | Trust of { who : int; at : float }

type config = {
  estimator : Estimator.t;
  probes : int;
  loss : Sim.Loss.t;
  duration : float;
  crash : (int * float) option;
  seed : int64;
}

(* The monitored system: [n] processes beating every [period] over links
   with one-way delays in [delay_lo, delay_hi]; a probe reply is awaited
   for [rtt_bound]. *)
let n = 1
let period = 10.0
let rtt_bound = 2.0
let delay_lo = 0.0
let delay_hi = 1.0

let config ?(estimator = Estimator.Fixed { margin = 2.0 }) ?(probes = 0)
    ?(loss = Sim.Loss.bernoulli 0.0) ?crash ?(seed = 1L) ~duration () =
  if probes < 0 then invalid_arg "Fd.Detector: probes must be >= 0";
  Option.iter
    (fun (who, at) ->
      if who < 1 || who > n || at < 0.0 then
        invalid_arg "Fd.Detector: crash must name process 1 at a time >= 0")
    crash;
  Estimator.validate estimator;
  { estimator; probes; loss; duration; crash; seed }

type result = { events : event list; messages : int }

(* Monitor-side per-process record. *)
type watch = {
  est : Estimator.state;
  mutable suspected : bool;
  mutable probing : bool;
  mutable probes_left : int;
  mutable timer : Sim.Engine.timer option;
}

let run (cfg : config) : result =
  let engine = Sim.Engine.create ~seed:cfg.seed () in
  let events = ref [] in
  let alive = Array.make (n + 1) true in
  let emit e = events := e :: !events in
  let watches =
    Array.init (n + 1) (fun _ ->
        {
          est = Estimator.start cfg.estimator ~period;
          suspected = false;
          probing = false;
          probes_left = 0;
          timer = None;
        })
  in
  let link deliver =
    Sim.Net.create engine ~loss:cfg.loss ~delay_lo ~delay_hi ~deliver ()
  in
  (* forward declarations tied together below *)
  let on_heartbeat = ref (fun (_ : int) -> ()) in
  let on_probe = ref (fun (_ : int) -> ()) in
  let to_monitor = Array.init (n + 1) (fun _ -> link (fun i -> !on_heartbeat i)) in
  let to_process = Array.init (n + 1) (fun _ -> link (fun i -> !on_probe i)) in
  (* monitored processes: heartbeat every period; answer probes *)
  let rec beat i () =
    if alive.(i) then begin
      Sim.Net.send to_monitor.(i) i;
      ignore (Sim.Engine.schedule engine ~delay:period (beat i))
    end
  in
  (on_probe :=
     fun i -> if alive.(i) then Sim.Net.send to_monitor.(i) i);
  (* monitor: freshness deadlines, optional probe confirmation *)
  let rec rearm i =
    let w = watches.(i) in
    Option.iter Sim.Engine.cancel w.timer;
    let deadline = Estimator.deadline cfg.estimator w.est in
    let delay = max 0.0 (deadline -. Sim.Engine.now engine) in
    w.timer <- Some (Sim.Engine.schedule engine ~delay (expire i))
  and expire i () =
    let w = watches.(i) in
    if cfg.probes = 0 then suspect i
    else if not w.probing then begin
      (* deadline missed: start the accelerated probe burst *)
      w.probing <- true;
      w.probes_left <- cfg.probes;
      send_probe i
    end
    else if w.probes_left = 0 then suspect i
    else send_probe i
  and send_probe i =
    let w = watches.(i) in
    w.probes_left <- w.probes_left - 1;
    Sim.Net.send to_process.(i) i;
    w.timer <- Some (Sim.Engine.schedule engine ~delay:rtt_bound (expire i))
  and suspect i =
    let w = watches.(i) in
    if not w.suspected then begin
      w.suspected <- true;
      emit (Suspect { who = i; at = Sim.Engine.now engine })
    end
  in
  (on_heartbeat :=
     fun i ->
       let w = watches.(i) in
       Estimator.observe cfg.estimator w.est ~now:(Sim.Engine.now engine);
       w.probing <- false;
       w.probes_left <- 0;
       if w.suspected then begin
         w.suspected <- false;
         emit (Trust { who = i; at = Sim.Engine.now engine })
       end;
       rearm i);
  for i = 1 to n do
    ignore (Sim.Engine.schedule engine ~delay:0.0 (beat i));
    rearm i
  done;
  Option.iter
    (fun (who, at) ->
      ignore (Sim.Engine.schedule engine ~delay:at (fun () -> alive.(who) <- false)))
    cfg.crash;
  Sim.Engine.run ~until:cfg.duration engine;
  let messages =
    let total = ref 0 in
    Array.iter (fun l -> total := !total + Sim.Net.sent l) to_monitor;
    Array.iter (fun l -> total := !total + Sim.Net.sent l) to_process;
    !total
  in
  { events = List.rev !events; messages }

let suspected_forever result ~who ~after =
  (* the last state change for [who] must be a suspicion at/after the
     crash *)
  let relevant =
    List.filter
      (function Suspect { who = w; _ } | Trust { who = w; _ } -> w = who)
      result.events
  in
  match List.rev relevant with
  | Suspect { at; _ } :: _ when at >= after -> Some at
  | _ -> None
