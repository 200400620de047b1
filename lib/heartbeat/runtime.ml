type kind = Halving | Two_phase | Fixed_rate of int

let kind_name = function
  | Halving -> "halving"
  | Two_phase -> "two-phase"
  | Fixed_rate k -> Printf.sprintf "fixed-rate(%d)" k

type config = {
  params : Params.t;
  kind : kind;
  loss : Sim.Loss.t;
  duration : float;
  faults : Sim.Fault.schedule;
  fixed_bounds : bool;
  seed : int64;
}

let config ?(kind = Halving) ?(loss = Sim.Loss.bernoulli 0.0) ?(faults = [])
    ?(fixed_bounds = false) ?(seed = 1L) ~duration params =
  (match kind with
  | Fixed_rate k when k < 1 ->
      invalid_arg "Heartbeat.Runtime: Fixed_rate needs k >= 1"
  | _ -> ());
  Sim.Fault.validate faults;
  { params; kind; loss; duration; faults; fixed_bounds; seed }

type result = {
  messages_sent : int;
  messages_lost : int;
  messages_dropped : int;
  p0_detected_at : float option;
  pi_inactivated_at : (int * float) list;
  false_detection : bool;
  fault_log : (float * Sim.Fault.action) list;
}

(* Mutable per-run protocol state. *)
type participant = {
  index : int;
  mutable alive : bool;
  mutable p_crashed : bool;
  mutable deadline : Sim.Engine.timer option;
}

type coordinator = {
  mutable c_alive : bool;
  mutable c_crashed : bool;
  mutable tm : float array; (* per-participant waiting time *)
  mutable rcvd : bool array;
  mutable misses : int array; (* fixed-rate miss counters *)
  mutable detected : float option;
}

let run ?on_event (cfg : config) : result =
  let { Params.tmin; tmax; n } = cfg.params in
  let tmin_f = float_of_int tmin and tmax_f = float_of_int tmax in
  let engine = Sim.Engine.create ~seed:cfg.seed () in
  let emit =
    match on_event with Some f -> f | None -> fun (_ : Monitors.event) -> ()
  in
  let pi_bound =
    if cfg.fixed_bounds then 2.0 *. tmax_f
    else (3.0 *. tmax_f) -. tmin_f
  in
  let coordinator =
    {
      c_alive = true;
      c_crashed = false;
      tm = Array.make (n + 1) tmax_f;
      rcvd = Array.make (n + 1) true;
      misses = Array.make (n + 1) 0;
      detected = None;
    }
  in
  let participants =
    Array.init (n + 1) (fun i ->
        { index = i; alive = true; p_crashed = false; deadline = None })
  in
  let inactivations = ref [] in
  let crashed = ref false in
  let fault_log = ref [] in
  (* One-way links; each direction gets half the round-trip budget. *)
  let link ~src ~dst deliver =
    Sim.Net.create engine ~loss:cfg.loss
      ~on_drop:(fun kind _ ->
        emit (Monitors.Drop { src; dst; at = Sim.Engine.now engine; kind }))
      ~on_late:(fun _ ->
        emit (Monitors.Late { src; dst; at = Sim.Engine.now engine }))
      ~delay_lo:0.0 ~delay_hi:(tmin_f /. 2.0) ~deliver ()
  in
  (* Forward refs between the two directions' handlers. *)
  let to_p0 : int Sim.Net.t option array = Array.make (n + 1) None in
  let reply i =
    emit (Monitors.Send { src = i; dst = 0; at = Sim.Engine.now engine });
    Sim.Net.send (Option.get to_p0.(i)) i
  in
  let rearm_deadline p on_fire =
    Option.iter Sim.Engine.cancel p.deadline;
    p.deadline <- Some (Sim.Engine.schedule engine ~delay:pi_bound on_fire)
  in
  let rec participant_deadline i () =
    let p = participants.(i) in
    if p.alive then begin
      p.alive <- false;
      let at = Sim.Engine.now engine in
      inactivations := (i, at) :: !inactivations;
      emit (Monitors.Inactivate { node = i; at })
    end
  and on_beat i =
    let p = participants.(i) in
    emit
      (Monitors.Deliver { src = 0; dst = i; at = Sim.Engine.now engine });
    if p.alive then begin
      reply i;
      rearm_deadline p (participant_deadline i)
    end
  in
  let to_pi =
    Array.init (n + 1) (fun i -> link ~src:0 ~dst:i (fun _ -> on_beat i))
  in
  for i = 1 to n do
    to_p0.(i) <-
      Some
        (link ~src:i ~dst:0 (fun i ->
             emit
               (Monitors.Deliver
                  { src = i; dst = 0; at = Sim.Engine.now engine });
             if coordinator.c_alive then begin
               coordinator.rcvd.(i) <- true;
               coordinator.misses.(i) <- 0
             end))
  done;
  let detect () =
    if coordinator.detected = None then begin
      let at = Sim.Engine.now engine in
      coordinator.detected <- Some at;
      coordinator.c_alive <- false;
      emit (Monitors.Detect { at })
    end
  in
  let broadcast () =
    for i = 1 to n do
      emit (Monitors.Send { src = 0; dst = i; at = Sim.Engine.now engine });
      Sim.Net.send to_pi.(i) i
    done
  in
  (* Halving coordinator: evaluate the ending round, recompute the
     waiting times, broadcast, and schedule the next round boundary. *)
  let rec accelerated_round () =
    if coordinator.c_alive then begin
      for i = 1 to n do
        if coordinator.rcvd.(i) then coordinator.tm.(i) <- tmax_f
        else coordinator.tm.(i) <- coordinator.tm.(i) /. 2.0;
        coordinator.rcvd.(i) <- false
      done;
      let t = Array.fold_left min infinity (Array.sub coordinator.tm 1 n) in
      if t < tmin_f then detect ()
      else begin
        broadcast ();
        ignore (Sim.Engine.schedule engine ~delay:t accelerated_round)
      end
    end
  in
  (* Two-phase starvation bookkeeping: a miss at tm = tmin means the
     accelerated probe also went unanswered. *)
  let rec two_phase_round () =
    if coordinator.c_alive then begin
      let starved = ref false in
      for i = 1 to n do
        if coordinator.rcvd.(i) then coordinator.tm.(i) <- tmax_f
        else if coordinator.tm.(i) <= tmin_f then starved := true
        else coordinator.tm.(i) <- tmin_f;
        coordinator.rcvd.(i) <- false
      done;
      if !starved then detect ()
      else begin
        let t = Array.fold_left min infinity (Array.sub coordinator.tm 1 n) in
        broadcast ();
        ignore (Sim.Engine.schedule engine ~delay:t two_phase_round)
      end
    end
  in
  let rec fixed_rate_round k () =
    if coordinator.c_alive then begin
      let period = tmax_f /. float_of_int k in
      let failed = ref false in
      for i = 1 to n do
        if not coordinator.rcvd.(i) then begin
          coordinator.misses.(i) <- coordinator.misses.(i) + 1;
          if coordinator.misses.(i) >= k then failed := true
        end;
        coordinator.rcvd.(i) <- false
      done;
      if !failed then detect ()
      else begin
        broadcast ();
        ignore (Sim.Engine.schedule engine ~delay:period (fixed_rate_round k))
      end
    end
  in
  let start_coordinator () =
    match cfg.kind with
    | Halving ->
        ignore (Sim.Engine.schedule engine ~delay:tmax_f accelerated_round)
    | Two_phase ->
        ignore (Sim.Engine.schedule engine ~delay:tmax_f two_phase_round)
    | Fixed_rate k ->
        ignore
          (Sim.Engine.schedule engine
             ~delay:(tmax_f /. float_of_int k)
             (fixed_rate_round k))
  in
  (* Fault hooks: crash kills a node outright (timers cancelled, rounds
     die); recover revives a crashed node with a fresh protocol state —
     the coordinator restarts its round schedule as at start-up, a
     participant re-arms its inactivation deadline. *)
  let do_crash who =
    crashed := true;
    emit (Monitors.Crash { node = who; at = Sim.Engine.now engine });
    if who = 0 then begin
      coordinator.c_alive <- false;
      coordinator.c_crashed <- true
    end
    else begin
      participants.(who).alive <- false;
      participants.(who).p_crashed <- true;
      Option.iter Sim.Engine.cancel participants.(who).deadline
    end
  in
  let do_recover who =
    if who = 0 then begin
      if coordinator.c_crashed then begin
        coordinator.c_crashed <- false;
        emit (Monitors.Recover { node = 0; at = Sim.Engine.now engine });
        if coordinator.detected = None then begin
          coordinator.c_alive <- true;
          for i = 1 to n do
            coordinator.rcvd.(i) <- true;
            coordinator.misses.(i) <- 0;
            coordinator.tm.(i) <- tmax_f
          done;
          start_coordinator ()
        end
      end
    end
    else begin
      let p = participants.(who) in
      if p.p_crashed then begin
        p.p_crashed <- false;
        p.alive <- true;
        emit (Monitors.Recover { node = who; at = Sim.Engine.now engine });
        rearm_deadline p (participant_deadline who)
      end
    end
  in
  (* Arm participant deadlines and start the coordinator. *)
  for i = 1 to n do
    rearm_deadline participants.(i) (participant_deadline i)
  done;
  start_coordinator ();
  if cfg.faults <> [] then begin
    let nodes = List.init (n + 1) Fun.id in
    let link ~src ~dst =
      if src = 0 && dst >= 1 && dst <= n then Some (Sim.Net.ctl to_pi.(dst))
      else if dst = 0 && src >= 1 && src <= n then
        Option.map Sim.Net.ctl to_p0.(src)
      else None
    in
    Sim.Fault.apply engine ~nodes ~link ~on_crash:do_crash
      ~on_recover:do_recover
      ~on_apply:(fun at action -> fault_log := (at, action) :: !fault_log)
      cfg.faults
  end;
  Sim.Engine.run ~until:cfg.duration engine;
  let sent = ref 0 and lost = ref 0 and dropped = ref 0 in
  let count l =
    sent := !sent + Sim.Net.sent l;
    lost := !lost + Sim.Net.lost l;
    dropped := !dropped + Sim.Net.dropped l
  in
  Array.iteri (fun i l -> if i >= 1 then count l) to_pi;
  Array.iter (fun l -> Option.iter count l) to_p0;
  {
    messages_sent = !sent;
    messages_lost = !lost;
    messages_dropped = !dropped;
    p0_detected_at = coordinator.detected;
    pi_inactivated_at = List.rev !inactivations;
    false_detection = coordinator.detected <> None && not !crashed;
    fault_log = List.rev !fault_log;
  }

let first_crash_at cfg =
  match
    List.filter_map
      (fun { Sim.Fault.at; action } ->
        match action with Sim.Fault.Crash _ -> Some at | _ -> None)
      cfg.faults
  with
  | [] -> None
  | all -> Some (List.fold_left min infinity all)

let detection_delay cfg result =
  match (first_crash_at cfg, result.p0_detected_at) with
  | Some at, Some d when d >= at -> Some (d -. at)
  | _ -> None
