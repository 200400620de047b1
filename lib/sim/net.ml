type drop_kind = Stochastic | Down

type 'a t = {
  engine : Engine.t;
  model : Loss.t;
  loss_state : Loss.state;
  delay_lo : float;
  delay_hi : float;
  deliver : 'a -> unit;
  on_drop : (drop_kind -> 'a -> unit) option;
  on_late : ('a -> unit) option;
  mutable is_up : bool;
  mutable epoch : int; (* bumped when in-flight messages are flushed *)
  mutable burst : float option; (* loss override during a burst window *)
  mutable dup : float;
  mutable reorder : float;
  mutable jitter : float;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int; (* stochastic: loss model or burst window *)
  mutable dropped : int; (* down link + flushed in-flight *)
  mutable duplicates : int;
  mutable late : int; (* delivered past the nominal delay bound *)
}

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Sim.Net.%s: probability outside [0,1]" name)

let create engine ?(loss = Loss.bernoulli 0.0) ?on_drop ?on_late ~delay_lo
    ~delay_hi ~deliver () =
  if delay_lo < 0.0 || delay_hi < delay_lo then
    invalid_arg "Sim.Net.create: bad delay range";
  Loss.validate loss;
  {
    engine;
    model = loss;
    loss_state = Loss.start loss;
    delay_lo;
    delay_hi;
    deliver;
    on_drop;
    on_late;
    is_up = true;
    epoch = 0;
    burst = None;
    dup = 0.0;
    reorder = 0.0;
    jitter = 0.0;
    sent = 0;
    delivered = 0;
    lost = 0;
    dropped = 0;
    duplicates = 0;
    late = 0;
  }

(* A delivery scheduled before a flush must not reach the application:
   it carries the epoch it was sent under and is counted as dropped when
   it fires into a newer one. *)
let schedule_delivery t msg =
  let rng = Engine.rng t.engine in
  let delay =
    if t.reorder > 0.0 && Rng.bool rng t.reorder then
      (* held back past the nominal window, so later sends overtake it *)
      Rng.uniform rng t.delay_hi (2.0 *. t.delay_hi)
    else Rng.uniform rng t.delay_lo t.delay_hi
  in
  let delay =
    if t.jitter > 0.0 then delay +. Rng.uniform rng 0.0 t.jitter else delay
  in
  (* Reordering and jitter can push a message past the delay bound the
     protocol's timers assume; flag such deliveries so monitors can tell
     a broken channel assumption from a genuine requirement violation. *)
  let is_late = delay > t.delay_hi +. 1e-9 in
  let epoch = t.epoch in
  ignore
    (Engine.schedule t.engine ~delay (fun () ->
         if epoch = t.epoch then begin
           t.delivered <- t.delivered + 1;
           if is_late then begin
             t.late <- t.late + 1;
             Option.iter (fun f -> f msg) t.on_late
           end;
           t.deliver msg
         end
         else begin
           t.dropped <- t.dropped + 1;
           Option.iter (fun f -> f Down msg) t.on_drop
         end))

let stochastic_drop t =
  let rng = Engine.rng t.engine in
  match t.burst with
  | Some p -> Rng.bool rng p
  | None -> Loss.drops t.model t.loss_state rng

let send t msg =
  t.sent <- t.sent + 1;
  if not t.is_up then begin
    t.dropped <- t.dropped + 1;
    Option.iter (fun f -> f Down msg) t.on_drop
  end
  else if stochastic_drop t then begin
    t.lost <- t.lost + 1;
    Option.iter (fun f -> f Stochastic msg) t.on_drop
  end
  else begin
    schedule_delivery t msg;
    if t.dup > 0.0 && Rng.bool (Engine.rng t.engine) t.dup then begin
      t.duplicates <- t.duplicates + 1;
      schedule_delivery t msg
    end
  end

let up t = t.is_up

let sent t = t.sent
let delivered t = t.delivered
let lost t = t.lost
let dropped t = t.dropped
let duplicates t = t.duplicates
let late t = t.late

(* Type-erased fault-control view, so injectors need not know the
   message type. *)
type ctl = Ctl : 'a t -> ctl

let ctl t = Ctl t

let ctl_set_up (Ctl t) ~drop_inflight b =
  t.is_up <- b;
  if (not b) && drop_inflight then t.epoch <- t.epoch + 1 (* flush *)

let ctl_burst (Ctl t) p =
  Option.iter (check_prob "ctl_burst") p;
  t.burst <- p

let ctl_duplicate (Ctl t) p =
  check_prob "ctl_duplicate" p;
  t.dup <- p

let ctl_reorder (Ctl t) p =
  check_prob "ctl_reorder" p;
  t.reorder <- p

let ctl_jitter (Ctl t) j =
  if j < 0.0 then invalid_arg "Sim.Net.ctl_jitter: negative jitter";
  t.jitter <- j
