type event =
  | Send of { src : int; dst : int; at : float }
  | Deliver of { src : int; dst : int; at : float }
  | Drop of { src : int; dst : int; at : float; kind : Sim.Net.drop_kind }
  | Late of { src : int; dst : int; at : float }
  | Crash of { node : int; at : float }
  | Recover of { node : int; at : float }
  | Detect of { at : float }
  | Inactivate of { node : int; at : float }

let time_of = function
  | Send { at; _ }
  | Deliver { at; _ }
  | Drop { at; _ }
  | Late { at; _ }
  | Crash { at; _ }
  | Recover { at; _ }
  | Detect { at }
  | Inactivate { at; _ } ->
      at

let pp_event ppf = function
  | Send { src; dst; at } ->
      Format.fprintf ppf "t=%-8.3f p[%d] sends to p[%d]" at src dst
  | Deliver { src; dst; at } ->
      Format.fprintf ppf "t=%-8.3f p[%d] receives from p[%d]" at dst src
  | Drop { src; dst; at; kind } ->
      Format.fprintf ppf "t=%-8.3f message p[%d]->p[%d] %s" at src dst
        (match kind with
        | Sim.Net.Stochastic -> "lost"
        | Sim.Net.Down -> "dropped (link down)")
  | Late { src; dst; at } ->
      Format.fprintf ppf
        "t=%-8.3f message p[%d]->p[%d] delivered past the delay bound" at src
        dst
  | Crash { node; at } -> Format.fprintf ppf "t=%-8.3f p[%d] crashes" at node
  | Recover { node; at } ->
      Format.fprintf ppf "t=%-8.3f p[%d] recovers" at node
  | Detect { at } ->
      Format.fprintf ppf "t=%-8.3f p[0] detects / self-inactivates" at
  | Inactivate { node; at } ->
      Format.fprintf ppf "t=%-8.3f p[%d] non-voluntarily inactivated" at node

type violation = {
  req : Requirements.requirement;
  at : float;
  reason : string;
  prefix : event list;
}

type verdict = Pass | Fail of violation

(* A deadline counts as missed only when passed by more than this:
   absorbs floating-point ties at exact deadlines. *)
let slack = 1e-6

(* An R2/R3 candidate held open for [grace]: the delivery excusing it (a
   reordered or jittered message still in flight when the protocol acted)
   may only land after the inactivation it explains. *)
type pending = { p_v : violation; p_excused : unit -> bool }

type t = {
  n : int;
  r1_bound : float;
  pi_bound : float;
  grace : float;
  quiescence_after : float;
  check : Requirements.requirement -> bool;
  mutable rev_trace : event list;
  last_reply : float array; (* last delivery i -> p[0], index 1..n *)
  last_beat : float array; (* last delivery p[0] -> i *)
  drop_touching : bool array; (* some message on i's links was lost/dropped *)
  mutable any_drop : bool;
  late_touching : bool array; (* some message on i's links broke the bound *)
  mutable any_late : bool;
  crashed : bool array; (* currently crashed by a fault *)
  ever_crashed : bool array;
  inactivated : bool array;
  mutable detected : float option;
  mutable pendings : pending list;
  mutable violation : violation option;
}

let create ?(grace = 0.0) ?quiescence_after ~n ~r1_bound ~pi_bound reqs =
  if n < 1 then invalid_arg "Heartbeat.Monitors.create: n must be >= 1";
  if r1_bound <= 0.0 || pi_bound <= 0.0 then
    invalid_arg "Heartbeat.Monitors.create: bounds must be positive";
  let quiescence_after =
    match quiescence_after with Some q -> q | None -> 2.0 *. pi_bound
  in
  {
    n;
    r1_bound;
    pi_bound;
    grace;
    quiescence_after;
    check = (fun r -> List.mem r reqs);
    rev_trace = [];
    last_reply = Array.make (n + 1) 0.0;
    last_beat = Array.make (n + 1) 0.0;
    drop_touching = Array.make (n + 1) false;
    any_drop = false;
    late_touching = Array.make (n + 1) false;
    any_late = false;
    crashed = Array.make (n + 1) false;
    ever_crashed = Array.make (n + 1) false;
    inactivated = Array.make (n + 1) false;
    detected = None;
    pendings = [];
    violation = None;
  }

let violate t req at fmt =
  Format.kasprintf
    (fun reason ->
      if t.violation = None then
        t.violation <- Some { req; at; reason; prefix = List.rev t.rev_trace })
    fmt

let propose t req at excused fmt =
  Format.kasprintf
    (fun reason ->
      if t.violation = None then
        t.pendings <-
          t.pendings
          @ [
              {
                p_v = { req; at; reason; prefix = List.rev t.rev_trace };
                p_excused = excused;
              };
            ])
    fmt

(* Latch the earliest pending candidate whose grace window has elapsed
   without an excuse arriving. *)
let expire t now =
  if t.violation = None then
    let expired, waiting =
      List.partition
        (fun p -> now > p.p_v.at +. t.grace +. slack)
        t.pendings
    in
    match expired with
    | [] -> ()
    | first :: rest ->
        let earliest =
          List.fold_left
            (fun acc p -> if p.p_v.at < acc.p_v.at then p else acc)
            first rest
        in
        t.violation <- Some earliest.p_v;
        t.pendings <- waiting

(* R1's two watchdogs, evaluated whenever time has advanced to [now]:
   p[0] past its detection bound, a participant past its inactivation
   bound.  A process crashed by a fault is excused — it cannot act. *)
let check_deadlines t now =
  if t.check Requirements.R1 && t.violation = None then begin
    if (not t.crashed.(0)) && t.detected = None then
      for i = 1 to t.n do
        let deadline = t.last_reply.(i) +. t.r1_bound in
        if t.violation = None && now > deadline +. slack then
          violate t Requirements.R1 deadline
            "p[0] still active %g after the last heartbeat from p[%d] \
             (required detection bound %g)"
            (now -. t.last_reply.(i))
            i t.r1_bound
      done;
    for i = 1 to t.n do
      let deadline = t.last_beat.(i) +. t.pi_bound in
      if
        t.violation = None
        && (not t.inactivated.(i))
        && (not t.crashed.(i))
        && now > deadline +. slack
      then
        violate t Requirements.R1 deadline
          "p[%d] still active %g after its last received beat (required \
           inactivation bound %g)"
          i
          (now -. t.last_beat.(i))
          t.pi_bound
    done
  end

let apply t e =
  match e with
  | Send { at; _ } -> (
      match t.detected with
      | Some d
        when t.check Requirements.R3 && at > d +. t.quiescence_after +. slack
        ->
          violate t Requirements.R3 at
            "message sent %g after p[0]'s inactivation — the system never \
             quiesces"
            (at -. d)
      | _ -> ())
  | Deliver { src; dst; at } ->
      if dst = 0 then t.last_reply.(src) <- at;
      if src = 0 then t.last_beat.(dst) <- at
  | Drop { src; dst; _ } ->
      t.drop_touching.(src) <- true;
      t.drop_touching.(dst) <- true;
      t.any_drop <- true
  | Late { src; dst; _ } ->
      t.late_touching.(src) <- true;
      t.late_touching.(dst) <- true;
      t.any_late <- true
  | Crash { node; at } ->
      t.crashed.(node) <- true;
      t.ever_crashed.(node) <- true;
      ignore at
  | Recover { node; at } ->
      t.crashed.(node) <- false;
      if node = 0 then
        (* p[0] restarts with a fresh view: its detection obligations
           count from the recovery instant. *)
        for i = 1 to t.n do
          t.last_reply.(i) <- at
        done
      else t.last_beat.(node) <- at
  | Detect { at } ->
      let excused () =
        t.any_drop || t.any_late || Array.exists (fun b -> b) t.ever_crashed
      in
      if t.check Requirements.R3 && not (excused ()) then
        propose t Requirements.R3 at excused
          "p[0] self-inactivated although no message was lost or late and \
           no process crashed";
      if t.detected = None then t.detected <- Some at
  | Inactivate { node; at } ->
      let excused () =
        t.drop_touching.(node) || t.drop_touching.(0)
        || t.late_touching.(node) || t.late_touching.(0)
        || t.ever_crashed.(0)
        || t.detected <> None
        || t.ever_crashed.(node)
      in
      if t.check Requirements.R2 && not (excused ()) then
        propose t Requirements.R2 at excused
          "p[%d] non-voluntarily inactivated although p[0] was up and no \
           message on its links was lost or late"
          node;
      t.inactivated.(node) <- true

let feed t e =
  if t.violation = None then begin
    t.rev_trace <- e :: t.rev_trace;
    let now = time_of e in
    expire t now;
    if t.violation = None then begin
      check_deadlines t now;
      if t.violation = None then begin
        apply t e;
        t.pendings <- List.filter (fun p -> not (p.p_excused ())) t.pendings
      end
    end
  end

let finish t ~now =
  (* Candidates still inside their grace window at the horizon are
     inconclusive — the excusing delivery may have been cut off — and
     are dropped rather than latched. *)
  if t.violation = None then begin
    expire t now;
    if t.violation = None then check_deadlines t now
  end
let verdict t = match t.violation with None -> Pass | Some v -> Fail v
let trace t = List.rev t.rev_trace

let pp_violation ppf v =
  Format.fprintf ppf "%s violated at t=%g: %s (%d-event prefix)"
    (Requirements.name v.req) v.at v.reason (List.length v.prefix)

(* MSC-style rendering: one column per lifeline (p[0], p[1..n]) plus a
   channel column, one row per event — the layout of Figures 10-13. *)
let render_prefix ?(n = 1) v =
  let cols = n + 2 in
  let width = 16 in
  let buf = Buffer.create 1024 in
  let row time cells =
    Buffer.add_string buf (Printf.sprintf "%8.3f |" time);
    Array.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf " %-*s|" width c))
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "%8s |" "t");
  for c = 0 to cols - 1 do
    let label =
      if c < n + 1 then Printf.sprintf "p[%d]" c else "channel"
    in
    Buffer.add_string buf (Printf.sprintf " %-*s|" width label)
  done;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (String.make (10 + ((width + 2) * cols)) '-');
  Buffer.add_char buf '\n';
  let cell col text =
    let cells = Array.make cols "" in
    if col >= 0 && col < cols then cells.(col) <- text;
    cells
  in
  let chan = cols - 1 in
  List.iter
    (fun e ->
      let time = time_of e in
      match e with
      | Send { src; dst; _ } ->
          row time (cell src (Printf.sprintf "send -> p[%d]" dst))
      | Deliver { src; dst; _ } ->
          row time (cell dst (Printf.sprintf "recv <- p[%d]" src))
      | Drop { src; dst; kind; _ } ->
          row time
            (cell chan
               (Printf.sprintf "p[%d]->p[%d] %s" src dst
                  (match kind with
                  | Sim.Net.Stochastic -> "lost"
                  | Sim.Net.Down -> "cut")))
      | Late { src; dst; _ } ->
          row time (cell chan (Printf.sprintf "p[%d]->p[%d] late" src dst))
      | Crash { node; _ } -> row time (cell node "CRASH")
      | Recover { node; _ } -> row time (cell node "recover")
      | Detect _ -> row time (cell 0 "DETECT (inact.)")
      | Inactivate { node; _ } -> row time (cell node "inactivate(nv)"))
    v.prefix;
  Buffer.add_string buf
    (Printf.sprintf "%8.3f * %s violated: %s\n" v.at
       (Requirements.name v.req) v.reason);
  Buffer.contents buf
