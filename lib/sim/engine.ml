type event = { action : unit -> unit; mutable cancelled : bool }

type t = {
  mutable clock : float;
  mutable queue : event Heap.t;
  rng : Rng.t;
}

type timer = event

let create ?(seed = 1L) () =
  { clock = 0.0; queue = Heap.empty; rng = Rng.create seed }

let now t = t.clock
let rng t = t.rng

let at t ~time action =
  if time < t.clock then invalid_arg "Sim.Engine.at: time in the past";
  let ev = { action; cancelled = false } in
  t.queue <- Heap.insert time ev t.queue;
  ev

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.Engine.schedule: negative delay";
  at t ~time:(t.clock +. delay) action

let cancel ev = ev.cancelled <- true

let run ?(until = infinity) t =
  let continue = ref true in
  while !continue do
    match Heap.pop t.queue with
    | None -> continue := false
    | Some ((time, ev), rest) ->
        if time > until then continue := false
        else begin
          t.queue <- rest;
          if not ev.cancelled then begin
            t.clock <- time;
            ev.action ()
          end
        end
  done
