type reason =
  | Wall_clock of float
  | Memory of int
  | Cancelled
  | Crashed of string

type t = {
  wall_secs : float option;
  mem_mb : int option; (* the configured limit, for reporting *)
  mem_dyn : int Atomic.t; (* effective limit; raised by [rearm], max_int = none *)
  probe : (unit -> reason option) option;
  check_every : int; (* power of two; probes run one call in [check_every] *)
  t0 : float;
  calls : int Atomic.t;
  cancelled : bool Atomic.t;
  state : reason option Atomic.t; (* sticky trip; first writer wins *)
}

let rec pow2_ceil n k = if k >= n then k else pow2_ceil n (k * 2)

let make ?wall_secs ?mem_mb ?probe ?(check_every = 64) () =
  {
    wall_secs;
    mem_mb;
    mem_dyn = Atomic.make (match mem_mb with Some m -> m | None -> max_int);
    probe;
    check_every = pow2_ceil (max 1 check_every) 1;
    t0 = Unix.gettimeofday ();
    calls = Atomic.make 0;
    cancelled = Atomic.make false;
    state = Atomic.make None;
  }

let elapsed t = Unix.gettimeofday () -. t.t0

let live_mb () =
  let words = (Gc.quick_stat ()).Gc.heap_words in
  words * (Sys.word_size / 8) / (1024 * 1024)

let trip t r = ignore (Atomic.compare_and_set t.state None (Some r))
let tripped t = Atomic.get t.state
let cancel t = Atomic.set t.cancelled true

(* The OCaml 5 major heap does not shrink in place, so after a
   degradation frees the exact table the measured heap size can stay
   above the configured limit indefinitely.  Re-arm with headroom above
   the current heap instead: the point of degrading is that *growth*
   slows, and a further trip should mean the compressed run itself is
   outgrowing memory, not that the old high-water mark lingers. *)
let rearm t =
  match Atomic.get t.state with
  | Some (Memory _) as prev ->
      (match t.mem_mb with
      | Some limit ->
          let headroom = max 16 (limit / 2) in
          Atomic.set t.mem_dyn (max limit (live_mb () + headroom))
      | None -> ());
      ignore (Atomic.compare_and_set t.state prev None)
  | _ -> ()

(* The expensive part of a poll: only runs one call in [check_every]. *)
let probe_now t =
  if Atomic.get t.cancelled then Some Cancelled
  else
    let wall =
      match t.wall_secs with
      | Some limit when elapsed t > limit -> Some (Wall_clock limit)
      | _ -> None
    in
    match wall with
    | Some _ -> wall
    | None -> (
        let mem =
          match t.mem_mb with
          | Some limit when live_mb () > Atomic.get t.mem_dyn ->
              Some (Memory limit)
          | _ -> None
        in
        match mem with
        | Some _ -> mem
        | None -> ( match t.probe with Some f -> f () | None -> None))

let check t =
  match Atomic.get t.state with
  | Some _ as r -> r
  | None ->
      if Atomic.get t.cancelled then (
        trip t Cancelled;
        Atomic.get t.state)
      else if Atomic.fetch_and_add t.calls 1 land (t.check_every - 1) <> 0
      then None
      else
        match probe_now t with
        | Some r ->
            trip t r;
            Atomic.get t.state
        | None -> None

let install_signal_handlers t =
  let hits = Atomic.make 0 in
  let handle _ =
    if Atomic.fetch_and_add hits 1 >= 1 then exit 130 else cancel t
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

let reason_name = function
  | Wall_clock _ -> "wall-clock"
  | Memory _ -> "memory"
  | Cancelled -> "interrupted"
  | Crashed _ -> "crashed"

let pp_reason ppf = function
  | Wall_clock s ->
      Format.fprintf ppf "wall-clock budget (%gs) exhausted" s
  | Memory mb -> Format.fprintf ppf "memory budget (%d MB) exhausted" mb
  | Cancelled -> Format.fprintf ppf "interrupted"
  | Crashed msg -> Format.fprintf ppf "successor function crashed: %s" msg
