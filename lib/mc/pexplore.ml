(* Parallel state counting over OCaml 5 domains.

   One work-stealing engine over a lock-striped state table ([Mc.Store],
   which also provides hash-compaction and bitstate compression).  Each
   domain owns a chunked FIFO queue of work items; owners push and pop
   at opposite ends so chunks run in discovery (near-BFS) order, and
   thieves steal the oldest half of a victim's chunks.  Stealing is
   gated on a count of active workers: a thief engages only while fewer
   workers than hardware threads are running, since oversubscription
   cannot raise throughput.  Idle thieves block on a condition
   variable; termination is detected with a global pending-chunk
   counter whose final decrement broadcasts the wake-up.

   The engine only counts.  It keeps no state vector, adjacency or
   parent links — the store's keys are the only state identities it
   holds, so a compressed store shrinks what the run keeps.  Witnesses
   and state graphs come from the sequential [Explore], which keeps
   every state anyway.

   Truncation contract: a state is enqueued once, when its intern is
   fresh, and only if its id is below the bound [max 1 max_states].
   The store's ids are dense, so every state with an id below the bound
   is expanded, and when the reachable space is larger than the bound
   some successor gets an id at or past it.  The count at the bound is
   therefore [min total bound] and the run is complete iff no such id
   was handed out: [Explore.count]'s pair, whichever states were kept
   and whatever the domain count. *)

type stats = {
  states : int;
  transitions : int;
  wall_seconds : float;
  states_per_sec : float;
  shard_occupancy : int array;
  domains_used : int;
  steals : int;
  coverage : Store.coverage;
  exhausted : Budget.reason option;
  degraded : string list;
  retries : int;
}

let pp_resilience ppf s =
  (match s.exhausted with
  | Some r -> Format.fprintf ppf "@,exhausted: %a" Budget.pp_reason r
  | None -> ());
  if s.degraded <> [] then
    Format.fprintf ppf "@,store degraded in place: %s"
      (String.concat " -> " s.degraded);
  if s.retries > 0 then
    Format.fprintf ppf "@,%d poisoned item(s) quarantined and retried"
      s.retries

let pp_stats ppf s =
  let occ_min, occ_max =
    Array.fold_left
      (fun (mn, mx) o -> (min mn o, max mx o))
      (max_int, 0) s.shard_occupancy
  in
  Format.fprintf ppf
    "@[<v>%d states, %d transitions in %.3fs (%.0f states/s, %d domains)@,\
     shard occupancy %d..%d over %d shards@,\
     %d steals; store %a%a@]"
    s.states s.transitions s.wall_seconds s.states_per_sec s.domains_used
    occ_min occ_max
    (Array.length s.shard_occupancy)
    s.steals Store.pp_coverage s.coverage pp_resilience s

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Lock stripes of the state table. *)
let shards = 64

(* Work items per deque chunk. *)
let chunk_cap = 128

(* --- domains -------------------------------------------------------------- *)

(* Run [job k] for every [k] in [0, n): the caller takes 0, fresh domains
   the rest.  Returns when all are done, re-raising the first failure
   (the caller's, then in member order). *)
let run_domains n job =
  let members =
    Array.init (n - 1) (fun k -> Domain.spawn (fun () -> job (k + 1)))
  in
  let outcome f = match f () with () -> None | exception e -> Some e in
  let first = outcome (fun () -> job 0) in
  let rest = Array.map (fun d -> outcome (fun () -> Domain.join d)) members in
  let failure =
    Array.fold_left
      (fun acc f -> match acc with None -> f | Some _ -> acc)
      first rest
  in
  Option.iter raise failure

(* --- per-domain chunked deques ------------------------------------------ *)

(* A FIFO queue of chunks (two-stack representation).  Both the owner and
   thieves consume from the oldest end, so each domain expands its
   states in discovery (near-BFS) order.  The oldest chunks hold the
   shallowest states, hence the largest remaining subtrees: a thief
   takes the oldest half of the chunks (steal-half), so one steal moves
   the most work per lock. *)
module Deque = struct
  type 'a t = {
    mutable front : 'a array list;  (* oldest first *)
    mutable back : 'a array list;  (* newest first *)
    lock : Mutex.t;
  }

  let create () = { front = []; back = []; lock = Mutex.create () }

  let push d c =
    Mutex.lock d.lock;
    d.back <- c :: d.back;
    Mutex.unlock d.lock

  let pop d =
    Mutex.lock d.lock;
    if d.front = [] then begin
      d.front <- List.rev d.back;
      d.back <- []
    end;
    let r =
      match d.front with
      | [] -> None
      | c :: rest ->
          d.front <- rest;
          Some c
    in
    Mutex.unlock d.lock;
    r

  let steal_half d =
    Mutex.lock d.lock;
    let all = d.front @ List.rev d.back in
    let r =
      match all with
      | [] -> []
      | chunks ->
          let n = List.length chunks in
          let take = n - (n / 2) in
          let rec split i l =
            if i = 0 then ([], l)
            else
              match l with
              | [] -> ([], [])
              | c :: tl ->
                  let stolen, kept = split (i - 1) tl in
                  (c :: stolen, kept)
          in
          let stolen, kept = split take chunks in
          d.front <- kept;
          d.back <- [];
          stolen
    in
    Mutex.unlock d.lock;
    r
end

(* --- the engine, functorised over the system ---------------------------- *)

module Engine (S : System.S) = struct
  module St = Store.Make (struct
    type t = S.state

    let equal = S.equal_state
    let hash = S.hash_state
  end)

  (* [iattempt] counts quarantine retries: an item whose expansion
     raised is re-enqueued once on a neighbouring domain with
     [iattempt = 1]; a second raise records the state as
     unrecoverable. *)
  type item = { ist : S.state; iattempt : int }

  type ws = {
    tbl : St.t;
    deques : item Deque.t array;
    pending : int Atomic.t;  (* chunks queued or in flight, incl. buffers *)
    running : int Atomic.t;  (* workers currently holding work *)
    hw : int;  (* hardware parallelism: cap on concurrently active workers *)
    idle_m : Mutex.t;  (* guards [idle_c]; wakers lock it before signalling *)
    idle_c : Condition.t;  (* idle thieves block here, no polling *)
    waiters : int Atomic.t;  (* thieves blocked (or about to block) on idle_c *)
    failed : bool Atomic.t;
    w_steals : int Atomic.t;
    edges : int Atomic.t;
    emax : int;  (* effective state bound, >= 1: ids below it are expanded *)
    domains : int;
    (* --- resilience ----------------------------------------------- *)
    budget : Budget.t option;
    degrade_ok : bool;  (* memory trips walk the store down the ladder *)
    degrade_m : Mutex.t;  (* serialises degradation; guards [degraded] *)
    mutable degraded : string list;  (* ladder rungs taken, in order *)
    bottom : bool Atomic.t;  (* the ladder has no rung left *)
    retries : int Atomic.t;  (* poisoned items quarantined and retried *)
    crash_m : Mutex.t;  (* guards [crashes] *)
    mutable crashes : (item * string) list;  (* unrecoverable items *)
  }

  (* Memory-budget trip: one worker wins the degradation lock, walks the
     store a rung down the ladder and re-arms the budget; everyone else
     carries on against the swapped representation.  At the bottom of
     the ladder the trip stays sticky and the run stops ([bottom]). *)
  let try_degrade ws b =
    Mutex.lock ws.degrade_m;
    Fun.protect ~finally:(fun () -> Mutex.unlock ws.degrade_m) @@ fun () ->
    match Budget.tripped b with
    | Some (Budget.Memory _) -> (
        match St.degrade ws.tbl with
        | Some mode ->
            ws.degraded <- ws.degraded @ [ Store.mode_name mode ];
            (* a major cycle lets the freed exact table actually go away
               before the budget re-arms against the current heap *)
            Gc.compact ();
            Budget.rearm b
        | None -> Atomic.set ws.bottom true)
    | _ -> ()

  let budget_tick ws =
    match ws.budget with
    | None -> ()
    | Some b -> (
        match Budget.check b with
        | Some (Budget.Memory _) when ws.degrade_ok -> try_degrade ws b
        | _ -> ())

  (* A trip that will not be re-armed means the run is stopping: workers
     drain their queues without expanding, and the reason makes the
     count incomplete.  A memory trip the ladder can still answer is no
     stop: until [try_degrade] re-arms the budget, the other workers keep
     expanding, since whatever they dropped in that window would be
     missing from a count reported complete. *)
  let ws_stopping ws =
    match ws.budget with
    | None -> false
    | Some b -> (
        match Budget.tripped b with
        | None -> false
        | Some (Budget.Memory _) ->
            (not ws.degrade_ok) || Atomic.get ws.bottom
        | Some _ -> true)

  let ws_worker ws k =
    let my = ws.deques.(k) in
    (* Fresh items accumulate in a fixed buffer (in discovery order, so
       a flushed chunk runs in near-BFS order with no reversal) and
       successor counts in a plain local counter, published once when
       the worker exits. *)
    let buf = Array.make chunk_cap { ist = S.initial; iattempt = 0 } in
    let fill_n = ref 0 in
    let edges_acc = ref 0 in
    (* [pending] counts chunks (queued or in flight) rather than items,
       so the termination counter is touched a couple of times per
       [chunk_cap] items instead of twice per item.  A non-empty fill
       buffer holds one token ([buffered]); flushing transfers that
       token to the pushed chunk, and a chunk's token is released only
       after every item in it has been processed — so [pending] can hit
       zero only when no work exists anywhere. *)
    let buffered = ref false in
    let flush () =
      if !fill_n > 0 then begin
        (* the buffer's pending token transfers to the pushed chunk *)
        Deque.push my (Array.sub buf 0 !fill_n);
        fill_n := 0;
        buffered := false;
        (* wake a blocked thief only when a core is actually idle; a
           missed race here is harmless (this worker is active and will
           process its own push; the thief wakes at the next signal or
           at termination) *)
        if Atomic.get ws.waiters > 0 && Atomic.get ws.running < ws.hw then begin
          Mutex.lock ws.idle_m;
          Condition.signal ws.idle_c;
          Mutex.unlock ws.idle_m
        end
      end
    in
    let enqueue it =
      if not !buffered then begin
        Atomic.incr ws.pending;
        buffered := true
      end;
      buf.(!fill_n) <- it;
      incr fill_n;
      if !fill_n >= chunk_cap then flush ()
    in
    (* Each state is enqueued once, on its fresh intern, so each
       successful expansion is its state's only one; a fresh id at or
       past the bound is interned but never expanded. *)
    let expand it =
      let succs = S.successors it.ist in
      List.iter
        (fun (_, s') ->
          match St.intern ws.tbl s' ~depth:0 with
          | St.Fresh j when j < ws.emax -> enqueue { ist = s'; iattempt = 0 }
          | St.Fresh _ | St.Known -> ())
        succs;
      edges_acc := !edges_acc + List.length succs
    in
    (* A raising successor (or hash/equal) must not take the whole run
       down: the first failure re-enqueues the item on the next domain
       after an exponential backoff — transient failures (e.g. a
       resource blip in an effectful successor) clear on retry — and a
       second failure records the state as unrecoverable.  Either way
       the chunk finishes and the pending-token protocol stays
       balanced, so termination detection still works. *)
    let quarantine it e =
      if it.iattempt = 0 then begin
        Atomic.incr ws.retries;
        Unix.sleepf (0.001 *. (2. ** float_of_int (it.iattempt + 1)));
        Atomic.incr ws.pending;
        Deque.push
          ws.deques.((k + 1) mod ws.domains)
          [| { it with iattempt = 1 } |];
        if Atomic.get ws.waiters > 0 then begin
          Mutex.lock ws.idle_m;
          Condition.signal ws.idle_c;
          Mutex.unlock ws.idle_m
        end
      end
      else begin
        Mutex.lock ws.crash_m;
        ws.crashes <- (it, Printexc.to_string e) :: ws.crashes;
        Mutex.unlock ws.crash_m
      end
    in
    let process it =
      if not (ws_stopping ws) then try expand it with e -> quarantine it e
    in
    let run_chunk c =
      budget_tick ws;
      Array.iter process c;
      (* release the chunk's token only once every item has run; the
         worker that drops the count to zero announces termination (the
         broadcast is taken under [idle_m], and thieves re-check the
         predicate under the same lock, so the wake-up cannot be lost) *)
      if Atomic.fetch_and_add ws.pending (-1) = 1 then begin
        Mutex.lock ws.idle_m;
        Condition.broadcast ws.idle_c;
        Mutex.unlock ws.idle_m
      end
    in
    (* [running] counts workers between go-active and go-idle edges, so
       it never dips transiently to zero while a worker still holds
       work — the steal gate below relies on that. *)
    let rec main () =
      if not (Atomic.get ws.failed) then
        match Deque.pop my with
        | Some c ->
            run_chunk c;
            main ()
        | None ->
            if !fill_n > 0 then begin
              let c = Array.sub buf 0 !fill_n in
              fill_n := 0;
              (* the buffer token now covers the in-flight chunk *)
              buffered := false;
              run_chunk c;
              main ()
            end
            else begin
              (* go idle: this worker holds no work from here on *)
              Atomic.decr ws.running;
              try_steal 0
            end
    and try_steal backoff =
      if (not (Atomic.get ws.failed)) && Atomic.get ws.pending > 0 then begin
        let got = ref None in
        (* Steal only when a hardware thread is actually idle: engaging
           more workers than cores cannot raise throughput, and it
           stalls minor-GC safepoints on descheduled domains. *)
        let gate_open = Atomic.get ws.running < ws.hw in
        if gate_open then
          for i = 1 to ws.domains - 1 do
            if !got = None then begin
              match Deque.steal_half ws.deques.((k + i) mod ws.domains) with
              | [] -> ()
              | c :: rest ->
                  Atomic.incr ws.w_steals;
                  List.iter (Deque.push my) rest;
                  got := Some c
            end
          done;
        match !got with
        | Some c ->
            Atomic.incr ws.running;
            run_chunk c;
            main ()
        | None ->
            (* Nothing to take: spin briefly for latency, then block on
               the condition variable.  Wakers: a flush while a core is
               idle, the pending counter reaching zero, and failure.
               No polling — on oversubscribed hosts idle thieves cost
               nothing, and termination wakes them instantly. *)
            if backoff < 2 then begin
              Domain.cpu_relax ();
              try_steal (backoff + 1)
            end
            else begin
              Atomic.incr ws.waiters;
              Mutex.lock ws.idle_m;
              if Atomic.get ws.pending > 0 && not (Atomic.get ws.failed) then
                Condition.wait ws.idle_c ws.idle_m;
              Mutex.unlock ws.idle_m;
              Atomic.decr ws.waiters;
              try_steal 0
            end
      end
    in
    Atomic.incr ws.running;
    Fun.protect ~finally:(fun () ->
        ignore (Atomic.fetch_and_add ws.edges !edges_acc))
    @@ fun () ->
    try main ()
    with e ->
      Atomic.set ws.failed true;
      (* release any thieves blocked on the idle condition *)
      Mutex.lock ws.idle_m;
      Condition.broadcast ws.idle_c;
      Mutex.unlock ws.idle_m;
      raise e

  (* Run the engine to termination from the initial state.  The stripes
     start at 512 states each and grow. *)
  let explore ?budget ~degrade_ok ~max_states ~domains ~store_mode () =
    if domains < 1 then invalid_arg "Mc.Pexplore: domains must be >= 1";
    if max_states < 0 then invalid_arg "Mc.Pexplore: negative max_states";
    let tbl = St.create ~expected:(512 * shards) ~shards store_mode in
    let ws =
      {
        tbl;
        deques = Array.init domains (fun _ -> Deque.create ());
        pending = Atomic.make 0;
        running = Atomic.make 0;
        hw = max 1 (Domain.recommended_domain_count ());
        idle_m = Mutex.create ();
        idle_c = Condition.create ();
        waiters = Atomic.make 0;
        failed = Atomic.make false;
        w_steals = Atomic.make 0;
        edges = Atomic.make 0;
        emax = max 1 max_states;
        domains;
        budget;
        degrade_ok;
        degrade_m = Mutex.create ();
        degraded = [];
        bottom = Atomic.make false;
        retries = Atomic.make 0;
        crash_m = Mutex.create ();
        crashes = [];
      }
    in
    ignore (St.intern tbl S.initial ~depth:0);
    Atomic.incr ws.pending;
    Deque.push ws.deques.(0) [| { ist = S.initial; iattempt = 0 } |];
    run_domains domains (ws_worker ws);
    ws

  (* Why the run fell short of a full count, if it did: an unrecoverable
     crash (the first state whose expansion raised twice) outranks the
     budget trip it may have caused. *)
  let ws_exhausted ws =
    match List.rev ws.crashes with
    | (it, msg) :: _ ->
        Some
          (Budget.Crashed
             (Format.asprintf "%s at state %a" msg S.pp_state it.ist))
    | [] -> Option.bind ws.budget Budget.tripped

  (* An id at or past the bound was handed out iff the total passed it
     (ids are dense): that state was interned but never expanded. *)
  let count ?budget ~degrade_ok ~max_states ~domains ~store_mode () =
    let t0 = Unix.gettimeofday () in
    let ws = explore ?budget ~degrade_ok ~max_states ~domains ~store_mode () in
    let total = St.total ws.tbl in
    let n = min total ws.emax in
    let exhausted = ws_exhausted ws in
    let complete = exhausted = None && total <= ws.emax in
    let wall = Unix.gettimeofday () -. t0 in
    ( (n, complete),
      {
        states = n;
        transitions = Atomic.get ws.edges;
        wall_seconds = wall;
        states_per_sec = (if wall > 0. then float_of_int n /. wall else 0.);
        shard_occupancy = St.occupancy ws.tbl;
        domains_used = ws.domains;
        steals = Atomic.get ws.w_steals;
        coverage = St.coverage ws.tbl;
        exhausted;
        degraded = ws.degraded;
        retries = Atomic.get ws.retries;
      } )
end

(* --- public entry point -------------------------------------------------- *)

let count_stats (type s l) ?(max_states = Explore.default_max) ?domains
    ?(store = Store.Exact) ?budget ?(degrade = true) (sys : (s, l) System.t) :
    (int * bool) * stats =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let module E = Engine ((val sys)) in
  E.count ?budget ~degrade_ok:degrade ~max_states ~domains ~store_mode:store ()
