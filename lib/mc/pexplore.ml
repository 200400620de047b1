(* Parallel state counting over OCaml 5 domains.

   One work-stealing engine over a lock-striped state table ([Mc.Store],
   which also provides hash-compaction and bitstate compression).  Each
   domain owns a chunked FIFO queue of work items; owners push and pop
   at opposite ends so chunks run in discovery (near-BFS) order, and
   thieves steal the oldest half of a victim's chunks.  Stealing is
   gated on a count of active workers: a thief engages only while fewer
   workers than hardware threads are running, since oversubscription
   cannot raise throughput — it only interleaves expansions out of BFS
   order and triggers relaxation cascades.  Idle thieves block on a
   condition variable; termination is detected with a global
   pending-chunk counter whose final decrement broadcasts the wake-up.

   The engine only counts.  It keeps no state vector, adjacency or
   parent links — the store's keys are the only state identities it
   holds, so a compressed store shrinks what the run keeps.  Witnesses
   and state graphs come from the sequential [Explore], which keeps
   every state anyway.

   Truncation contract: items carry BFS depth stamps that are *relaxed*
   (re-enqueued) whenever a shorter path is found, so the canonical
   first [max_states] states — a prefix of complete BFS levels plus part
   of the boundary level — are always interned and expanded, and the
   count and completeness flag at the bound are [Explore.count]'s.  A
   state is only skipped when its stamped depth exceeds the adaptive
   cutoff (the smallest depth whose cumulative stamped-state count
   reaches the bound).  Stamped depths only over-approximate true BFS
   depths and per-depth counters are decremented before incremented on
   relaxation, so the computed cutoff never drops below the true
   boundary level. *)

type stats = {
  states : int;
  transitions : int;
  wall_seconds : float;
  states_per_sec : float;
  peak_frontier : int;
  depth_histogram : int array;
  shard_occupancy : int array;
  domains_used : int;
  steals : int;
  relaxations : int;
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
     depth %d, peak frontier %d, shard occupancy %d..%d over %d shards@,\
     %d steals, %d relaxations; store %a%a@]"
    s.states s.transitions s.wall_seconds s.states_per_sec s.domains_used
    (Array.length s.depth_histogram - 1)
    s.peak_frontier occ_min occ_max
    (Array.length s.shard_occupancy)
    s.steals s.relaxations Store.pp_coverage s.coverage pp_resilience s

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

(* --- concurrent chunked counters ---------------------------------------- *)

(* Chunked vector of atomic counters indexed by depth (relaxation depth
   adjustments).  Chunks are installed with a CAS on the spine, so
   concurrent writers never lose updates and never resize-copy.  Reads
   of untouched chunks return 0 without installing the chunk, so
   post-run scans over sparse vectors allocate nothing. *)
module Avec = struct
  let chunk_bits = 13
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1
  let max_chunks = 4096

  type t = int Atomic.t array option Atomic.t array

  let create () : t = Array.init max_chunks (fun _ -> Atomic.make None)

  let slot (t : t) i =
    let ci = i lsr chunk_bits in
    let c =
      match Atomic.get t.(ci) with
      | Some c -> c
      | None ->
          let c = Array.init chunk_size (fun _ -> Atomic.make 0) in
          if Atomic.compare_and_set t.(ci) None (Some c) then c
          else begin
            match Atomic.get t.(ci) with Some c -> c | None -> assert false
          end
    in
    c.(i land chunk_mask)

  let incr t i = Atomic.incr (slot t i)
  let decr t i = Atomic.decr (slot t i)

  let get (t : t) i =
    match Atomic.get t.(i lsr chunk_bits) with
    | None -> 0
    | Some c -> Atomic.get c.(i land chunk_mask)
end

(* Chunked atomic bit set (per-pid expansion flags): 62 flags per word
   and small word chunks, so the whole structure costs a few hundred
   boxed atomics rather than one per state. *)
module Aflags = struct
  let bits_per_word = 62
  let chunk_bits = 8 (* 256 words = 15872 flags per chunk *)
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1
  let max_chunks = 4096

  type t = int Atomic.t array option Atomic.t array

  let create () : t = Array.init max_chunks (fun _ -> Atomic.make None)

  let word (t : t) w =
    let ci = w lsr chunk_bits in
    let c =
      match Atomic.get t.(ci) with
      | Some c -> c
      | None ->
          let c = Array.init chunk_size (fun _ -> Atomic.make 0) in
          if Atomic.compare_and_set t.(ci) None (Some c) then c
          else begin
            match Atomic.get t.(ci) with Some c -> c | None -> assert false
          end
    in
    c.(w land chunk_mask)

  (* Set flag [i]; true iff this caller flipped it. *)
  let claim t i =
    let s = word t (i / bits_per_word) in
    let bit = 1 lsl (i mod bits_per_word) in
    let rec go () =
      let cur = Atomic.get s in
      if cur land bit <> 0 then false
      else if Atomic.compare_and_set s cur (cur lor bit) then true
      else go ()
    in
    go ()

  let mem (t : t) i =
    let w = i / bits_per_word in
    match Atomic.get t.(w lsr chunk_bits) with
    | None -> false
    | Some c ->
        Atomic.get c.(w land chunk_mask) land (1 lsl (i mod bits_per_word)) <> 0
end

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

(* --- per-domain chunked deques ------------------------------------------ *)

(* A FIFO queue of chunks (two-stack representation).  Both the owner and
   thieves consume from the oldest end: oldest chunks hold the
   BFS-shallowest states, so draining them first keeps the processing
   order close to breadth-first.  That matters beyond fairness — states
   are depth-stamped at intern time, and a near-BFS order means almost
   every state is first reached at its minimal depth, so the relaxation
   path (re-stamp + re-expand) stays cold.  A LIFO (depth-first) owner
   order re-expands more states than the space contains on diamond-heavy
   graphs.  Thieves take the oldest half of the chunks (steal-half): the
   shallowest and hence largest remaining subtrees. *)
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

  (* [ifresh] records whether the item comes from a [Fresh] intern (as
     opposed to a relaxation re-enqueue): in runs where no item is ever
     skipped it identifies the unique first expansion of the state
     without touching the shared [expanded] bitset.  [iattempt] counts
     quarantine retries: an item whose expansion raised is re-enqueued
     once on a neighbouring domain with [iattempt = 1]; a second raise
     records the state as unrecoverable. *)
  type item = {
    ipid : int;
    ist : S.state;
    idepth : int;
    ifresh : bool;
    iattempt : int;
  }

  (* Per-domain depth histogram for first-time interns: a plain growable
     int array written only by the owning domain.  The counters are
     monotone (fresh states only), so a racing reader sees values no
     larger than the truth — cumulative scans can only under-count,
     which keeps the truncation cutoff safe (see [refresh_cutoff]). *)
  type dhist = { mutable counts : int array; mutable mdepth : int }

  let dh_create () = { counts = Array.make 64 0; mdepth = 0 }

  let dh_incr dh d =
    let n = Array.length dh.counts in
    if d >= n then begin
      let a = Array.make (max (2 * n) (d + 1)) 0 in
      Array.blit dh.counts 0 a 0 n;
      dh.counts <- a
    end;
    dh.counts.(d) <- dh.counts.(d) + 1;
    if d > dh.mdepth then dh.mdepth <- d

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
    w_relax : int Atomic.t;
    edges : int Atomic.t;
    dhists : dhist array;  (* per-domain first-intern depth counts *)
    depth_adjust : Avec.t;  (* global +/- adjustments from relaxations *)
    expanded : Aflags.t;
    bound_cut : int Atomic.t;  (* adaptive truncation cutoff; sticky min *)
    emax : int;  (* effective state bound, >= 1 *)
    bounded : bool;
    skipped : item list ref array;  (* items the cutoff kept unexpanded *)
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
    claims : bool;  (* track first expansions via the [expanded] bitset *)
  }

  (* The count of states stamped depth [d]: per-domain monotone fresh
     counts plus the (seq-cst) relaxation adjustments. *)
  let depth_count ws d =
    let c = ref (Avec.get ws.depth_adjust d) in
    Array.iter
      (fun dh ->
        let a = dh.counts in
        if d < Array.length a then c := !c + a.(d))
      ws.dhists;
    !c

  (* Smallest depth whose cumulative stamped-state count reaches the
     bound.  Relaxation adjustments are decremented before incremented
     (and the scan reads shallow depths first), and the per-domain fresh
     counters are monotone, so concurrent reads only under-count and the
     published (sticky-min) cutoff never drops below the true boundary
     level. *)
  let refresh_cutoff ws =
    let md =
      Array.fold_left (fun m dh -> max m dh.mdepth) 0 ws.dhists
    in
    let acc = ref 0 and d = ref 0 and cut = ref max_int in
    while !cut = max_int && !d <= md do
      acc := !acc + depth_count ws !d;
      if !acc >= ws.emax then cut := !d;
      incr d
    done;
    if !cut < max_int then atomic_min ws.bound_cut !cut

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
    let dh = ws.dhists.(k) in
    (* Fresh items accumulate in a fixed buffer (in discovery order, so
       a flushed chunk runs in near-BFS order with no reversal) and
       first-expansion successor counts in a plain local counter,
       published once when the worker exits. *)
    let dummy =
      { ipid = 0; ist = S.initial; idepth = 0; ifresh = false; iattempt = 0 }
    in
    let buf = Array.make chunk_cap dummy in
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
    let skipped = ws.skipped.(k) in
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
    let cutoff () =
      if not ws.bounded then max_int
      else begin
        if St.total ws.tbl >= ws.emax then refresh_cutoff ws;
        Atomic.get ws.bound_cut
      end
    in
    let expand it =
      (* The [expanded] bitset is only consulted when items can be
         skipped (truncation cutoff or budget); otherwise every item is
         expanded exactly once per enqueue and [ifresh] already
         identifies the first expansion, with no shared CAS. *)
      let first =
        if ws.claims then Aflags.claim ws.expanded it.ipid else it.ifresh
      in
      let d' = it.idepth + 1 in
      let intern1 n (_, s') =
        (match St.intern ws.tbl s' ~depth:d' with
        | St.Fresh j ->
            dh_incr dh d';
            enqueue
              { ipid = j; ist = s'; idepth = d'; ifresh = true; iattempt = 0 }
        | St.Known _ -> ()
        | St.Relaxed (j, old) ->
            Atomic.incr ws.w_relax;
            (* decrement before increment: concurrent cutoff scans
               may only under-count, keeping the cutoff safe *)
            Avec.decr ws.depth_adjust old;
            Avec.incr ws.depth_adjust d';
            enqueue
              {
                ipid = j;
                ist = s';
                idepth = d';
                ifresh = false;
                iattempt = 0;
              });
        n + 1
      in
      let n = List.fold_left intern1 0 (S.successors it.ist) in
      if first then edges_acc := !edges_acc + n
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
      if not (ws_stopping ws) then
        if it.idepth <= cutoff () then (try expand it with e -> quarantine it e)
        else skipped := it :: !skipped
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
           more workers than cores cannot raise throughput — it only
           interleaves expansions out of BFS order, inflating depth
           stamps and triggering relaxation re-expansion cascades, and
           it stalls minor-GC safepoints on descheduled domains. *)
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
        w_relax = Atomic.make 0;
        edges = Atomic.make 0;
        dhists = Array.init domains (fun _ -> dh_create ());
        depth_adjust = Avec.create ();
        expanded = Aflags.create ();
        bound_cut = Atomic.make max_int;
        emax = max 1 max_states;
        bounded = max_states < max_int;
        skipped = Array.init domains (fun _ -> ref []);
        domains;
        budget;
        degrade_ok;
        degrade_m = Mutex.create ();
        degraded = [];
        bottom = Atomic.make false;
        retries = Atomic.make 0;
        crash_m = Mutex.create ();
        crashes = [];
        (* a run that can skip items (cutoff or budget) needs exact
           first-expansion tracking *)
        claims = max_states < max_int || budget <> None;
      }
    in
    let pid0 =
      match St.intern tbl S.initial ~depth:0 with
      | St.Fresh pid | St.Known pid | St.Relaxed (pid, _) -> pid
    in
    dh_incr ws.dhists.(0) 0;
    Atomic.incr ws.pending;
    Deque.push ws.deques.(0)
      [|
        {
          ipid = pid0;
          ist = S.initial;
          idepth = 0;
          ifresh = true;
          iattempt = 0;
        };
      |];
    run_domains domains (ws_worker ws);
    ws

  (* Post-barrier closure check: does some never-expanded (skipped) state
     have a successor outside the table?  Mirrors the sequential
     [dropped] flag when the interned total sits exactly at the bound. *)
  let ws_dropped ws =
    let tracks = St.tracks_pids ws.tbl in
    let seen = Hashtbl.create 64 in
    let dropped = ref false in
    Array.iter
      (fun lst ->
        List.iter
          (fun it ->
            if
              (not !dropped)
              && not (Aflags.mem ws.expanded it.ipid)
              && not (Hashtbl.mem seen it.ipid)
            then begin
              Hashtbl.add seen it.ipid ();
              if not tracks then dropped := true
              else
                List.iter
                  (fun (_, s') ->
                    if St.find_pid ws.tbl s' < 0 then dropped := true)
                  (S.successors it.ist)
            end)
          !lst)
      ws.skipped;
    !dropped

  (* States per stamped depth.  The deepest fresh stamp bounds the
     scan, but relaxation never lowers it, so the bins past the deepest
     surviving stamp are empty and are trimmed: on a complete unbounded
     run every stamp is the state's BFS depth and the histogram equals
     the canonical level sizes. *)
  let ws_histogram ws =
    let md =
      Array.fold_left (fun m dh -> max m dh.mdepth) 0 ws.dhists
    in
    let h = Array.init (md + 1) (fun d -> depth_count ws d) in
    let n = ref (md + 1) in
    while !n > 1 && h.(!n - 1) = 0 do
      decr n
    done;
    Array.sub h 0 !n

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

  let count ?budget ~degrade_ok ~max_states ~domains ~store_mode () =
    let t0 = Unix.gettimeofday () in
    let ws = explore ?budget ~degrade_ok ~max_states ~domains ~store_mode () in
    let total = St.total ws.tbl in
    let n = max 1 (min total max_states) in
    let exhausted = ws_exhausted ws in
    let complete =
      exhausted = None && total <= max 1 max_states && not (ws_dropped ws)
    in
    let histogram = ws_histogram ws in
    let wall = Unix.gettimeofday () -. t0 in
    ( (n, complete),
      {
        states = n;
        transitions = Atomic.get ws.edges;
        wall_seconds = wall;
        states_per_sec = (if wall > 0. then float_of_int n /. wall else 0.);
        peak_frontier = Array.fold_left max 0 histogram;
        depth_histogram = histogram;
        shard_occupancy = St.occupancy ws.tbl;
        domains_used = ws.domains;
        steals = Atomic.get ws.w_steals;
        relaxations = Atomic.get ws.w_relax;
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
