(* Parallel explicit-state exploration over OCaml 5 domains.

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
   Because items carry BFS depth stamps that are *relaxed* (re-enqueued)
   whenever a shorter path is found, the set of states interned within
   the [max_states] bound is exactly the sequential one, and a final
   sequential *replay* over the collected integer adjacency renumbers
   states in canonical sequential discovery order, re-applying the exact
   truncation gate of [Explore.space].  A run that finished with zero
   steals and zero relaxations processed items in exact sequential BFS
   order, so its provisional numbering is already canonical and the
   replay is skipped as an identity.  Results are byte-identical to the
   sequential engine for every domain count.

   Truncation contract: the canonical first [max_states] states — a
   prefix of complete BFS levels plus part of the boundary level — are
   always interned and their adjacency recorded, so the replay can cut
   exactly where the sequential engine would have.  A state is only
   skipped when its stamped depth exceeds the adaptive cutoff (the
   smallest depth whose cumulative stamped-state count reaches the
   bound).  Stamped depths only over-approximate true BFS depths and
   per-depth counters are decremented before incremented on relaxation,
   so the computed cutoff never drops below the true boundary level:
   every state the sequential engine retains is interned and expanded
   here too. *)

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

(* --- concurrent growable vectors ---------------------------------------- *)

(* Chunked vector indexed by dense provisional id.  Chunks are installed
   with a CAS on the spine, so concurrent writers at distinct indices
   never lose writes and never resize-copy.  Post-barrier readers see
   every write made before the exploration joined. *)
module Pvec = struct
  let chunk_bits = 13
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1
  let max_chunks = 4096

  type 'a t = { spine : 'a array option Atomic.t array; init : unit -> 'a }

  let create_init init =
    { spine = Array.init max_chunks (fun _ -> Atomic.make None); init }

  let create default = create_init (fun () -> default)

  let chunk t i =
    let ci = i lsr chunk_bits in
    match Atomic.get t.spine.(ci) with
    | Some c -> c
    | None ->
        let c = Array.init chunk_size (fun _ -> t.init ()) in
        if Atomic.compare_and_set t.spine.(ci) None (Some c) then c
        else begin
          match Atomic.get t.spine.(ci) with
          | Some c -> c
          | None -> assert false
        end

  let set t i v = (chunk t i).(i land chunk_mask) <- v
  let get t i = (chunk t i).(i land chunk_mask)
end

(* Chunked vector of atomic counters (relaxation depth adjustments).
   Reads of untouched chunks return 0 without installing the chunk, so
   post-run scans over sparse vectors allocate nothing. *)
module Avec = struct
  type t = int Atomic.t array option Atomic.t array

  let create () : t = Array.init Pvec.max_chunks (fun _ -> Atomic.make None)

  let slot (t : t) i =
    let ci = i lsr Pvec.chunk_bits in
    let c =
      match Atomic.get t.(ci) with
      | Some c -> c
      | None ->
          let c = Array.init Pvec.chunk_size (fun _ -> Atomic.make 0) in
          if Atomic.compare_and_set t.(ci) None (Some c) then c
          else begin
            match Atomic.get t.(ci) with Some c -> c | None -> assert false
          end
    in
    c.(i land Pvec.chunk_mask)

  let incr t i = Atomic.incr (slot t i)
  let decr t i = Atomic.decr (slot t i)

  let get (t : t) i =
    match Atomic.get t.(i lsr Pvec.chunk_bits) with
    | None -> 0
    | Some c -> Atomic.get c.(i land Pvec.chunk_mask)
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

  let make_table ?expected_states mode =
    (* The stripes start at 512 states each and grow; an expected-state
       hint may lower that start (states shard by hash, so the per-shard
       load is count / shards), never raise it. *)
    let expected =
      match expected_states with
      | None -> 512 * shards
      | Some n -> min (512 * shards) n
    in
    St.create ~expected ~shards mode

  (* --- canonical replay ------------------------------------------------ *)

  type replay_result = {
    r_pid_of : int array;  (* canonical index -> provisional id *)
    r_count : int;
    r_trans : (int * S.label * int) list;
    r_complete : bool;
    r_levels : int array;  (* retained states per canonical BFS level *)
  }

  (* Renumber provisional ids in sequential BFS discovery order and
     re-apply the exact truncation gate of [Explore.space].  [adj] maps a
     provisional id to its recorded successor cells. *)
  let replay ~max_states ~emit ~total ~adj () =
    let canon = Array.make (max 1 total) (-1) in
    let cap = max 1 (min total (max max_states 1)) in
    let pid_of = Array.make cap (-1) in
    let depth_of = Array.make cap 0 in
    let count = ref 0 in
    let complete = ref true in
    let trans = ref [] in
    let intern pid depth =
      if canon.(pid) >= 0 then canon.(pid)
      else begin
        let c = !count in
        canon.(pid) <- c;
        pid_of.(c) <- pid;
        depth_of.(c) <- depth;
        incr count;
        c
      end
    in
    let (_ : int) = intern 0 0 in
    let c = ref 0 in
    while !c < !count do
      let pid = pid_of.(!c) in
      let d = depth_of.(!c) in
      Array.iter
        (fun (l, dst) ->
          if dst >= 0 && (!count < max_states || canon.(dst) >= 0) then begin
            let j = intern dst (d + 1) in
            if emit then trans := (!c, l, j) :: !trans
          end
          else complete := false)
        (adj pid);
      incr c
    done;
    let levels =
      if !count = 0 then [||]
      else begin
        let a = Array.make (depth_of.(!count - 1) + 1) 0 in
        for i = 0 to !count - 1 do
          a.(depth_of.(i)) <- a.(depth_of.(i)) + 1
        done;
        a
      end
    in
    {
      r_pid_of = pid_of;
      r_count = !count;
      r_trans = List.rev !trans;
      r_complete = !complete;
      r_levels = levels;
    }

  (* --- exploration ----------------------------------------------------- *)

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
    goal_cut : int Atomic.t;  (* min depth of a goal state; max_int = none *)
    bound_cut : int Atomic.t;  (* adaptive truncation cutoff; sticky min *)
    emax : int;  (* effective state bound, >= 1 *)
    bounded : bool;
    states_v : S.state Pvec.t option;
    adj_v : (S.label * int) array Pvec.t option;
    parent_v : (int * S.label * int) option Atomic.t Pvec.t option;
    goal_v : bool Pvec.t;
    skipped : item list ref array;
    goal : S.state -> bool;
    stop_on_goal : bool;
    domains : int;
    (* --- resilience ----------------------------------------------- *)
    budget : Budget.t option;
    degrade_ok : bool;  (* memory trips walk the store down the ladder *)
    degrade_m : Mutex.t;  (* serialises degradation; guards [degraded] *)
    mutable degraded : string list;  (* ladder rungs taken, in order *)
    retries : int Atomic.t;  (* poisoned items quarantined and retried *)
    crash_m : Mutex.t;  (* guards [crashes] *)
    mutable crashes : (item * string) list;  (* unrecoverable items *)
    claims : bool;  (* track first expansions via the [expanded] bitset *)
    resumed : bool;  (* seeded from a cursor: provisional order is inherited *)
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
     the ladder the trip stays sticky and the run suspends. *)
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
        | None -> ())
    | _ -> ()

  let budget_tick ws =
    match ws.budget with
    | None -> ()
    | Some b -> (
        match Budget.check b with
        | Some (Budget.Memory _) when ws.degrade_ok -> try_degrade ws b
        | _ -> ())

  (* A sticky trip (after any degradation had its chance) means the run
     is suspending: workers drain their queues into [skipped] without
     expanding, so the frontier is captured for the cursor. *)
  let ws_suspended ws =
    match ws.budget with
    | None -> false
    | Some b -> Budget.tripped b <> None

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
    let set_parent =
      match ws.parent_v with
      | None -> fun _ _ _ _ -> ()
      | Some pv ->
          fun j p l d ->
            let slot = Pvec.get pv j in
            let rec go () =
              match Atomic.get slot with
              | Some (_, _, d0) when d0 <= d -> ()
              | cur ->
                  if not (Atomic.compare_and_set slot cur (Some (p, l, d)))
                  then go ()
            in
            go ()
    in
    let expand it =
      (* The [expanded] bitset is only consulted when items can be
         skipped (truncation cutoff or goal cutoff); otherwise every
         item is expanded exactly once per enqueue and [ifresh] already
         identifies the first expansion, with no shared CAS. *)
      let first =
        if ws.claims then Aflags.claim ws.expanded it.ipid else it.ifresh
      in
      let succs = S.successors it.ist in
      let d' = it.idepth + 1 in
      let intern1 (l, s') =
        let j =
          match St.intern ws.tbl s' ~depth:d' with
          | St.Fresh j ->
              dh_incr dh d';
              (match ws.states_v with
              | Some sv -> Pvec.set sv j s'
              | None -> ());
              set_parent j it.ipid l d';
              if ws.stop_on_goal && ws.goal s' then begin
                Pvec.set ws.goal_v j true;
                atomic_min ws.goal_cut d'
              end;
              enqueue
                { ipid = j; ist = s'; idepth = d'; ifresh = true; iattempt = 0 };
              j
          | St.Known j -> j
          | St.Relaxed (j, old) ->
              Atomic.incr ws.w_relax;
              (* decrement before increment: concurrent cutoff scans
                 may only under-count, keeping the cutoff safe *)
              Avec.decr ws.depth_adjust old;
              Avec.incr ws.depth_adjust d';
              set_parent j it.ipid l d';
              if ws.stop_on_goal && Pvec.get ws.goal_v j then
                atomic_min ws.goal_cut d';
              enqueue
                {
                  ipid = j;
                  ist = s';
                  idepth = d';
                  ifresh = false;
                  iattempt = 0;
                };
              j
        in
        (l, j)
      in
      let n =
        match ws.adj_v with
        | Some av ->
            let cells = Array.of_list (List.map intern1 succs) in
            Pvec.set av it.ipid cells;
            Array.length cells
        | None ->
            List.fold_left
              (fun n c ->
                ignore (intern1 c : S.label * int);
                n + 1)
              0 succs
      in
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
      if ws_suspended ws then skipped := it :: !skipped
      else begin
        let gcut =
          if ws.stop_on_goal then Atomic.get ws.goal_cut else max_int
        in
        if it.idepth < gcut && it.idepth <= cutoff () then (
          try expand it with e -> quarantine it e)
        else skipped := it :: !skipped
      end
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

  let explore ?expected_states ?budget ?(degrade_ok = false) ?resume
      ~max_states ~domains ~store_mode ~keep_adj ~keep_states
      ~keep_parent ~goal ~stop_on_goal () =
    if domains < 1 then invalid_arg "Mc.Pexplore: domains must be >= 1";
    if max_states < 0 then invalid_arg "Mc.Pexplore: negative max_states";
    (match resume with
    | Some c when c.Explore.c_max_states <> max_states ->
        invalid_arg
          (Printf.sprintf
             "Mc.Pexplore: checkpoint was taken with max_states=%d, resumed \
              with %d"
             c.Explore.c_max_states max_states)
    | _ -> ());
    let tbl = make_table ?expected_states store_mode in
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
        goal_cut = Atomic.make max_int;
        bound_cut = Atomic.make max_int;
        emax = max 1 max_states;
        bounded = max_states < max_int;
        states_v = (if keep_states then Some (Pvec.create S.initial) else None);
        adj_v = (if keep_adj then Some (Pvec.create [||]) else None);
        parent_v =
          (if keep_parent then
             Some (Pvec.create_init (fun () -> Atomic.make None))
           else None);
        goal_v = Pvec.create false;
        skipped = Array.init domains (fun _ -> ref []);
        goal;
        stop_on_goal;
        domains;
        budget;
        degrade_ok;
        degrade_m = Mutex.create ();
        degraded = [];
        retries = Atomic.make 0;
        crash_m = Mutex.create ();
        crashes = [];
        (* suspension and resume both need exact first-expansion
           tracking, so any budget or cursor forces the bitset on *)
        claims =
          max_states < max_int || stop_on_goal || budget <> None
          || resume <> None;
        resumed = resume <> None;
      }
    in
    (match resume with
    | None ->
        let pid0 =
          match St.intern tbl S.initial ~depth:0 with
          | St.Fresh pid | St.Known pid | St.Relaxed (pid, _) -> pid
        in
        dh_incr ws.dhists.(0) 0;
        (match ws.states_v with
        | Some sv -> Pvec.set sv pid0 S.initial
        | None -> ());
        if stop_on_goal && goal S.initial then begin
          Pvec.set ws.goal_v pid0 true;
          atomic_min ws.goal_cut 0
        end;
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
          |]
    | Some c ->
        (* Rebuild the table in pid order so provisional ids match the
           cursor's, then restore adjacency, mark everything off the
           frontier as already expanded, and scatter the frontier
           round-robin over the deques. *)
        let cs = c.Explore.c_states and cd = c.Explore.c_depths in
        let n = Array.length cs in
        for i = 0 to n - 1 do
          (match St.intern tbl cs.(i) ~depth:cd.(i) with
          | St.Fresh pid when pid = i -> ()
          | St.Fresh _ | St.Known _ | St.Relaxed _ ->
              invalid_arg
                "Mc.Pexplore: resume store does not reproduce checkpoint \
                 state ids (was the store mode changed between runs?)");
          dh_incr ws.dhists.(0) cd.(i);
          (match ws.states_v with
          | Some sv -> Pvec.set sv i cs.(i)
          | None -> ());
          if stop_on_goal && goal cs.(i) then begin
            Pvec.set ws.goal_v i true;
            atomic_min ws.goal_cut cd.(i)
          end
        done;
        (match ws.adj_v with
        | Some av ->
            let by_src = Hashtbl.create 1024 in
            (* [c_trans] is newest-first, so consing while walking it
               leaves each per-source list in original emission order *)
            List.iter
              (fun (src, l, dst) ->
                let prev =
                  match Hashtbl.find_opt by_src src with
                  | Some cells -> cells
                  | None -> []
                in
                Hashtbl.replace by_src src ((l, dst) :: prev))
              c.Explore.c_trans;
            Hashtbl.iter
              (fun src cells -> Pvec.set av src (Array.of_list cells))
              by_src
        | None -> ());
        let infront = Array.make (max 1 n) false in
        Array.iter (fun i -> infront.(i) <- true) c.Explore.c_queue;
        for pid = 0 to n - 1 do
          if not infront.(pid) then
            ignore (Aflags.claim ws.expanded pid : bool)
        done;
        let nq = Array.length c.Explore.c_queue in
        let di = ref 0 in
        let i = ref 0 in
        while !i < nq do
          let len = min chunk_cap (nq - !i) in
          let base = !i in
          let chunk =
            Array.init len (fun j ->
                let pid = c.Explore.c_queue.(base + j) in
                {
                  ipid = pid;
                  ist = cs.(pid);
                  idepth = cd.(pid);
                  ifresh = false;
                  iattempt = 0;
                })
          in
          Atomic.incr ws.pending;
          Deque.push ws.deques.(!di mod domains) chunk;
          incr di;
          i := !i + len
        done);
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

  let ws_adj ws =
    match ws.adj_v with
    | Some av -> fun pid -> Pvec.get av pid
    | None -> fun _ -> [||]

  let ws_states ws =
    match ws.states_v with
    | Some sv -> fun pid -> Pvec.get sv pid
    | None -> fun _ -> S.initial

  let ws_trace ws pid =
    match ws.parent_v with
    | None -> []
    | Some pv ->
        let rec go pid acc =
          match Atomic.get (Pvec.get pv pid) with
          | None -> acc
          | Some (p, l, _) -> go p (l :: acc)
        in
        go pid []

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

  let ws_stats ?exhausted ws ~t0 ~count ~transitions ~histogram =
    let wall = Unix.gettimeofday () -. t0 in
    {
      states = count;
      transitions;
      wall_seconds = wall;
      states_per_sec = (if wall > 0. then float_of_int count /. wall else 0.);
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
    }

  (* --- suspension ------------------------------------------------------ *)

  (* The first unrecoverable crash, as a budget reason naming the state
     whose expansion raised twice. *)
  let ws_crash ws =
    match List.rev ws.crashes with
    | [] -> None
    | (it, msg) :: _ ->
        Some
          (Budget.Crashed
             (Format.asprintf "%s at state %a" msg S.pp_state it.ist))

  (* Why the run fell short of a full verdict, if it did: an
     unrecoverable crash outranks the budget trip it may have caused. *)
  let ws_exhausted ws =
    match ws_crash ws with
    | Some _ as r -> r
    | None -> (
        match ws.budget with None -> None | Some b -> Budget.tripped b)

  let ws_exhaustion ws reason =
    {
      Explore.reason;
      states_so_far = St.total ws.tbl;
      coverage = St.coverage ws.tbl;
    }

  (* Capture a suspended run as a sequential-style cursor: every interned
     state with its depth stamp, all recorded adjacency, and the
     never-expanded states (drained frontier, cutoff skips, crashed
     items) as the queue, in pid order.  Requires [keep_states] and
     [keep_adj]. *)
  let ws_cursor ws ~max_states =
    let total = St.total ws.tbl in
    let state_of = ws_states ws in
    let states = Array.init total state_of in
    let stamps = St.depths ws.tbl in
    let depths =
      Array.init total (fun i ->
          if i < Array.length stamps then stamps.(i) else 0)
    in
    let adj = ws_adj ws in
    let trans = ref [] in
    for pid = 0 to total - 1 do
      Array.iter
        (fun (l, dst) -> if dst >= 0 then trans := (pid, l, dst) :: !trans)
        (adj pid)
    done;
    let infront = Array.make (max 1 total) false in
    let frontier = ref [] in
    let add pid =
      if pid >= 0 && pid < total && not infront.(pid) then begin
        infront.(pid) <- true;
        frontier := pid :: !frontier
      end
    in
    Array.iter
      (fun lst ->
        List.iter
          (fun it ->
            if not (Aflags.mem ws.expanded it.ipid) then add it.ipid)
          !lst)
      ws.skipped;
    (* a crashed item claimed its expansion flag before raising, so it
       must be re-queued explicitly *)
    List.iter (fun (it, _) -> add it.ipid) ws.crashes;
    let queue = Array.of_list !frontier in
    Array.sort compare queue;
    {
      Explore.c_max_states = max_states;
      c_states = states;
      c_depths = depths;
      c_trans = !trans;
      c_queue = queue;
      c_complete = true;
    }

  let space_run ?expected_states ?budget ?(degrade_ok = false) ?resume
      ~max_states ~domains ~store_mode () =
    (match store_mode with
    | Store.Bitstate _ ->
        invalid_arg
          "Mc.Pexplore.space_run: a bitstate store keeps no state identities \
           and cannot produce a state graph"
    | _ -> ());
    let t0 = Unix.gettimeofday () in
    let ws =
      explore ?expected_states ?budget ~degrade_ok ?resume ~max_states
        ~domains ~store_mode ~keep_adj:true ~keep_states:true
        ~keep_parent:false
        ~goal:(fun _ -> false)
        ~stop_on_goal:false ()
    in
    let total = St.total ws.tbl in
    let adj = ws_adj ws and state_of = ws_states ws in
    let finish ~count ~states ~trans ~complete ~histogram =
      let lts = Lts.Graph.make ~num_states:count ~initial:0 trans in
      let stats =
        ws_stats ws ~t0 ~count
          ~transitions:(Lts.Graph.num_transitions lts)
          ~histogram
      in
      (Explore.Done { Explore.lts; states; complete }, stats)
    in
    match ws_exhausted ws with
    | Some reason ->
        let stats =
          ws_stats ~exhausted:reason ws ~t0 ~count:total
            ~transitions:(Atomic.get ws.edges)
            ~histogram:(ws_histogram ws)
        in
        (Explore.Suspended (reason, ws_cursor ws ~max_states), stats)
    | None ->
    (* With no steals, every chunk ran on the owning domain in FIFO
       order, and with no relaxations every state was first reached at
       its minimal depth — so the provisional numbering already equals
       sequential BFS discovery order and the replay would be an
       identity renumbering.  A resumed run inherits the cursor's
       numbering instead, so it must replay. *)
    let canonical_already =
      Atomic.get ws.w_steals = 0
      && Atomic.get ws.w_relax = 0
      && not ws.resumed
    in
    if canonical_already && total <= ws.emax && not (ws_dropped ws) then begin
      let states = Array.init total state_of in
      let trans = ref [] in
      for pid = total - 1 downto 0 do
        let cells = adj pid in
        for k = Array.length cells - 1 downto 0 do
          let l, dst = cells.(k) in
          trans := (pid, l, dst) :: !trans
        done
      done;
      finish ~count:total ~states ~trans:!trans ~complete:true
        ~histogram:(ws_histogram ws)
    end
    else begin
      let r = replay ~max_states ~emit:true ~total ~adj () in
      let states = Array.init r.r_count (fun c -> state_of r.r_pid_of.(c)) in
      finish ~count:r.r_count ~states ~trans:r.r_trans ~complete:r.r_complete
        ~histogram:r.r_levels
    end

  let count ?expected_states ?budget ?(degrade_ok = false) ~max_states
      ~domains ~store_mode () =
    let t0 = Unix.gettimeofday () in
    let ws =
      explore ?expected_states ?budget ~degrade_ok ~max_states ~domains
        ~store_mode ~keep_adj:false ~keep_states:false ~keep_parent:false
        ~goal:(fun _ -> false)
        ~stop_on_goal:false ()
    in
    let total = St.total ws.tbl in
    let n = max 1 (min total max_states) in
    let exhausted = ws_exhausted ws in
    let complete =
      exhausted = None && total <= max 1 max_states && not (ws_dropped ws)
    in
    let stats =
      ws_stats ?exhausted ws ~t0 ~count:n
        ~transitions:(Atomic.get ws.edges)
        ~histogram:(ws_histogram ws)
    in
    ((n, complete), stats)

  let find ?expected_states ?budget ?(degrade_ok = false) ~max_states
      ~domains ~store_mode ~goal () =
    if goal S.initial then
      Explore.Reached { Explore.trace = []; state = S.initial }
    else begin
      let tracks = match store_mode with Store.Bitstate _ -> false | _ -> true in
      let ws =
        explore ?expected_states ?budget ~degrade_ok ~max_states ~domains
          ~store_mode ~keep_adj:tracks ~keep_states:true ~keep_parent:true
          ~goal ~stop_on_goal:true ()
      in
      let total = St.total ws.tbl in
      let emax = max 1 max_states in
      let state_of = ws_states ws in
      (* Scan flagged goal states for the one with the shortest (relaxed)
         parent chain: its length equals the sequential BFS depth. *)
      let best_goal lo hi =
        let best = ref (-1) and best_len = ref max_int in
        for pid = lo to hi - 1 do
          if Pvec.get ws.goal_v pid then begin
            let len = List.length (ws_trace ws pid) in
            if len < !best_len then begin
              best := pid;
              best_len := len
            end
          end
        done;
        !best
      in
      match ws_exhausted ws with
      | Some reason ->
          (* Cut short — but a goal flagged before the trip is still a
             real witness, and always outranks the exhaustion. *)
          let w = best_goal 0 total in
          if w >= 0 then
            Explore.Reached
              { Explore.trace = ws_trace ws w; state = state_of w }
          else Explore.Exhausted (ws_exhaustion ws reason)
      | None ->
      if not tracks then begin
        (* Bitstate: no replay possible; verdicts are probabilistic. *)
        let w = best_goal 0 total in
        if w >= 0 then
          Explore.Reached { Explore.trace = ws_trace ws w; state = state_of w }
        else if total > emax || ws_dropped ws then Explore.Bound_hit max_states
        else Explore.Unreachable
      end
      else if total > emax || (total = emax && ws_dropped ws) then begin
        (* Truncated: only a goal inside the canonical prefix counts. *)
        let r = replay ~max_states ~emit:false ~total ~adj:(ws_adj ws) () in
        let witness = ref (-1) in
        let c = ref 0 in
        while !witness < 0 && !c < r.r_count do
          let pid = r.r_pid_of.(!c) in
          if Pvec.get ws.goal_v pid then witness := pid;
          incr c
        done;
        if !witness >= 0 then
          Explore.Reached
            { Explore.trace = ws_trace ws !witness; state = state_of !witness }
        else Explore.Bound_hit max_states
      end
      else begin
        let w = best_goal 0 total in
        if w >= 0 then
          Explore.Reached { Explore.trace = ws_trace ws w; state = state_of w }
        else Explore.Unreachable
      end
    end
end

(* --- public entry points ------------------------------------------------ *)

let space_run (type s l) ?(max_states = Explore.default_max) ?expected_states
    ?domains ?(store = Store.Exact) ?budget ?(degrade = true) ?resume
    (sys : (s, l) System.t) : (s, l) Explore.run_result * stats =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let module E = Engine ((val sys)) in
  E.space_run ?expected_states ?budget ~degrade_ok:degrade ?resume ~max_states
    ~domains ~store_mode:store ()

let count_stats (type s l) ?(max_states = Explore.default_max)
    ?expected_states ?domains ?(store = Store.Exact) ?budget ?(degrade = true)
    (sys : (s, l) System.t) : (int * bool) * stats =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let module E = Engine ((val sys)) in
  E.count ?expected_states ?budget ~degrade_ok:degrade ~max_states ~domains
    ~store_mode:store ()

let find (type s l) ?(max_states = Explore.default_max) ?expected_states
    ?domains ?(store = Store.Exact) ?budget ?(degrade = true) ~goal
    (sys : (s, l) System.t) : (s, l) Explore.verdict =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let module E = Engine ((val sys)) in
  E.find ?expected_states ?budget ~degrade_ok:degrade ~max_states ~domains
    ~store_mode:store ~goal ()
