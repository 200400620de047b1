(* Ample-set partial-order reduction driven by a static dependence
   analysis of the spec.

   The ample set at a state is chosen per "communication-closed group":
   starting from a seed component, close under "some member currently
   offers a communication half whose partner another component could
   still offer from its *current* configuration" (the syntactic
   derivative closure: prefix names of the component's term plus every
   definition reachable from its calls — an over-approximation of all
   future offers that only shrinks as the component moves).  Members of
   the group are then frozen with respect to the rest of the system —
   no transition outside the group can change a member or enable a new
   interaction with one, because any outsider that could ever grow a
   matching offer would have been pulled into the group — so the
   group's internal enabled transitions form a valid ample set
   provided:

   - T. some member currently refuses [tick], which keeps the global
     clock step (a transition of *every* component) disabled until an
     ample transition fires;
   - C0. the set is nonempty;
   - C2. every ample label is invisible for the property alphabet;
   - C3. every cycle of the reduced graph contains a fully expanded
     state.  Tick is never in an ample set, so cycles through a tick
     edge get this for free; tick-free cycles either don't exist
     (statically proven zeno-freedom, the common case for the shipped
     models) or are caught by a runtime discovery-order proviso.

   Every component is tried as a seed and the smallest valid ample set
   wins; if no seed yields one, the state is fully expanded via
   [Proc.Semantics.successors_with].  Ample candidates come from the
   same pairing routine ([Proc.Semantics.successors_among]) over the
   same memoised menus, so the reduced relation is always a
   sub-structure of the full one.  See DESIGN.md ("Partial-order
   reduction") for the soundness argument. *)

module Sem = Proc.Semantics
module T = Proc.Term
module SSet = Lint_pa.SSet
module SMap = Lint_pa.SMap
module I = Lint_interval
module R = Lint_report

type analysis = {
  compiled : Sem.compiled;
  defs : (string, T.def) Hashtbl.t;
  names : string array;
  alphabets : SSet.t array;
  offerer_tbl : (string, int list) Hashtbl.t;
  zeno_suspects : int list;
      (* components the static zeno-freedom pruning could not discharge;
         empty = every global cycle provably performs a tick *)
}

let has_cycle (edges : (string * string * string list) list) : bool =
  let adj = Hashtbl.create 16 in
  List.iter (fun (src, dst, _) -> Hashtbl.add adj src dst) edges;
  let color = Hashtbl.create 16 in
  let rec visit v =
    match Hashtbl.find_opt color v with
    | Some `Open -> true
    | Some `Done -> false
    | None ->
        Hashtbl.replace color v `Open;
        let cyc = List.exists visit (Hashtbl.find_all adj v) in
        Hashtbl.replace color v `Done;
        cyc
  in
  List.exists (fun (src, _, _) -> visit src) edges

(* Static zeno-freedom: no reachable cycle of the full system consists of
   non-tick transitions only.  On such a cycle every moving component
   traverses a closed walk of its own definition graph made of tick-free
   call edges, so (a) every definition on the walk is *entered* by a
   tick-free call on the walk — its parameters take only values flowing
   around the walk, never the tick-loop values — and (b) every
   communication half fired on the walk pairs with a partner action that
   lies on some other component's walk, i.e. on a *cyclic* feasible edge
   of that component.

   Both facts are exploited by a downward iteration from ⊤ over
   [Lint_pa]'s interval domain: per definition an entry environment
   joined over the currently-feasible tick-free call sites (so the
   paper's timer loops, re-armed with counter 0 and exited only under
   [c == lim], lose their exit edge: the guard is statically false on
   every tick-free entry); per component the set of action names
   occurring on feasible edges that lie on a cycle (so a partner offer
   that exists only on an acyclic or guard-dead path supports nobody).
   Each round is a sound over-approximation of the true walks, so the
   iteration can stop at any point.  A component whose final feasible
   edge graph is acyclic cannot move on a tick-free cycle; if that holds
   for all of them, every global cycle performs a tick.  Conservative: a
   [false] answer only costs the runtime cycle proviso. *)

type zedge = { zsrc : string; zdst : string; zacts : string list }

let zeno_rounds = 30

let compute_zeno_suspects compiled (spec : Proc.Spec.t) defs
    (alphabets : SSet.t array) =
  let comps = Array.of_list spec.Proc.Spec.init in
  let n = Array.length comps in
  let reach =
    Array.map
      (fun ((root, _) : string * Proc.Value.t list) ->
        Lint_pa.reachable_from defs [ root ])
      comps
  in
  (* Entry environments per (component, definition); absence means "no
     feasible tick-free entry".  The empty map is ⊤: [Lint_pa.lookup]
     defaults unbound parameters to the full interval. *)
  let envs : Lint_pa.env SMap.t array =
    Array.map
      (fun r ->
        SSet.fold (fun d acc -> SMap.add d (SMap.empty : Lint_pa.env) acc) r SMap.empty)
      reach
  in
  let offers = Array.copy alphabets in
  let edges : zedge list array = Array.make (max n 1) [] in
  let feasible i nm =
    if nm = Proc.Spec.tick_name then false
    else
      match Sem.comm_partners compiled nm with
      | [] -> Sem.is_visible compiled nm || Sem.is_hidden compiled nm
      | partners ->
          List.exists
            (fun ((partner, result) : string * string) ->
              (Sem.is_visible compiled result || Sem.is_hidden compiled result)
              &&
              let ok = ref false in
              for j = 0 to n - 1 do
                if j <> i && SSet.mem partner offers.(j) then ok := true
              done;
              !ok)
            partners
  in
  (* Walk a definition body under its entry environment, pruning
     branches whose guards are statically decided, binding sum
     variables, and cutting paths at infeasible or tick prefixes. *)
  let walk i (d : T.def) (env0 : Lint_pa.env) ~on_edge =
    let rec go env acts (t : T.t) =
      match t with
      | T.Nil -> ()
      | T.Prefix (a, p) ->
          let nm = a.T.act_name in
          if nm <> Proc.Spec.tick_name && feasible i nm then go env (nm :: acts) p
      | T.Choice ps -> List.iter (go env acts) ps
      | T.Sum (x, lo, hi, p) ->
          if lo <= hi then
            go (SMap.add x (Lint_pa.Num (I.of_bounds lo hi)) env) acts p
      | T.Cond (c, p, q) -> (
          match Lint_pa.bool_eval env c with
          | Some true -> branch env c true acts p
          | Some false -> branch env c false acts q
          | None ->
              branch env c true acts p;
              branch env c false acts q)
      | T.Call (name, args) -> on_edge ~env ~acts:(List.rev acts) name args
    and branch env c truth acts t =
      match Lint_pa.refine env c truth with
      | Some env' -> go env' acts t
      | None -> () (* assumption contradictory: branch unreachable *)
    in
    go env0 [] d.T.body
  in
  let join_env params a b =
    List.fold_left
      (fun acc p ->
        let get m =
          match SMap.find_opt p m with Some v -> v | None -> Lint_pa.Num I.top
        in
        SMap.add p (Lint_pa.join_aval (get a) (get b)) acc)
      SMap.empty params
  in
  (* Action names on feasible edges that lie on a cycle (src and dst in
     the same strongly-connected component). *)
  let cyclic_offers es =
    let adj = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.add adj e.zsrc e.zdst) es;
    let on_cycle e =
      (* does zdst reach zsrc? *)
      let seen = Hashtbl.create 16 in
      let rec go v =
        v = e.zsrc
        || (not (Hashtbl.mem seen v))
           && begin
                Hashtbl.add seen v ();
                List.exists go (Hashtbl.find_all adj v)
              end
      in
      go e.zdst
    in
    List.fold_left
      (fun acc e ->
        if on_cycle e then
          List.fold_left (fun acc a -> SSet.add a acc) acc e.zacts
        else acc)
      SSet.empty es
  in
  for _round = 1 to zeno_rounds do
    let new_envs = Array.make (max n 1) (SMap.empty : Lint_pa.env SMap.t) in
    for i = 0 to n - 1 do
      let es = ref [] in
      SMap.iter
        (fun dname env ->
          match Hashtbl.find_opt defs dname with
          | None -> ()
          | Some (d : T.def) ->
              walk i d env ~on_edge:(fun ~env ~acts callee args ->
                  es := { zsrc = dname; zdst = callee; zacts = acts } :: !es;
                  match Hashtbl.find_opt defs callee with
                  | Some (cd : T.def)
                    when List.length cd.T.params = List.length args ->
                      let entry =
                        List.fold_left2
                          (fun acc p a -> SMap.add p (Lint_pa.eval env a) acc)
                          SMap.empty cd.T.params args
                      in
                      new_envs.(i) <-
                        SMap.update callee
                          (function
                            | None -> Some entry
                            | Some prev -> Some (join_env cd.T.params prev entry))
                          new_envs.(i)
                  | Some _ | None -> ()))
        envs.(i);
      edges.(i) <- !es
    done;
    for i = 0 to n - 1 do
      envs.(i) <- new_envs.(i);
      offers.(i) <- cyclic_offers edges.(i)
    done
  done;
  let suspects = ref [] in
  for i = n - 1 downto 0 do
    if has_cycle (List.map (fun e -> (e.zsrc, e.zdst, e.zacts)) edges.(i)) then
      suspects := i :: !suspects
  done;
  !suspects

let analyze spec =
  let compiled = Sem.compile spec in
  let defs = Lint_pa.def_table spec in
  let comps = Array.of_list spec.Proc.Spec.init in
  let names = Array.map (fun ((name, _) : string * Proc.Value.t list) -> name) comps in
  let alphabets =
    Array.map
      (fun (root, _) -> Lint_pa.offered_by defs (Lint_pa.reachable_from defs [ root ]))
      comps
  in
  let offerer_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i alpha ->
      SSet.iter
        (fun a ->
          let prev = Option.value (Hashtbl.find_opt offerer_tbl a) ~default:[] in
          Hashtbl.replace offerer_tbl a (i :: prev))
        alpha)
    alphabets;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) offerer_tbl;
  let zeno_suspects = compute_zeno_suspects compiled spec defs alphabets in
  { compiled; defs; names; alphabets; offerer_tbl; zeno_suspects }

(* The analysis is a pure function of the spec term, so verification
   sweeps that revisit the same spec (table cells, smoke matrices) can
   share one result.  See [Lint_memo] for the cache discipline. *)
let memo : (Proc.Spec.t, analysis) Lint_memo.t = Lint_memo.create ()
let analyze_cached spec = Lint_memo.find memo spec analyze
let cache_stats () = Lint_memo.stats memo

let zeno_free a = a.zeno_suspects = []
let zeno_suspects a = a.zeno_suspects

let compiled a = a.compiled
let component_names a = a.names
let component_alphabet a i = SSet.elements a.alphabets.(i)
let offerers a name = Option.value (Hashtbl.find_opt a.offerer_tbl name) ~default:[]

type stats = {
  mutable states : int;
  mutable ample_states : int;
  mutable no_refuser : int;
  mutable proviso_blocked : int;
  mutable visible_blocked : int;
  mutable cross_domain_blocked : int;
}

module H = Hashtbl.Make (struct
  type t = Sem.state

  let equal = Sem.equal_state
  let hash = Sem.hash_state
end)

let nstripes = 64

let reduced_successors ?(par = false) (a : analysis) ~alphabet :
    (Sem.state -> (Sem.label * Sem.state) list) * stats =
  let c = a.compiled in
  let prop = SSet.of_list alphabet in
  let visible_prop l = SSet.mem (Sem.label_name l) prop in
  let stats =
    {
      states = 0;
      ample_states = 0;
      no_refuser = 0;
      proviso_blocked = 0;
      visible_blocked = 0;
      cross_domain_blocked = 0;
    }
  in
  (* Every stripe-lock critical section below runs under [Fun.protect]:
     the hashed operations inside call [Sem.hash_state]/[Sem.equal_state],
     and a raise there with a lock still held would deadlock every other
     domain on that stripe (the work-stealing engine survives raising
     user code precisely because no lock is orphaned). *)
  let locked m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let smu = Mutex.create () in
  let with_stats f = if par then locked smu f else f () in
  (* The runtime cycle proviso below, and the discovery stamps it reads,
     are needed only when the static analysis left zeno suspects. *)
  let proviso = a.zeno_suspects <> [] in
  (* Discovery indices for the cycle proviso: every state this system
     has handed out or been asked about gets a sequence number when
     first seen.  An ample transition into a state discovered no later
     than the current one is a potential cycle-closing back edge and
     forces full expansion; edges to later-discovered states (the
     common diamond-convergence case) are harmless.  Soundness needs no
     assumption on the caller's exploration order beyond it being
     sequential: on any all-reduced cycle, the state with the minimal
     discovery index was noted before its cycle predecessor was, so the
     predecessor's expansion saw the back edge and cannot have chosen
     that ample set.  Memoization makes the reduced relation a function
     of the state despite the stateful proviso. *)
  let seen : int H.t = H.create 4096 in
  let next_disc = ref 0 in
  let memo : (Sem.label * Sem.state) list H.t = H.create 4096 in
  (* Parallel ([par = true]) variants of [seen]/[memo]: lock-striped
     tables safe to drive from several domains at once, e.g. from the
     work-stealing explorer.  The sequential soundness argument above
     survives any interleaving because the discovery counter is fetched
     {e inside} the owning stripe's lock: the in-lock fetches are
     totally ordered, so a [None] answer read under the lock implies the
     state's eventual stamp strictly exceeds every stamp already handed
     out — in particular the reader's own [disc].  On an all-reduced
     cycle in the final (memoized, winner-takes-all) relation, the
     minimal-stamp state therefore cannot have been invisible to its
     cycle predecessor's winning expansion, which must have seen the
     back edge and fully expanded.  Each stamp also records the domain
     that minted it; a back edge whose stamp was minted by another
     domain is counted in [cross_domain_blocked] — the full expansion it
     forces is the conservative fallback on cross-domain edges. *)
  let locks = Array.init (if par then nstripes else 0) (fun _ -> Mutex.create ()) in
  let seen_p : (int * int) H.t array =
    Array.init (if par then nstripes else 0) (fun _ -> H.create 64)
  in
  let memo_p : (Sem.label * Sem.state) list H.t array =
    Array.init (if par then nstripes else 0) (fun _ -> H.create 64)
  in
  let next_disc_p = Atomic.make 0 in
  let stripe s = Sem.hash_state s land max_int land (nstripes - 1) in
  (* Future offers of a configuration: every action name it could ever
     offer again, over-approximated syntactically — the prefix names of
     its own term plus those of every definition reachable from its
     calls.  Action names are static strings, so this set is exact up
     to data; and every derivative's set is a subset of its source's,
     which is what makes it usable for freezing: a component whose
     future offers exclude [partner] can move freely without ever
     enabling that handshake.  Memoized per configuration. *)
  let future_cache : SSet.t Sem.Table.t = Sem.Table.create 256 in
  let fmu = Mutex.create () in
  let future_offers comp =
    let cached =
      if par then locked fmu (fun () -> Sem.Table.find_opt future_cache comp)
      else Sem.Table.find_opt future_cache comp
    in
    match cached with
    | Some set -> set
    | None ->
        let t = Sem.component_term comp in
        let roots = SSet.elements (Lint_pa.callees SSet.empty t) in
        let set =
          SSet.union
            (Lint_pa.offered SSet.empty t)
            (Lint_pa.offered_by a.defs (Lint_pa.reachable_from a.defs roots))
        in
        let install () =
          if not (Sem.Table.mem future_cache comp) then
            Sem.Table.add future_cache comp set
        in
        if par then locked fmu install else install ();
        set
  in
  let note s =
    if par then
      let k = stripe s in
      locked locks.(k) (fun () ->
          match H.find_opt seen_p.(k) s with
          | Some _ -> ()
          | None ->
              (* counter fetched inside the stripe lock — see the
                 soundness comment at [seen_p] *)
              let d = Atomic.fetch_and_add next_disc_p 1 in
              H.add seen_p.(k) s (d, (Domain.self () :> int)))
    else if not (H.mem seen s) then begin
      H.add seen s !next_disc;
      incr next_disc
    end
  in
  (* Stamp and minting domain of a noted state; [None] means "discovered
     strictly later than any stamp already read" (see [seen_p]). *)
  let disc_of s =
    if par then
      let k = stripe s in
      locked locks.(k) (fun () -> H.find_opt seen_p.(k) s)
    else Option.map (fun d -> (d, 0)) (H.find_opt seen s)
  in
  let expand (s : Sem.state) ~disc ~mydom : (Sem.label * Sem.state) list =
    let n = Array.length s in
    let menus = Sem.menus c s in
    let future = Array.map future_offers s in
    (* Least communication-closed group containing [seed]. *)
    let group seed =
      let in_g = Array.make n false in
      in_g.(seed) <- true;
      let stack = ref [ seed ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | m :: rest ->
            stack := rest;
            List.iter
              (fun partner ->
                for j = 0 to n - 1 do
                  if (not in_g.(j)) && SSet.mem partner future.(j) then begin
                    in_g.(j) <- true;
                    stack := j :: !stack
                  end
                done)
              (Sem.partners menus.(m))
      done;
      in_g
    in
    (* Enabled transitions internal to the group, in the order of the
       full relation; [None] if some label is visible. *)
    let internal in_g =
      let amples = Sem.successors_among menus s in_g in
      if List.exists (fun (l, _) -> visible_prop l) amples then None else Some amples
    in
    let depth = ref 0 in
    let cross_seen = ref false in
    let try_seed seed =
      let in_g = group seed in
      let tick_refused =
        let r = ref false in
        Array.iteri (fun i g -> if g && not (Sem.offers_tick menus.(i)) then r := true) in_g;
        !r
      in
      if not tick_refused then None
      else
        match internal in_g with
        | None | Some [] -> (if !depth < 1 then depth := 1); None
        | Some amples ->
            (* Cycle proviso: an ample transition back to an
               earlier-discovered (or the current) state could close a
               cycle along which the deferred transitions never fire.
               Ample sets never contain the tick, so any reduced cycle
               through a tick edge already has a fully expanded state —
               only tick-free (zeno) cycles are a risk, and when the
               static analysis proves there are none, the proviso is
               vacuous and skipped. *)
            if not proviso then Some amples
            else
              let back (_, s') =
                match disc_of s' with
                | Some (d, dom) ->
                    if d <= disc then begin
                      if dom <> mydom then cross_seen := true;
                      true
                    end
                    else false
                | None -> false
              in
              if List.exists back amples then ((if !depth < 2 then depth := 2); None)
              else Some amples
    in
    (* Every component is tried as a seed and the smallest valid ample
       set wins (ties go to the lowest seed, keeping the choice
       deterministic).  Hub components close to near-total groups whose
       "ample" set defers almost nothing; a peripheral seed — an
       in-flight channel, say — often freezes just itself and its
       current partners. *)
    let best = ref None in
    for seed = 0 to n - 1 do
      match try_seed seed with
      | None -> ()
      | Some amples -> (
          let k = List.length amples in
          match !best with
          | Some (k0, _) when k0 <= k -> ()
          | _ -> best := Some (k, amples))
    done;
    match !best with
    | Some (_, amples) ->
        with_stats (fun () -> stats.ample_states <- stats.ample_states + 1);
        amples
    | None ->
        with_stats (fun () ->
            match !depth with
            | 0 -> stats.no_refuser <- stats.no_refuser + 1
            | 1 -> stats.visible_blocked <- stats.visible_blocked + 1
            | _ ->
                stats.proviso_blocked <- stats.proviso_blocked + 1;
                if !cross_seen then
                  stats.cross_domain_blocked <- stats.cross_domain_blocked + 1);
        Sem.successors_with menus s
  in
  let successors_seq s =
    match H.find_opt memo s with
    | Some r -> r
    | None ->
        if proviso then note s;
        stats.states <- stats.states + 1;
        let disc = if proviso then H.find seen s else 0 in
        let result = expand s ~disc ~mydom:0 in
        if proviso then List.iter (fun (_, s') -> note s') result;
        H.add memo s result;
        result
  in
  (* Parallel variant: expansions are computed outside the locks and
     installed into the memo winner-takes-all, so racing domains may
     both expand a state but every caller observes the single winning
     expansion — the reduced relation stays a function of the state
     within a run.  [stats.states] consequently counts expansion
     computations, which can slightly exceed the number of distinct
     reduced states under races. *)
  let successors_par s =
    let k = stripe s in
    let cached = locked locks.(k) (fun () -> H.find_opt memo_p.(k) s) in
    match cached with
    | Some r -> r
    | None ->
        let disc =
          if proviso then begin
            note s;
            match disc_of s with Some (d, _) -> d | None -> assert false
          end
          else 0
        in
        with_stats (fun () -> stats.states <- stats.states + 1);
        let result = expand s ~disc ~mydom:(Domain.self () :> int) in
        if proviso then List.iter (fun (_, s') -> note s') result;
        locked locks.(k) (fun () ->
            match H.find_opt memo_p.(k) s with
            | Some winner -> winner
            | None ->
                H.add memo_p.(k) s result;
                result)
  in
  ((if par then successors_par else successors_seq), stats)

let reduced_system_stats ?(alphabet = []) ?par (a : analysis) :
    (Sem.state, Sem.label) Mc.System.t * stats =
  let successors, stats = reduced_successors ?par a ~alphabet in
  let sys : (Sem.state, Sem.label) Mc.System.t =
    (module struct
      type state = Sem.state
      type label = Sem.label

      let initial = Sem.initial_of a.compiled
      let successors = successors
      let equal_state = Sem.equal_state
      let hash_state = Sem.hash_state
      let pp_state = Sem.pp_state
      let pp_label = Sem.pp_label
    end)
  in
  (sys, stats)

let reduced_system ?alphabet ?par a = fst (reduced_system_stats ?alphabet ?par a)
let reduction ?par a ~alphabet = Some (reduced_system ~alphabet ?par a)

(* --- hblint report section -------------------------------------------- *)

let diagnostics (a : analysis) : R.diag list =
  let spec = Sem.spec_of a.compiled in
  let c = a.compiled in
  let diags = ref [] in
  let info ~where fmt =
    Format.kasprintf
      (fun m -> diags := R.diag ~severity:R.Info ~code:"PA-POR" ~where "%s" m :: !diags)
      fmt
  in
  let comp_names is =
    match is with
    | [] -> "(none)"
    | _ -> String.concat ", " (List.map (fun i -> a.names.(i)) is)
  in
  let all = Array.fold_left SSet.union SSet.empty a.alphabets in
  let local_acts =
    SSet.filter (fun nm -> nm <> Proc.Spec.tick_name && not (Sem.is_comm c nm)) all
  in
  let singleton_locals =
    SSet.filter (fun nm -> match offerers a nm with [ _ ] -> true | _ -> false) local_acts
  in
  info ~where:"por"
    "%d components; %d communication pair(s); %d local action name(s), %d of them \
     confined to a single component (ample candidates when invisible); tick is \
     global (all components participate, never reduced)"
    (Array.length a.names)
    (List.length spec.Proc.Spec.comms)
    (SSet.cardinal local_acts)
    (SSet.cardinal singleton_locals);
  List.iter
    (fun ((s, r, res) : string * string * string) ->
      info
        ~where:("comm " ^ res)
        "handshake %s/%s couples {%s} with {%s}: every action of these components is \
         dependent on %s"
        s r (comp_names (offerers a s)) (comp_names (offerers a r)) res)
    spec.Proc.Spec.comms;
  SSet.iter
    (fun nm ->
      match offerers a nm with
      | [ i ] ->
          info ~where:("action " ^ nm)
            "confined to component %s: independent of every other component's actions"
            a.names.(i)
      | is ->
          info ~where:("action " ^ nm)
            "offered by %s: occurrences in different components are independent of \
             each other but dependent on their own component's actions"
            (comp_names is))
    local_acts;
  List.rev !diags
