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
   wins; if no seed yields one, the state is fully expanded.  The search
   runs on masks the memoised menus carry (the partner halves a
   component offers now, the halves it could ever offer): per state, n
   dependency masks and their transitive closure give every seed's
   group, and the full transition list, built once by the one pairing
   routine ([Proc.Semantics.transitions]), is tagged with each
   transition's participant mask and visibility, so an ample set is
   that list filtered against a group mask.  The reduced relation is
   therefore always a sub-structure of the full one.  See DESIGN.md
   ("Partial-order reduction") for the soundness argument. *)

module Sem = Proc.Semantics
module Mask = Proc.Mask
module T = Proc.Term
module SSet = Lint_pa.SSet
module SMap = Lint_pa.SMap
module I = Lint_interval
module R = Lint_report

type analysis = {
  compiled : Sem.compiled;
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
  { compiled; names; alphabets; offerer_tbl; zeno_suspects }

(* The analysis is a pure function of the spec term, so verification
   sweeps that revisit the same spec (table cells, smoke matrices) can
   share one result.  See [Lint_memo] for the cache discipline. *)
let memo : (Proc.Spec.t, analysis) Lint_memo.t = Lint_memo.create ()
let analyze_cached spec = Lint_memo.find memo spec analyze
let cache_stats () = Lint_memo.stats memo

let zeno_free a = a.zeno_suspects = []
let zeno_suspects a = a.zeno_suspects

let compiled a = a.compiled

(* Ascending indices of the components that can ever offer the given
   action name; [[]] for unknown names and pure result names. *)
let offerers a name = Option.value (Hashtbl.find_opt a.offerer_tbl name) ~default:[]

type stats = {
  mutable states : int;
  mutable ample_states : int;
  mutable no_refuser : int;
  mutable proviso_blocked : int;
  mutable visible_blocked : int;
}

module H = Hashtbl.Make (struct
  type t = Sem.state

  let equal = Sem.equal_state
  let hash = Sem.hash_state
end)

let reduced_successors (a : analysis) ~alphabet :
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
    }
  in
  (* The runtime cycle proviso below, and the discovery stamps it reads,
     are needed only when the static analysis left zeno suspects. *)
  let proviso = a.zeno_suspects <> [] in
  (* Discovery stamps for the cycle proviso: every state this system
     has handed out or been asked about gets its discovery order when
     first seen.  An ample transition into a state discovered no later
     than the current one is a potential cycle-closing back edge and
     forces full expansion; edges to later-discovered states (the
     common diamond-convergence case) are harmless. *)
  let seen : int H.t = H.create 64 in
  let memo : (Sem.label * Sem.state) list H.t = H.create 64 in
  (* The stamp of [s], minted now if [s] is new. *)
  let note s =
    match H.find_opt seen s with
    | Some d -> d
    | None ->
        let d = H.length seen in
        H.add seen s d;
        d
  in
  let expand (s : Sem.state) ~disc : (Sem.label * Sem.state) list =
    let n = Array.length s in
    let menus = Sem.menus c s in
    (* Least communication-closed group of every seed.  Component [m]
       pulls in [j] when a partner of a half [m] offers now is among the
       halves [j] could ever offer (its future offers: every derivative
       offers a subset, so a component outside the group can never grow
       a matching offer).  [group.(m)] starts as [m] and the components
       it pulls in, and Warshall's transitive closure turns each row into
       its seed's group. *)
    let group =
      Array.init n (fun m ->
          let g = Mask.create n in
          Mask.add g m;
          let partners = Sem.partner_mask menus.(m) in
          if not (Mask.is_empty partners) then
            for j = 0 to n - 1 do
              if Mask.meets partners (Sem.future_mask menus.(j)) then Mask.add g j
            done;
          g)
    in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if i <> k && Mask.mem group.(i) k then Mask.union_into group.(i) group.(k)
      done
    done;
    let refusers = Mask.create n in
    Array.iteri (fun i m -> if not (Sem.offers_tick m) then Mask.add refusers i) menus;
    (* The full transition list, built once.  Its non-tick prefix is
       tagged with each transition's participant mask and visibility;
       an ample set is that prefix filtered against a group mask, in the
       order of the full relation. *)
    let succs, parts = Sem.transitions menus s in
    let steps = Array.of_list succs in
    let parts = Array.of_list parts in
    let m =
      let rec first_tick t =
        if t < Array.length parts && parts.(t) >= 0 then first_tick (t + 1) else t
      in
      first_tick 0
    in
    let inside =
      Array.init m (fun t ->
          let p = Mask.create n in
          Mask.add p (parts.(t) / n);
          Mask.add p (parts.(t) mod n);
          p)
    in
    let visible = Array.init m (fun t -> visible_prop (fst steps.(t))) in
    let depth = ref 0 in
    (* Every component is tried as a seed and the smallest valid ample
       set wins (ties go to the lowest seed, keeping the choice
       deterministic).  Hub components close to near-total groups whose
       "ample" set defers almost nothing; a peripheral seed — an
       in-flight channel, say — often freezes just itself and its
       current partners.  Once a winner is known, a candidate is counted
       only while it could still beat it. *)
    let best = ref (-1) and best_k = ref max_int in
    (* The number of ample transitions of group [g]: [0] if one is
       visible or there are none, [-1] if it cannot beat the winner. *)
    let count g =
      let rec go t k =
        if t = m then k
        else if not (Mask.subset inside.(t) g) then go (t + 1) k
        else if visible.(t) then 0
        else if k + 1 >= !best_k then -1
        else go (t + 1) (k + 1)
      in
      go 0 0
    in
    (* Cycle proviso: an ample transition back to an earlier-discovered
       (or the current) state could close a cycle along which the
       deferred transitions never fire.  Ample sets never contain the
       tick, so any reduced cycle through a tick edge already has a
       fully expanded state — only tick-free (zeno) cycles are a risk,
       and when the static analysis proves there are none, the proviso
       is vacuous and skipped. *)
    let back_edge g =
      let rec go t =
        t < m
        && ((Mask.subset inside.(t) g
            &&
            match H.find_opt seen (snd steps.(t)) with
            | Some d -> d <= disc
            | None -> false)
           || go (t + 1))
      in
      go 0
    in
    for seed = 0 to n - 1 do
      let g = group.(seed) in
      (* Some member must refuse the tick, or the tick stays enabled *)
      if Mask.meets g refusers then
        match count g with
        | -1 -> ()
        | 0 -> if !depth < 1 then depth := 1
        | k ->
            if proviso && back_edge g then (if !depth < 2 then depth := 2)
            else begin
              best := seed;
              best_k := k
            end
    done;
    if !best >= 0 then begin
      stats.ample_states <- stats.ample_states + 1;
      let g = group.(!best) in
      let rec keep t acc =
        if t < 0 then acc
        else keep (t - 1) (if Mask.subset inside.(t) g then steps.(t) :: acc else acc)
      in
      keep (m - 1) []
    end
    else begin
      (match !depth with
      | 0 -> stats.no_refuser <- stats.no_refuser + 1
      | 1 -> stats.visible_blocked <- stats.visible_blocked + 1
      | _ -> stats.proviso_blocked <- stats.proviso_blocked + 1);
      succs
    end
  in
  (* [seen] and [memo] are unsynchronised, so the system belongs to the
     domain that built it; a call from any other domain is refused
     before it touches them. *)
  let owner = (Domain.self () :> int) in
  let successors s =
    if (Domain.self () :> int) <> owner then
      invalid_arg "Por: reduced system called from a domain that did not build it";
    match H.find_opt memo s with
    | Some r -> r
    | None ->
        let disc = if proviso then note s else 0 in
        stats.states <- stats.states + 1;
        let result = expand s ~disc in
        if proviso then List.iter (fun (_, s') -> ignore (note s' : int)) result;
        H.add memo s result;
        result
  in
  (successors, stats)

let reduced_system_stats ?(alphabet = []) (a : analysis) :
    (Sem.state, Sem.label) Mc.System.t * stats =
  let successors, stats = reduced_successors a ~alphabet in
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

let reduced_system ?alphabet a = fst (reduced_system_stats ?alphabet a)
let reduction a ~alphabet = Some (reduced_system ~alphabet a)

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
