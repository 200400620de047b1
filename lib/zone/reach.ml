(* Subsumption-aware BFS over the zone graph.  The structure mirrors
   Mc.Explore.find; the difference is the passed store, which is keyed
   by the discrete part with a list of (zone, node id) per key so that
   inclusion checks only scan zones of the same locations and
   variables. *)

module S = Ta.Semantics

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable subsumed : int;
}

let new_stats () = { states = 0; transitions = 0; subsumed = 0 }

module DiscTbl = Hashtbl.Make (struct
  type t = S.config

  let equal = S.equal_config
  let hash = S.hash_config
end)

type node = { n_st : Sym.state; n_parent : int; n_via : string }

(* minimal growable array (OCaml 5.1 has no Dynarray yet) *)
type vec = { mutable arr : node array; mutable len : int }

let vec_add v x =
  if v.len = Array.length v.arr then begin
    let cap = max 1024 (2 * Array.length v.arr) in
    let b = Array.make cap x in
    Array.blit v.arr 0 b 0 v.len;
    v.arr <- b
  end;
  v.arr.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let trace_to (v : vec) id =
  let rec go id acc =
    if id < 0 then acc
    else
      let n = v.arr.(id) in
      if n.n_parent < 0 then acc else go n.n_parent (S.Act n.n_via :: acc)
  in
  go id []

let find ?(max_states = Mc.Explore.default_max) ?budget ?stats (t : Sym.t)
    ~goal :
    (Sym.state, S.label) Mc.Explore.verdict =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let dim = Sym.dim t in
  let passed : (Dbm.t * int) list ref DiscTbl.t = DiscTbl.create 4096 in
  let nodes = { arr = [||]; len = 0 } in
  let q = Queue.create () in
  let goal_hit = ref (-1) in
  let truncated = ref false in
  let intern parent via (s : Sym.state) =
    let bucket =
      let key = S.of_cells s.Sym.disc in
      match DiscTbl.find_opt passed key with
      | Some b -> b
      | None ->
          let b = ref [] in
          DiscTbl.add passed key b;
          b
    in
    let covered =
      List.exists (fun (z, _) -> Dbm.includes ~dim z s.Sym.dbm) !bucket
    in
    if covered then stats.subsumed <- stats.subsumed + 1
    else if nodes.len >= max_states then truncated := true
    else begin
      let id = vec_add nodes { n_st = s; n_parent = parent; n_via = via } in
      bucket := (s.Sym.dbm, id) :: !bucket;
      stats.states <- stats.states + 1;
      if !goal_hit < 0 && goal s then goal_hit := id;
      Queue.add id q
    end
  in
  intern (-1) "" (Sym.initial t);
  let budget_reason = ref None in
  while
    !goal_hit < 0 && !budget_reason = None && not (Queue.is_empty q)
  do
    (match budget with
    | Some b -> budget_reason := Mc.Budget.check b
    | None -> ());
    if !budget_reason = None then begin
      let id = Queue.pop q in
      List.iter
        (fun (l, s') ->
          stats.transitions <- stats.transitions + 1;
          match l with
          | S.Act via -> if !goal_hit < 0 then intern id via s'
          | S.Delay -> assert false (* zone successors are actions *))
        (Sym.successors t nodes.arr.(id).n_st)
    end
  done;
  if !goal_hit >= 0 then
    Mc.Explore.Reached
      {
        trace = trace_to nodes !goal_hit;
        state = nodes.arr.(!goal_hit).n_st;
      }
  else
    match !budget_reason with
    | Some reason ->
        Mc.Explore.Exhausted { reason; states_so_far = stats.states }
    | None ->
        if !truncated then Mc.Explore.Bound_hit stats.states
        else Mc.Explore.Unreachable

let count ?max_states ?budget ?stats t =
  let stats = match stats with Some s -> s | None -> new_stats () in
  match find ?max_states ?budget ~stats t ~goal:(fun _ -> false) with
  | Mc.Explore.Unreachable -> (stats.states, true)
  | Mc.Explore.Bound_hit n -> (n, false)
  | Mc.Explore.Exhausted e -> (e.Mc.Explore.states_so_far, false)
  | Mc.Explore.Reached _ -> assert false (* the goal is never satisfied *)

let guided_replay (type s) (sys : (s, S.label) Mc.System.t) ~trace ~goal =
  let module Sys = (val sys) in
  let module H = Hashtbl.Make (struct
    type t = Sys.state

    let equal = Sys.equal_state
    let hash = Sys.hash_state
  end) in
  let acts =
    trace
    |> List.filter_map (function S.Act a -> Some a | S.Delay -> None)
    |> Array.of_list
  in
  let len = Array.length acts in
  let visited = Array.init (len + 1) (fun _ -> H.create 64) in
  let rec dfs s pos =
    if H.mem visited.(pos) s then false
    else begin
      H.add visited.(pos) s ();
      if pos = len then goal s
      else
        List.exists
          (fun (l, s') ->
            match l with
            | S.Delay -> dfs s' pos
            | S.Act a -> String.equal a acts.(pos) && dfs s' (pos + 1))
          (Sys.successors s)
    end
  in
  dfs Sys.initial 0
