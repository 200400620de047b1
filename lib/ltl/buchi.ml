type kind = Label | State

type 'l atom = { aname : string; kind : kind; pred : 'l -> bool }

type guard = { pos : int array; neg : int array }

type 'l t = {
  atoms : 'l atom array;
  words : int;
  size : int;
  initial : int;
  delta : (guard * int) list array;
  accepting : bool array;
}

(* ------------------------------------------------------------------ *)
(* Indexed internal formulas: atoms interned to integers so sets and   *)
(* maps use plain structural comparison (the source AST carries        *)
(* closures, which cannot be compared).                                *)
(* ------------------------------------------------------------------ *)

module F = struct
  type t =
    | Tt
    | Ff
    | Pos of int
    | Neg of int
    | And of t * t
    | Or of t * t
    | X of t
    | U of t * t
    | R of t * t

  let compare = Stdlib.compare
end

module FSet = Set.Make (F)
module ISet = Set.Make (Int)

(* Intern an NNF source formula; returns the indexed formula and the atom
   table.  Atoms are keyed by (kind, name): the documented identity
   contract. *)
let intern (f : 'l Formula.t) =
  let table : (kind * string, int) Hashtbl.t = Hashtbl.create 16 in
  let atoms = ref [] in
  let n_atoms = ref 0 in
  let atom kind name pred =
    match Hashtbl.find_opt table (kind, name) with
    | Some i -> i
    | None ->
        let i = !n_atoms in
        incr n_atoms;
        Hashtbl.add table (kind, name) i;
        atoms := { aname = name; kind; pred } :: !atoms;
        i
  in
  let rec go : 'l Formula.t -> F.t = function
    | Formula.True -> F.Tt
    | Formula.False -> F.Ff
    | Formula.Lbl (name, pred) -> F.Pos (atom Label name pred)
    | Formula.Enabled (name, pred) -> F.Pos (atom State name pred)
    | Formula.Not (Formula.Lbl (name, pred)) -> F.Neg (atom Label name pred)
    | Formula.Not (Formula.Enabled (name, pred)) ->
        F.Neg (atom State name pred)
    | Formula.Not _ ->
        invalid_arg "Ltl.Buchi: formula not in negation normal form"
    | Formula.And (a, b) -> (
        match (go a, go b) with
        | F.Tt, g | g, F.Tt -> g
        | F.Ff, _ | _, F.Ff -> F.Ff
        | ga, gb -> F.And (ga, gb))
    | Formula.Or (a, b) -> (
        match (go a, go b) with
        | F.Ff, g | g, F.Ff -> g
        | F.Tt, _ | _, F.Tt -> F.Tt
        | ga, gb -> F.Or (ga, gb))
    | Formula.Next a -> F.X (go a)
    | Formula.Until (a, b) -> F.U (go a, go b)
    | Formula.Release (a, b) -> F.R (go a, go b)
  in
  let indexed = go f in
  (indexed, Array.of_list (List.rev !atoms))

(* All Until subformulas, in a fixed order: the generalized acceptance
   sets. *)
let untils_of indexed =
  let seen = ref FSet.empty in
  let out = ref [] in
  let rec scan (f : F.t) =
    match f with
    | F.Tt | F.Ff | F.Pos _ | F.Neg _ -> ()
    | F.And (a, b) | F.Or (a, b) | F.R (a, b) -> scan a; scan b
    | F.X a -> scan a
    | F.U (a, b) ->
        if not (FSet.mem f !seen) then begin
          seen := FSet.add f !seen;
          out := f :: !out
        end;
        scan a;
        scan b
  in
  scan indexed;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* GPVW expand-closure                                                 *)
(* ------------------------------------------------------------------ *)

type node = {
  id : int;
  mutable incoming : ISet.t;
  mutable nw : FSet.t;  (* obligations still to decompose *)
  mutable old : FSet.t;  (* decomposed obligations (defines the state) *)
  mutable nxt : FSet.t;  (* obligations passed to the successor *)
}

let build_gba indexed =
  let next_id = ref 1 in
  (* id 0 is the virtual "init" predecessor *)
  let fresh incoming nw old nxt =
    let id = !next_id in
    incr next_id;
    { id; incoming; nw; old; nxt }
  in
  let nodes : node list ref = ref [] in
  let add_new node f =
    if FSet.mem f node.old then () else node.nw <- FSet.add f node.nw
  in
  let rec expand node =
    match FSet.min_elt_opt node.nw with
    | None -> (
        match
          List.find_opt
            (fun nd ->
              FSet.equal nd.old node.old && FSet.equal nd.nxt node.nxt)
            !nodes
        with
        | Some nd -> nd.incoming <- ISet.union nd.incoming node.incoming
        | None ->
            nodes := node :: !nodes;
            expand
              (fresh (ISet.singleton node.id) node.nxt FSet.empty FSet.empty))
    | Some eta -> (
        node.nw <- FSet.remove eta node.nw;
        match eta with
        | F.Ff -> () (* contradiction: drop the node *)
        | F.Tt ->
            node.old <- FSet.add eta node.old;
            expand node
        | F.Pos a ->
            if FSet.mem (F.Neg a) node.old then ()
            else begin
              node.old <- FSet.add eta node.old;
              expand node
            end
        | F.Neg a ->
            if FSet.mem (F.Pos a) node.old then ()
            else begin
              node.old <- FSet.add eta node.old;
              expand node
            end
        | F.And (a, b) ->
            node.old <- FSet.add eta node.old;
            add_new node a;
            add_new node b;
            expand node
        | F.X a ->
            node.old <- FSet.add eta node.old;
            node.nxt <- FSet.add a node.nxt;
            expand node
        | F.Or (a, b) ->
            let n2 = fresh node.incoming node.nw node.old node.nxt in
            node.old <- FSet.add eta node.old;
            n2.old <- FSet.add eta n2.old;
            add_new node a;
            add_new n2 b;
            expand node;
            expand n2
        | F.U (a, b) ->
            (* U(a,b) = b \/ (a /\ X U(a,b)) *)
            let n2 = fresh node.incoming node.nw node.old node.nxt in
            node.old <- FSet.add eta node.old;
            n2.old <- FSet.add eta n2.old;
            add_new node a;
            node.nxt <- FSet.add eta node.nxt;
            add_new n2 b;
            expand node;
            expand n2
        | F.R (a, b) ->
            (* R(a,b) = (a /\ b) \/ (b /\ X R(a,b)) *)
            let n2 = fresh node.incoming node.nw node.old node.nxt in
            node.old <- FSet.add eta node.old;
            n2.old <- FSet.add eta n2.old;
            add_new node b;
            node.nxt <- FSet.add eta node.nxt;
            add_new n2 a;
            add_new n2 b;
            expand node;
            expand n2)
  in
  expand (fresh (ISet.singleton 0) (FSet.singleton indexed) FSet.empty FSet.empty);
  List.rev !nodes

(* ------------------------------------------------------------------ *)
(* Degeneralization and pruning                                        *)
(* ------------------------------------------------------------------ *)

(* Atom [a] is bit [a mod Sys.int_size] of word [a / Sys.int_size]. *)
let mark v a =
  let w = a / Sys.int_size in
  v.(w) <- v.(w) lor (1 lsl (a mod Sys.int_size))

let rec allows_from g v w =
  w = Array.length v
  || v.(w) land g.pos.(w) = g.pos.(w)
     && v.(w) land g.neg.(w) = 0
     && allows_from g v (w + 1)

let allows g v = allows_from g v 0

let guard_of_old words old =
  let pos = Array.make words 0 and neg = Array.make words 0 in
  FSet.iter
    (function F.Pos a -> mark pos a | F.Neg a -> mark neg a | _ -> ())
    old;
  { pos; neg }

let of_formula f =
  let indexed, atoms = intern (Formula.nnf f) in
  let nodes = build_gba indexed in
  let untils = untils_of indexed in
  let k = List.length untils in
  (* dense numbering of the GBA nodes *)
  let n_nodes = List.length nodes in
  let idx_of_id = Hashtbl.create 64 in
  List.iteri (fun i nd -> Hashtbl.add idx_of_id nd.id i) nodes;
  let node_arr = Array.of_list nodes in
  let words = (Array.length atoms + Sys.int_size - 1) / Sys.int_size in
  let guards = Array.map (fun nd -> guard_of_old words nd.old) node_arr in
  (* membership in each acceptance set: set for U(a,b) contains the nodes
     where the obligation is absent or already discharged (b in old) *)
  let in_set =
    Array.map
      (fun nd ->
        Array.of_list
          (List.map
             (fun u ->
               (not (FSet.mem u nd.old))
               ||
               match u with F.U (_, b) -> FSet.mem b nd.old | _ -> false)
             untils))
      node_arr
  in
  (* GBA edges: node [src] -> node [dst] for every src in dst.incoming;
     the guard lives on the destination (its "now" literals). *)
  let gba_succ = Array.make n_nodes [] in
  let gba_init = ref [] in
  Array.iteri
    (fun di nd ->
      ISet.iter
        (fun src_id ->
          if src_id = 0 then gba_init := di :: !gba_init
          else
            match Hashtbl.find_opt idx_of_id src_id with
            | Some si -> gba_succ.(si) <- di :: gba_succ.(si)
            | None -> () (* predecessor was dropped as contradictory *))
        nd.incoming)
    node_arr;
  let gba_succ = Array.map List.rev gba_succ in
  let gba_init = List.rev !gba_init in
  (* Degeneralize: counter copies (node, j), advancing on leaving a state
     of the j-th set; accepting = copy 0 inside set 0.  With no Until
     subformulas every state is accepting.  A node's guard constrains the
     letter read at the node, so every edge into (node, j) carries the
     node's own guard; the extra pre-initial state [iota] (no letter read
     yet) makes this uniform for the first letter. *)
  let copies = max 1 k in
  let b_idx n j = (n * copies) + j in
  let iota = n_nodes * copies in
  let size = iota + 1 in
  let delta = Array.make size [] in
  let accepting = Array.make size false in
  for n = 0 to n_nodes - 1 do
    for j = 0 to copies - 1 do
      let j' = if k = 0 then j else if in_set.(n).(j) then (j + 1) mod k else j in
      delta.(b_idx n j) <-
        List.map (fun d -> (guards.(d), b_idx d j')) gba_succ.(n);
      accepting.(b_idx n j) <- (k = 0) || (j = 0 && in_set.(n).(0))
    done
  done;
  delta.(iota) <- List.map (fun n -> (guards.(n), b_idx n 0)) gba_init;
  (* prune to the reachable part *)
  let reach = Array.make size false in
  let stack = ref [ iota ] in
  reach.(iota) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
        stack := rest;
        List.iter
          (fun (_, d) ->
            if not reach.(d) then begin
              reach.(d) <- true;
              stack := d :: !stack
            end)
          delta.(s)
  done;
  let remap = Array.make size (-1) in
  let count = ref 0 in
  for s = 0 to size - 1 do
    if reach.(s) then begin
      remap.(s) <- !count;
      incr count
    end
  done;
  let size' = !count in
  let delta' = Array.make (max size' 1) [] in
  let accepting' = Array.make (max size' 1) false in
  for s = 0 to size - 1 do
    if reach.(s) then begin
      delta'.(remap.(s)) <-
        List.map (fun (g, d) -> (g, remap.(d))) delta.(s);
      accepting'.(remap.(s)) <- accepting.(s)
    end
  done;
  {
    atoms;
    words;
    size = size';
    initial = remap.(iota);
    delta = delta';
    accepting = accepting';
  }

let pp_stats ppf ba =
  let edges = Array.fold_left (fun n l -> n + List.length l) 0 ba.delta in
  let acc =
    Array.fold_left (fun n a -> if a then n + 1 else n) 0 ba.accepting
  in
  Format.fprintf ppf "%d states, %d edges, %d accepting, %d atoms" ba.size
    edges acc (Array.length ba.atoms)
