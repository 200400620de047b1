type 'l step = Step of 'l | Stutter
type 'l lasso = { prefix : 'l step list; cycle : 'l step list }
type stutter_policy = Extend | Ignore
type 'l fairness = { fname : string; premise : 'l Formula.t }

let often name p =
  { fname = name; premise = Formula.infinitely_often (Formula.lbl name p) }

let response name ~trigger ~response =
  {
    fname = name;
    premise =
      Formula.implies
        (Formula.infinitely_often (Formula.lbl (name ^ ".trigger") trigger))
        (Formula.infinitely_often (Formula.lbl (name ^ ".response") response));
  }

type 'l verdict =
  | Holds
  | Refuted of 'l lasso
  | Unknown of int
  | Exhausted of Mc.Explore.exhaustion

type engine = Ndfs | Scc

(* A suspended product-space build (Scc engine): the cursor ranges over
   product states [('s * int)] and step labels. *)
type ('s, 'l) product_cursor = ('s * int, 'l step) Mc.Explore.cursor

type ('s, 'l) run_result =
  | Concluded of 'l verdict
  | Suspended of Mc.Budget.reason * ('s, 'l) product_cursor

(* ------------------------------------------------------------------ *)
(* Büchi product                                                       *)
(* ------------------------------------------------------------------ *)

(* The guards are compiled (see {!Buchi.guard}), so a product state
   evaluates each atom once, not once per Büchi edge that reads it: the
   [Enabled] atoms on the system state's successor labels, into [now],
   then for each system transition the [Lbl] atoms on its label, into
   [v] on top of [now].  Each Büchi edge is then one test of [v].  The
   edges keep the order of the uncompiled product: system successors in
   order, and for each one the Büchi edges in [delta] order.  The edges
   of one system transition share one [Step] label, made when the first
   of them is kept. *)
let product (type s l) ((module S) : (s, l) Mc.System.t) (ba : l Buchi.t)
    ~stutter : (s * int, l step) Mc.System.t * ((s * int) -> bool) =
  let words = ba.Buchi.words in
  let pred a = ba.Buchi.atoms.(a).Buchi.pred in
  let atoms kind =
    List.init (Array.length ba.Buchi.atoms) Fun.id
    |> List.filter (fun a -> ba.Buchi.atoms.(a).Buchi.kind = kind)
    |> Array.of_list
  in
  let label_atoms = atoms Buchi.Label and state_atoms = atoms Buchi.State in
  let module P = struct
    type state = s * int
    type label = l step

    let initial = (S.initial, ba.Buchi.initial)

    let successors (s, q) =
      let edges = ba.Buchi.delta.(q) in
      match S.successors s with
      | [] -> (
          match stutter with
          | Ignore -> []
          | Extend ->
              (* virtual stutter self-loop: no label, nothing enabled *)
              let none = Array.make words 0 in
              List.filter_map
                (fun (g, q') ->
                  if Buchi.allows g none then Some (Stutter, (s, q')) else None)
                edges)
      | succs ->
          let now = Array.make words 0 in
          for k = 0 to Array.length state_atoms - 1 do
            let a = state_atoms.(k) in
            if List.exists (fun (l, _) -> pred a l) succs then Buchi.mark now a
          done;
          let v = Array.make words 0 in
          let rec over = function
            | [] -> []
            | (l, s') :: rest ->
                for w = 0 to words - 1 do
                  v.(w) <- now.(w)
                done;
                for k = 0 to Array.length label_atoms - 1 do
                  let a = label_atoms.(k) in
                  if pred a l then Buchi.mark v a
                done;
                (* [Stutter] stands for "no [Step] made yet" *)
                let rec along step = function
                  | [] -> over rest
                  | (g, q') :: more ->
                      if Buchi.allows g v then
                        let step =
                          match step with Stutter -> Step l | st -> st
                        in
                        (step, (s', q')) :: along step more
                      else along step more
                in
                along Stutter edges
          in
          over succs

    let equal_state (s1, q1) (s2, q2) = q1 = q2 && S.equal_state s1 s2
    let hash_state (s, q) = (S.hash_state s * 131) + q
    let pp_state ppf (s, q) = Format.fprintf ppf "%a@@q%d" S.pp_state s q

    let pp_label ppf = function
      | Step l -> S.pp_label ppf l
      | Stutter -> Format.pp_print_string ppf "(stutter)"
  end in
  ((module P), fun (_, q) -> ba.Buchi.accepting.(q))

(* ------------------------------------------------------------------ *)
(* Emptiness engines                                                   *)
(* ------------------------------------------------------------------ *)

(* Shared result type: labels of a lasso witness, a truncation count, a
   budget trip mid-search ([SExh], NDFS), or a suspended space build
   with its resume cursor ([SSusp], SCC). *)
type ('p, 'm) search =
  | SEmpty
  | SNonempty of 'm list * 'm list
  | STrunc of int
  | SExh of Mc.Budget.reason * int
  | SSusp of Mc.Budget.reason * ('p, 'm) Mc.Explore.cursor

(* Nested DFS (Courcoubetis–Vardi–Wolper–Yannakakis, with the cyan-state
   improvement of Schwoon–Esparza): a blue DFS explores the product; at
   the postorder of every accepting state a red DFS hunts for a path back
   onto the blue stack (the cyan states).  A red hit at stack depth [d]
   closes an accepting cycle through the seed; a blue edge onto a cyan
   state closes one directly when either endpoint accepts.  Both DFSs are
   iterative with explicit frames — product stacks can be far deeper than
   the OCaml call stack allows.  States are numbered by the explorer's
   open-addressing index, and their colours are flat arrays by number. *)
let ndfs_emptiness (type p m) ?budget ((module P) : (p, m) Mc.System.t)
    ~(accepting : p -> bool) ~max_states =
  let module I = Mc.Explore.Index (P) in
  let module M = struct
    type frame = {
      st : p;
      id : int;
      inlab : m option;
      mutable succs : (m * p) list;
    }

    exception Lasso of m list * m list
    exception Bound
    exception Exh of Mc.Budget.reason
  end in
  let open M in
  let index = I.create () in
  (* The colours, by id, growing with the index: [cyan.(id)] is the
     state's depth on the blue stack (-1 when it is not on it), and
     [marks] holds its [blue] and [red] bits. *)
  let cyan = ref (Array.make 1024 (-1)) in
  let marks = ref (Bytes.make 1024 '\000') in
  let blue = 1 and red = 2 in
  let has id c = Char.code (Bytes.get !marks id) land c <> 0 in
  let paint id c =
    Bytes.set !marks id (Char.chr (Char.code (Bytes.get !marks id) lor c))
  in
  let intern s =
    (* polled on every product-state touch; [Budget.check] rate-limits
       the expensive probes internally *)
    (match budget with
    | Some b -> (
        match Mc.Budget.check b with
        | Some r -> raise (Exh r)
        | None -> ())
    | None -> ());
    let id = I.intern index s ~max_states in
    if id < 0 then raise Bound;
    (* ids are dense, so a new one is at most one past the end *)
    let n = Array.length !cyan in
    if id = n then begin
      let c = Array.make (2 * n) (-1) and b = Bytes.make (2 * n) '\000' in
      Array.blit !cyan 0 c 0 n;
      Bytes.blit !marks 0 b 0 n;
      cyan := c;
      marks := b
    end;
    id
  in
  (* Lasso extraction.  [blue] is the blue stack (top first), [d] the
     cyan depth of the state the closing edge re-enters, [red_labels] the
     labels of the red path from the seed (empty when the blue DFS closed
     the cycle itself), [l] the closing edge's label. *)
  let extract blue d red_labels l =
    let arr = Array.of_list (List.rev blue) in
    let prefix = ref [] and cycle = ref [] in
    Array.iteri
      (fun i fr ->
        match fr.inlab with
        | None -> ()
        | Some lab ->
            if i <= d then prefix := lab :: !prefix
            else cycle := lab :: !cycle)
      arr;
    (List.rev !prefix, List.rev !cycle @ red_labels @ [ l ])
  in
  let red_dfs seed seed_id blue =
    let rstack =
      ref [ { st = seed; id = seed_id; inlab = None; succs = P.successors seed } ]
    in
    while !rstack <> [] do
      match !rstack with
      | [] -> ()
      | fr :: rest -> (
          match fr.succs with
          | [] -> rstack := rest
          | (l, t) :: more ->
              fr.succs <- more;
              let rt = intern t in
              if !cyan.(rt) >= 0 then begin
                let red_labels =
                  List.filter_map (fun f -> f.inlab) (List.rev !rstack)
                in
                let prefix, cycle = extract blue !cyan.(rt) red_labels l in
                raise (Lasso (prefix, cycle))
              end
              else if not (has rt red) then begin
                paint rt red;
                rstack :=
                  { st = t; id = rt; inlab = Some l; succs = P.successors t }
                  :: !rstack
              end)
    done
  in
  try
    let init = P.initial in
    let i0 = intern init in
    !cyan.(i0) <- 0;
    let stack =
      ref [ { st = init; id = i0; inlab = None; succs = P.successors init } ]
    in
    let depth = ref 0 in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | frame :: rest -> (
          match frame.succs with
          | (l, t) :: more ->
              frame.succs <- more;
              let rt = intern t in
              if !cyan.(rt) >= 0 then begin
                if accepting frame.st || accepting t then begin
                  let prefix, cycle = extract !stack !cyan.(rt) [] l in
                  raise (Lasso (prefix, cycle))
                end
              end
              else if not (has rt blue) then begin
                incr depth;
                !cyan.(rt) <- !depth;
                stack :=
                  { st = t; id = rt; inlab = Some l; succs = P.successors t }
                  :: !stack
              end
          | [] ->
              if accepting frame.st then red_dfs frame.st frame.id !stack;
              !cyan.(frame.id) <- -1;
              paint frame.id blue;
              stack := rest;
              decr depth)
    done;
    SEmpty
  with
  | Lasso (prefix, cycle) -> SNonempty (prefix, cycle)
  | Bound -> STrunc (I.count index)
  | Exh r -> SExh (r, I.count index)

(* Shortest path from the initial state to a goal state: labels plus the
   state reached. *)
let bfs_to g goal =
  let n = max (Lts.Graph.num_states g) 1 in
  let parent = Array.make n (-1) in
  let plabel = Array.make n None in
  let visited = Array.make n false in
  let init = Lts.Graph.initial g in
  let q = Queue.create () in
  let found = ref None in
  visited.(init) <- true;
  (try
     if goal init then begin
       found := Some init;
       raise Exit
     end;
     Queue.add init q;
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       List.iter
         (fun (l, v) ->
           if not visited.(v) then begin
             visited.(v) <- true;
             parent.(v) <- u;
             plabel.(v) <- Some l;
             if goal v then begin
               found := Some v;
               raise Exit
             end;
             Queue.add v q
           end)
         (Lts.Graph.successors g u)
     done
   with Exit -> ());
  match !found with
  | None -> None
  | Some v ->
      let rec build v acc =
        if parent.(v) < 0 then acc
        else build parent.(v) (Option.get plabel.(v) :: acc)
      in
      Some (build v [], v)

(* Shortest nonempty cycle through [a] staying inside component [c]. *)
let bfs_cycle g comp c a =
  let n = max (Lts.Graph.num_states g) 1 in
  let parent = Array.make n (-1) in
  let plabel = Array.make n None in
  let visited = Array.make n false in
  let q = Queue.create () in
  let result = ref None in
  let rec build u acc =
    if parent.(u) < 0 then Option.get plabel.(u) :: acc
    else build parent.(u) (Option.get plabel.(u) :: acc)
  in
  (try
     List.iter
       (fun (l, v) ->
         if comp.(v) = c then
           if v = a then begin
             result := Some [ l ];
             raise Exit
           end
           else if not visited.(v) then begin
             visited.(v) <- true;
             plabel.(v) <- Some l;
             Queue.add v q
           end)
       (Lts.Graph.successors g a);
     while not (Queue.is_empty q) do
       let u = Queue.pop q in
       List.iter
         (fun (l, v) ->
           if comp.(v) = c then
             if v = a then begin
               result := Some (build u [ l ]);
               raise Exit
             end
             else if not visited.(v) then begin
               visited.(v) <- true;
               parent.(v) <- u;
               plabel.(v) <- Some l;
               Queue.add v q
             end)
         (Lts.Graph.successors g u)
     done
   with Exit -> ());
  match !result with
  | Some c -> c
  | None -> assert false (* [a] sits in a nontrivial SCC: a cycle exists *)

(* SCC engine: build the product graph, find a nontrivial strongly
   connected component containing an accepting state, then extract the
   shortest lasso into it by breadth-first search — deterministic, and
   minimal in prefix length. *)
let scc_emptiness (type p m) ?budget ?checkpoint ?resume
    (sys : (p, m) Mc.System.t) ~(accepting : p -> bool) ~max_states =
  match Mc.Explore.space_run ~max_states ?budget ?checkpoint ?resume sys with
  | Mc.Explore.Suspended (reason, cursor) -> SSusp (reason, cursor)
  | Mc.Explore.Done space ->
  let g = space.Mc.Explore.lts in
  let count, comp = Lts.Graph.scc g in
  let nontrivial = Array.make (max count 1) false in
  Lts.Graph.fold_transitions
    (fun u _ v () -> if comp.(u) = comp.(v) then nontrivial.(comp.(u)) <- true)
    g ();
  let qual s =
    accepting space.Mc.Explore.states.(s) && nontrivial.(comp.(s))
  in
  (* every state of the space is reachable, so the search for the
     nearest qualifying state can be skipped when none qualifies *)
  let rec any s = s < Lts.Graph.num_states g && (qual s || any (s + 1)) in
  match if any 0 then bfs_to g qual else None with
  | Some (prefix, a) ->
      (* the truncated graph only contains real transitions, so a cycle
         found under an exhausted bound is still a genuine witness *)
      SNonempty (prefix, bfs_cycle g comp comp.(a) a)
  | None ->
      if space.Mc.Explore.complete then SEmpty
      else STrunc (Lts.Graph.num_states g)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let check_run ?(engine = Ndfs) ?(stutter = Extend) ?(fairness = [])
    ?reduction ?(max_states = Mc.Explore.default_max) ?budget ?checkpoint
    ?resume sys f =
  (match engine with
  | Scc -> ()
  | Ndfs ->
      if checkpoint <> None || resume <> None then
        invalid_arg
          "Ltl.Check: checkpoint/resume requires the Scc engine (the \
           nested-DFS search state is not checkpointable)");
  let checked =
    match fairness with
    | [] -> f
    | fs -> Formula.implies (Formula.conj (List.map (fun c -> c.premise) fs)) f
  in
  (* Partial-order reduction is sound only for stutter-invariant
     formulas over a pure label alphabet; the fairness premises are part
     of what the Büchi automaton watches, so [checked] — not [f] — must
     pass the classifier.  Otherwise fall back to the full system. *)
  let sys =
    match reduction with
    | None -> sys
    | Some build -> (
        if not (Formula.stutter_invariant checked) then sys
        else
          match Formula.alphabet checked with
          | None -> sys
          | Some alphabet -> (
              match build ~alphabet with Some reduced -> reduced | None -> sys))
  in
  (* a counterexample run satisfies [premises /\ not f] *)
  let ba = Buchi.of_formula (Formula.nnf (Formula.Not checked)) in
  let psys, accepting = product sys ba ~stutter in
  let result =
    match engine with
    | Ndfs -> ndfs_emptiness ?budget psys ~accepting ~max_states
    | Scc ->
        scc_emptiness ?budget ?checkpoint ?resume psys ~accepting ~max_states
  in
  match result with
  | SEmpty -> Concluded Holds
  | SNonempty (prefix, cycle) -> Concluded (Refuted { prefix; cycle })
  | STrunc n -> Concluded (Unknown n)
  | SExh (reason, n) ->
      Concluded (Exhausted { Mc.Explore.reason; states_so_far = n })
  | SSusp (reason, cursor) -> Suspended (reason, cursor)

let check ?engine ?stutter ?fairness ?reduction ?max_states ?budget sys f =
  match check_run ?engine ?stutter ?fairness ?reduction ?max_states ?budget sys f with
  | Concluded v -> v
  | Suspended (reason, cursor) ->
      (* no checkpoint sink was given, so fold the suspension into the
         qualified verdict *)
      Exhausted
        { Mc.Explore.reason; states_so_far = Mc.Explore.cursor_states cursor }

let holds = function
  | Holds -> true
  | Refuted _ | Unknown _ | Exhausted _ -> false

let strip steps =
  List.filter_map (function Step l -> Some l | Stutter -> None) steps

let pp_step ~pp_label ppf = function
  | Step l -> pp_label ppf l
  | Stutter -> Format.pp_print_string ppf "(stutter)"

let pp_verdict ~pp_label ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Unknown n -> Format.fprintf ppf "unknown (state bound hit at %d)" n
  | Exhausted e -> Mc.Explore.pp_exhaustion ppf e
  | Refuted { prefix; cycle } ->
      Format.fprintf ppf "@[<v>refuted by lasso:@,";
      List.iter
        (fun s -> Format.fprintf ppf "  %a@," (pp_step ~pp_label) s)
        prefix;
      Format.fprintf ppf "  -- cycle --@,";
      List.iter
        (fun s -> Format.fprintf ppf "  %a@," (pp_step ~pp_label) s)
        cycle;
      Format.fprintf ppf "@]"
