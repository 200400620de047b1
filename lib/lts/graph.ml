type 'l t = {
  num_states : int;
  initial : int;
  trans : (int * 'l * int) array;
  succ : int list array; (* indices into [trans], per source state *)
}

let make ~num_states ~initial transitions =
  let check s =
    if s < 0 || s >= num_states then
      invalid_arg (Printf.sprintf "Lts.Graph.make: state %d out of range" s)
  in
  check initial;
  List.iter (fun (s, _, s') -> check s; check s') transitions;
  let trans = Array.of_list transitions in
  let succ = Array.make num_states [] in
  for i = Array.length trans - 1 downto 0 do
    let s, _, _ = trans.(i) in
    succ.(s) <- i :: succ.(s)
  done;
  { num_states; initial; trans; succ }

let num_states t = t.num_states
let num_transitions t = Array.length t.trans
let initial t = t.initial

let successors t s =
  List.map (fun i -> let _, l, s' = t.trans.(i) in (l, s')) t.succ.(s)

let transitions t = Array.to_list t.trans

let fold_transitions f t acc =
  Array.fold_left (fun acc (s, l, s') -> f s l s' acc) acc t.trans

let labels t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun (_, l, _) ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.add seen l ();
        out := l :: !out
      end)
    t.trans;
  List.rev !out

let deadlocks t =
  let rec collect s acc =
    if s < 0 then acc
    else collect (s - 1) (if t.succ.(s) = [] then s :: acc else acc)
  in
  collect (t.num_states - 1) []

let reachable t =
  let seen = Array.make t.num_states false in
  let rec dfs s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter (fun i -> let _, _, s' = t.trans.(i) in dfs s') t.succ.(s)
    end
  in
  dfs t.initial;
  seen

let predecessors t =
  let pred = Array.make t.num_states [] in
  for i = Array.length t.trans - 1 downto 0 do
    let s, _, s' = t.trans.(i) in
    pred.(s') <- s :: pred.(s')
  done;
  pred

(* Tarjan, iterative: an explicit work stack of (state, next-successor
   cursor) frames replaces the recursion, so deep graphs (long BFS chains
   of product spaces) cannot overflow the OCaml stack. *)
let scc t =
  let n = t.num_states in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let tarjan_stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let succs s = Array.of_list t.succ.(s) in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* frames: (state, successor array, cursor) *)
      let frames = ref [ (root, succs root, ref 0) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      tarjan_stack := root :: !tarjan_stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (s, edges, cursor) :: rest ->
            if !cursor < Array.length edges then begin
              let _, _, s' = t.trans.(edges.(!cursor)) in
              incr cursor;
              if index.(s') < 0 then begin
                index.(s') <- !next_index;
                lowlink.(s') <- !next_index;
                incr next_index;
                tarjan_stack := s' :: !tarjan_stack;
                on_stack.(s') <- true;
                frames := (s', succs s', ref 0) :: !frames
              end
              else if on_stack.(s') then
                lowlink.(s) <- min lowlink.(s) index.(s')
            end
            else begin
              frames := rest;
              (match rest with
              | (parent, _, _) :: _ ->
                  lowlink.(parent) <- min lowlink.(parent) lowlink.(s)
              | [] -> ());
              if lowlink.(s) = index.(s) then begin
                let rec pop () =
                  match !tarjan_stack with
                  | [] -> ()
                  | v :: vs ->
                      tarjan_stack := vs;
                      on_stack.(v) <- false;
                      comp.(v) <- !next_comp;
                      if v <> s then pop ()
                in
                pop ();
                incr next_comp
              end
            end
      done
    end
  done;
  (!next_comp, comp)

let trace_to t goal =
  if goal t.initial then Some []
  else begin
    let visited = Array.make t.num_states false in
    (* [parent.(s)] records the transition index that first reached [s]. *)
    let parent = Array.make t.num_states (-1) in
    let queue = Queue.create () in
    visited.(t.initial) <- true;
    Queue.add t.initial queue;
    let found = ref (-1) in
    (try
       while not (Queue.is_empty queue) do
         let s = Queue.pop queue in
         List.iter
           (fun i ->
             let _, _, s' = t.trans.(i) in
             if not visited.(s') then begin
               visited.(s') <- true;
               parent.(s') <- i;
               if goal s' then begin
                 found := s';
                 raise Exit
               end;
               Queue.add s' queue
             end)
           t.succ.(s)
       done
     with Exit -> ());
    if !found < 0 then None
    else begin
      let rec build s acc =
        if s = t.initial then acc
        else
          let i = parent.(s) in
          let src, l, _ = t.trans.(i) in
          build src (l :: acc)
      in
      Some (build !found [])
    end
  end

let pp_stats ppf t =
  Format.fprintf ppf "%d states, %d transitions, %d deadlocks" t.num_states
    (num_transitions t)
    (List.length (deadlocks t))
