(* Compressed sparse rows: the transitions of state [s] are the indices
   [offsets.(s)] to [offsets.(s + 1) - 1] of [targets] and [labels], so
   [offsets] has [num_states + 1] entries and the rows lie in source
   order. *)
type 'l t = {
  initial : int;
  offsets : int array;
  targets : int array;
  labels : 'l array;
}

let out_of_range fn s =
  invalid_arg (Printf.sprintf "Lts.Graph.%s: state %d out of range" fn s)

(* A counting sort by source: stable, so each source keeps the order its
   transitions had in the list. *)
let make ~num_states ~initial transitions =
  let check s = if s < 0 || s >= num_states then out_of_range "make" s in
  check initial;
  let offsets = Array.make (num_states + 1) 0 in
  List.iter
    (fun (s, _, s') ->
      check s;
      check s';
      offsets.(s + 1) <- offsets.(s + 1) + 1)
    transitions;
  for s = 1 to num_states do
    offsets.(s) <- offsets.(s) + offsets.(s - 1)
  done;
  match transitions with
  | [] -> { initial; offsets; targets = [||]; labels = [||] }
  | (_, l0, _) :: _ ->
      let m = offsets.(num_states) in
      let targets = Array.make m 0 and labels = Array.make m l0 in
      let next = Array.sub offsets 0 num_states in
      List.iter
        (fun (s, l, s') ->
          let e = next.(s) in
          targets.(e) <- s';
          labels.(e) <- l;
          next.(s) <- e + 1)
        transitions;
      { initial; offsets; targets; labels }

let of_rows ~initial ~offsets ~targets ~labels =
  let n = Array.length offsets - 1 and m = Array.length targets in
  let framed = ref (n >= 0 && offsets.(0) = 0 && offsets.(n) = m) in
  for s = 0 to n - 1 do
    framed := !framed && offsets.(s) <= offsets.(s + 1)
  done;
  if not (!framed && Array.length labels = m) then
    invalid_arg "Lts.Graph.of_rows: offsets do not frame the rows";
  let check s = if s < 0 || s >= n then out_of_range "of_rows" s in
  check initial;
  Array.iter check targets;
  { initial; offsets; targets; labels }

let num_states t = Array.length t.offsets - 1
let num_transitions t = Array.length t.targets
let initial t = t.initial

let successors t s =
  let acc = ref [] in
  for e = t.offsets.(s + 1) - 1 downto t.offsets.(s) do
    acc := (t.labels.(e), t.targets.(e)) :: !acc
  done;
  !acc

let fold_transitions f t acc =
  let acc = ref acc in
  for s = 0 to num_states t - 1 do
    for e = t.offsets.(s) to t.offsets.(s + 1) - 1 do
      acc := f s t.labels.(e) t.targets.(e) !acc
    done
  done;
  !acc

let transitions t =
  List.rev (fold_transitions (fun s l s' acc -> (s, l, s') :: acc) t [])

let labels t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun l ->
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.add seen l ();
        out := l :: !out
      end)
    t.labels;
  List.rev !out

let deadlocks t =
  let rec collect s acc =
    if s < 0 then acc
    else
      collect (s - 1)
        (if t.offsets.(s) = t.offsets.(s + 1) then s :: acc else acc)
  in
  collect (num_states t - 1) []

let reachable t =
  let seen = Array.make (num_states t) false in
  let rec dfs s =
    if not seen.(s) then begin
      seen.(s) <- true;
      for e = t.offsets.(s) to t.offsets.(s + 1) - 1 do
        dfs t.targets.(e)
      done
    end
  in
  dfs t.initial;
  seen

let predecessors t =
  let pred = Array.make (num_states t) [] in
  for s = num_states t - 1 downto 0 do
    for e = t.offsets.(s + 1) - 1 downto t.offsets.(s) do
      let s' = t.targets.(e) in
      pred.(s') <- s :: pred.(s')
    done
  done;
  pred

(* Tarjan, iterative: the recursion becomes two int arrays, the states
   on the call path and the next edge of each, so deep graphs (long BFS
   chains of product spaces) cannot overflow the OCaml stack, and a
   frame allocates nothing.  A state is on the call path at most once,
   so [num_states] frames suffice, and the same bound holds for the
   Tarjan stack. *)
let scc t =
  let n = num_states t in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Bytes.make n '\000' in
  let comp = Array.make n (-1) in
  let tarjan = Array.make n 0 and tarjan_top = ref 0 in
  let path = Array.make n 0 and cursor = Array.make n 0 and depth = ref 0 in
  let next_index = ref 0 and next_comp = ref 0 in
  let visit s =
    index.(s) <- !next_index;
    lowlink.(s) <- !next_index;
    incr next_index;
    tarjan.(!tarjan_top) <- s;
    incr tarjan_top;
    Bytes.set on_stack s '\001';
    path.(!depth) <- s;
    cursor.(!depth) <- t.offsets.(s);
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !depth > 0 do
        let top = !depth - 1 in
        let s = path.(top) in
        let e = cursor.(top) in
        if e < t.offsets.(s + 1) then begin
          cursor.(top) <- e + 1;
          let s' = t.targets.(e) in
          if index.(s') < 0 then visit s'
          else if Bytes.get on_stack s' <> '\000' then
            lowlink.(s) <- min lowlink.(s) index.(s')
        end
        else begin
          depth := top;
          if top > 0 then begin
            let parent = path.(top - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(s)
          end;
          if lowlink.(s) = index.(s) then begin
            let rec pop () =
              decr tarjan_top;
              let v = tarjan.(!tarjan_top) in
              Bytes.set on_stack v '\000';
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
    let n = num_states t in
    let visited = Array.make n false in
    (* [parent.(s)] and [edge.(s)]: the state and the transition that
       first reached [s]. *)
    let parent = Array.make n (-1) and edge = Array.make n (-1) in
    let queue = Queue.create () in
    visited.(t.initial) <- true;
    Queue.add t.initial queue;
    let found = ref (-1) in
    (try
       while not (Queue.is_empty queue) do
         let s = Queue.pop queue in
         for e = t.offsets.(s) to t.offsets.(s + 1) - 1 do
           let s' = t.targets.(e) in
           if not visited.(s') then begin
             visited.(s') <- true;
             parent.(s') <- s;
             edge.(s') <- e;
             if goal s' then begin
               found := s';
               raise Exit
             end;
             Queue.add s' queue
           end
         done
       done
     with Exit -> ());
    if !found < 0 then None
    else begin
      let rec build s acc =
        if s = t.initial then acc
        else build parent.(s) (t.labels.(edge.(s)) :: acc)
      in
      Some (build !found [])
    end
  end

let pp_stats ppf t =
  Format.fprintf ppf "%d states, %d transitions, %d deadlocks" (num_states t)
    (num_transitions t)
    (List.length (deadlocks t))
