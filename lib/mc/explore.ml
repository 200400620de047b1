type ('s, 'l) space = {
  lts : 'l Lts.Graph.t;
  states : 's array;
  complete : bool;
}

let default_max = 1_000_000

(* The state index shared by [space_run], [find] and [count]: open
   addressing with linear probing over int slots holding dense discovery
   ids (-1 = free).  An id indexes the parallel [states] and [hashes]
   arrays, so it is the state's BFS discovery number and the frontier is
   a range of ids rather than a queue.  The slot array is never more
   than half full; growth doubles it and re-slots every id from its
   cached hash, without calling [hash_state] again.

   The index starts small and grows: static state bounds overshoot the
   states a check actually stores by orders of magnitude, and doubling
   costs O(n) over a whole run.  An [expected_states] hint may lower the
   start for small systems, never raise it. *)
let default_capacity = 1024

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

module Index (S : System.S) = struct
  type t = {
    mutable slots : int array;
    mutable shift : int; (* 63 - log2 (Array.length slots) *)
    mutable states : S.state array; (* capacity: half the slots *)
    mutable hashes : int array;
    mutable count : int;
  }

  let make expected_states =
    let ids =
      match expected_states with
      | None -> default_capacity
      | Some n -> max 8 (min default_capacity n)
    in
    let rec bits b = if 1 lsl b >= 2 * ids then b else bits (b + 1) in
    let b = bits 1 in
    {
      slots = Array.make (1 lsl b) (-1);
      shift = 63 - b;
      states = Array.make (1 lsl (b - 1)) S.initial;
      hashes = Array.make (1 lsl (b - 1)) 0;
      count = 0;
    }

  (* Fibonacci hashing: the top bits of the product by 2^63/phi spread
     weak, clustered or negative hashes over the slots.  The literal
     wraps to a negative int; only its 63 bits matter. *)
  let home t h = (h * 0x4F1BBCDCBFA53E0B) lsr t.shift

  let grow t =
    let n = 2 * Array.length t.slots in
    let slots = Array.make n (-1) in
    t.slots <- slots;
    t.shift <- t.shift - 1;
    for id = 0 to t.count - 1 do
      let i = ref (home t t.hashes.(id)) in
      while slots.(!i) >= 0 do
        i := (!i + 1) land (n - 1)
      done;
      slots.(!i) <- id
    done;
    t.states <- extend t.states (n / 2) S.initial;
    t.hashes <- extend t.hashes (n / 2) 0

  let rec probe t s h i =
    let id = t.slots.(i) in
    if id < 0 then -1 - i
    else if t.hashes.(id) = h && S.equal_state t.states.(id) s then id
    else probe t s h ((i + 1) land (Array.length t.slots - 1))

  (* The id of [s] (whose hash is [h]) if stored, else [-1 - slot] for
     the free slot {!add} fills.  Room for one more state is made first,
     so that slot stays valid. *)
  let lookup t s h =
    if t.count = Array.length t.states then grow t;
    probe t s h (home t h)

  (* Store [s] under the next id, in the free slot named by [r < 0]. *)
  let add t s h r =
    let id = t.count in
    t.slots.(-1 - r) <- id;
    t.states.(id) <- s;
    t.hashes.(id) <- h;
    t.count <- id + 1;
    id

  let create () = make None
  let count t = t.count

  let intern t s ~max_states =
    let h = S.hash_state s in
    let r = lookup t s h in
    if r >= 0 then r else if t.count >= max_states then -1 else add t s h r
end

(* [set a i x] stores [x] at index [i] of the growable array [!a],
   doubling it (filled with [x]) when [i] is past its end. *)
let set a i x =
  if i >= Array.length !a then a := extend !a (max 16 (2 * i)) x;
  !a.(i) <- x

type exhaustion = { reason : Budget.reason; states_so_far : int }

let pp_exhaustion ppf e =
  Format.fprintf ppf "exhausted after %d states: %a" e.states_so_far
    Budget.pp_reason e.reason

type ('s, 'l) cursor = {
  c_max_states : int;
  c_states : 's array; (* discovery order; index = state id *)
  c_offsets : int array; (* the rows of the expanded ids, as in Lts.Graph *)
  c_targets : int array;
  c_labels : 'l array;
  c_complete : bool;
}

let cursor_states c = Array.length c.c_states
let cursor_frontier c = Array.length c.c_states - (Array.length c.c_offsets - 1)

type ('s, 'l) run_result =
  | Done of ('s, 'l) space
  | Suspended of Budget.reason * ('s, 'l) cursor

let space_run (type s l) ?(max_states = default_max) ?expected_states ?budget
    ?checkpoint ?resume (sys : (s, l) System.t) : (s, l) run_result =
  let module S = (val sys) in
  let module I = Index (S) in
  let index = I.make expected_states in
  let complete = ref true in
  (* The rows of the expanded states, as in [Lts.Graph]: ids are
     expanded in order, so state [i]'s row is appended when [i] is
     expanded, and [offsets] has an entry past the last expanded id.
     The arrays grow by doubling; [trans] is the number of transitions. *)
  let offsets = ref [| 0 |] in
  let targets = ref [||] in
  let labels = ref [||] in
  let trans = ref 0 in
  (* The frontier: every id from [head] on. *)
  let head = ref 0 in
  (match resume with
  | None -> ignore (I.intern index S.initial ~max_states:max_int)
  | Some c ->
      if c.c_max_states <> max_states then
        invalid_arg
          (Printf.sprintf
             "Mc.Explore.space_run: checkpoint was taken with \
              max_states=%d, resumed with %d"
             c.c_max_states max_states);
      (* Re-interning in discovery order reproduces the index and its
         ids exactly, so the continuation is byte-identical to an
         uninterrupted run.  The cursor's arrays are exactly full, so
         the first append copies them rather than writing into them. *)
      Array.iter
        (fun s -> ignore (I.intern index s ~max_states:max_int))
        c.c_states;
      offsets := c.c_offsets;
      targets := c.c_targets;
      labels := c.c_labels;
      trans := Array.length c.c_targets;
      complete := c.c_complete;
      head := Array.length c.c_offsets - 1);
  let snapshot () =
    {
      c_max_states = max_states;
      c_states = Array.sub index.I.states 0 index.I.count;
      c_offsets = Array.sub !offsets 0 (!head + 1);
      c_targets = Array.sub !targets 0 !trans;
      c_labels = Array.sub !labels 0 !trans;
      c_complete = !complete;
    }
  in
  let append l r =
    set targets !trans r;
    set labels !trans l;
    incr trans
  in
  let expanded = ref 0 in
  let suspended = ref None in
  (try
     while !head < index.I.count do
       (match Option.bind budget Budget.check with
       | Some r ->
           suspended := Some (Suspended (r, snapshot ()));
           raise Exit
       | None -> ());
       let i = !head in
       incr head;
       List.iter
         (fun (l, s') ->
           (* Truncation contract: once the bound is reached no new state
              is interned, but every retained state is still expanded and
              transitions between retained states are kept — the result
              is the induced subgraph on the first [max_states] states in
              BFS discovery order (see the .mli). *)
           let h = S.hash_state s' in
           let r = I.lookup index s' h in
           if r >= 0 then append l r
           else if index.I.count < max_states then
             append l (I.add index s' h r)
           else complete := false)
         (S.successors index.I.states.(i));
       set offsets !head !trans;
       incr expanded;
       match checkpoint with
       | Some (every, f) when every > 0 && !expanded mod every = 0 ->
           f (snapshot ())
       | _ -> ()
     done
   with Exit -> ());
  match !suspended with
  | Some r -> r
  | None ->
      let n = index.I.count in
      let lts =
        Lts.Graph.of_rows ~initial:0
          ~offsets:(Array.sub !offsets 0 (n + 1))
          ~targets:(Array.sub !targets 0 !trans)
          ~labels:(Array.sub !labels 0 !trans)
      in
      Done { lts; states = Array.sub index.I.states 0 n; complete = !complete }

let space ?max_states ?expected_states sys =
  match space_run ?max_states ?expected_states sys with
  | Done sp -> sp
  | Suspended _ -> assert false (* no budget, cannot suspend *)

type ('s, 'l) witness = { trace : 'l list; state : 's }

type ('s, 'l) verdict =
  | Unreachable
  | Reached of ('s, 'l) witness
  | Bound_hit of int
  | Exhausted of exhaustion

let find (type s l) ?(max_states = default_max) ?expected_states ?budget ~goal
    (sys : (s, l) System.t) : (s, l) verdict =
  let module S = (val sys) in
  let module I = Index (S) in
  if goal S.initial then Reached { trace = []; state = S.initial }
  else begin
    let index = I.make expected_states in
    (* Shortest-trace reconstruction: the parent id and the label that
       discovered each state, by id (the initial state is id 0). *)
    let parents = ref [||] in
    let labels = ref [||] in
    let rebuild j =
      let rec go i acc =
        if i = 0 then acc else go !parents.(i) (!labels.(i) :: acc)
      in
      go j []
    in
    ignore (I.intern index S.initial ~max_states:max_int);
    let head = ref 0 in
    let result = ref None in
    let exhausted = ref None in
    let truncated = ref false in
    (try
       while !head < index.I.count do
         (match Option.bind budget Budget.check with
         | Some r ->
             exhausted := Some r;
             raise Exit
         | None -> ());
         let i = !head in
         incr head;
         List.iter
           (fun (l, s') ->
             let h = S.hash_state s' in
             let r = I.lookup index s' h in
             if r < 0 then
               if index.I.count >= max_states then truncated := true
               else begin
                 let j = I.add index s' h r in
                 set parents j i;
                 set labels j l;
                 if goal s' then begin
                   result := Some (rebuild j, s');
                   raise Exit
                 end
               end)
           (S.successors index.I.states.(i))
       done
     with Exit -> ());
    match (!result, !exhausted) with
    | Some (trace, state), _ -> Reached { trace; state }
    | None, Some reason ->
        Exhausted { reason; states_so_far = index.I.count }
    | None, None -> if !truncated then Bound_hit max_states else Unreachable
  end

let count (type s l) ?(max_states = default_max) ?expected_states ?budget
    (sys : (s, l) System.t) =
  let module S = (val sys) in
  let module I = Index (S) in
  let index = I.make expected_states in
  ignore (I.intern index S.initial ~max_states:max_int);
  let head = ref 0 in
  let complete = ref true in
  (try
     while !head < index.I.count do
       if Option.is_some (Option.bind budget Budget.check) then begin
         complete := false;
         raise Exit
       end;
       let s = index.I.states.(!head) in
       incr head;
       List.iter
         (fun (_, s') ->
           let h = S.hash_state s' in
           let r = I.lookup index s' h in
           if r < 0 then
             if index.I.count >= max_states then complete := false
             else ignore (I.add index s' h r))
         (S.successors s)
     done
   with Exit -> ());
  (index.I.count, !complete)
