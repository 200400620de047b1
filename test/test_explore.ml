(* Differential tests for the sequential explorer's open-addressing state
   index.  [Reference] is the explorer as it was before the index: a
   [Hashtbl.Make] table, a [Queue] of frontier entries and an option
   parent array.  On random systems and on three adversarial ones (every
   hash zero, hashes that overflow negative, a space that forces more
   than ten doublings) [Mc.Explore] must agree with it exactly: [find]
   verdicts and witness traces, [count], [space] states and transition
   order, and budget-tripped [space_run] resumed to completion.  A last
   case pins the allocation of a small heartbeat check. *)

let check = Alcotest.check

module Reference = struct
  open Mc.Explore

  module Table (S : Mc.System.S) = Hashtbl.Make (struct
    type t = S.state

    let equal = S.equal_state
    let hash = S.hash_state
  end)

  (* A cursor's rows hold the transitions of its expanded ids, grouped
     by source in id order; the reference keeps them as a list, newest
     first. *)
  let transitions_of_rows c =
    let acc = ref [] in
    for i = 0 to Array.length c.c_offsets - 2 do
      for e = c.c_offsets.(i) to c.c_offsets.(i + 1) - 1 do
        acc := (i, c.c_labels.(e), c.c_targets.(e)) :: !acc
      done
    done;
    !acc

  let rows_of_transitions expanded transitions =
    let trans = Array.of_list (List.rev transitions) in
    let offsets = Array.make (expanded + 1) 0 in
    Array.iter (fun (i, _, _) -> offsets.(i + 1) <- offsets.(i + 1) + 1) trans;
    for i = 1 to expanded do
      offsets.(i) <- offsets.(i) + offsets.(i - 1)
    done;
    ( offsets,
      Array.map (fun (_, _, j) -> j) trans,
      Array.map (fun (_, l, _) -> l) trans )

  let space_run (type s l) ?(max_states = default_max) ?budget ?resume
      (sys : (s, l) Mc.System.t) : (s, l) run_result =
    let module S = (val sys) in
    let module T = Table (S) in
    let index = T.create 16 in
    let states = ref [] in
    let count = ref 0 in
    let complete = ref true in
    let transitions = ref [] in
    let queue : (int * s) Queue.t = Queue.create () in
    let intern s =
      match T.find_opt index s with
      | Some i -> i
      | None ->
          let i = !count in
          T.add index s i;
          states := s :: !states;
          incr count;
          i
    in
    (match resume with
    | None ->
        let i0 = intern S.initial in
        Queue.add (i0, S.initial) queue
    | Some c ->
        Array.iter (fun s -> ignore (intern s)) c.c_states;
        transitions := transitions_of_rows c;
        complete := c.c_complete;
        for i = Array.length c.c_offsets - 1 to !count - 1 do
          Queue.add (i, c.c_states.(i)) queue
        done);
    (* The queue holds the last ids discovered, in order: the frontier
       starts [Queue.length queue] ids before the end. *)
    let snapshot () =
      let offsets, targets, labels =
        rows_of_transitions (!count - Queue.length queue) !transitions
      in
      {
        c_max_states = max_states;
        c_states = Array.of_list (List.rev !states);
        c_offsets = offsets;
        c_targets = targets;
        c_labels = labels;
        c_complete = !complete;
      }
    in
    let suspended = ref None in
    (try
       while not (Queue.is_empty queue) do
         (match budget with
         | Some b -> (
             match Mc.Budget.check b with
             | Some r ->
                 suspended := Some (Suspended (r, snapshot ()));
                 raise Exit
             | None -> ())
         | None -> ());
         let i, s = Queue.pop queue in
         List.iter
           (fun (l, s') ->
             if !count < max_states || T.mem index s' then begin
               let before = !count in
               let j = intern s' in
               transitions := (i, l, j) :: !transitions;
               if j >= before then Queue.add (j, s') queue
             end
             else complete := false)
           (S.successors s)
       done
     with Exit -> ());
    match !suspended with
    | Some r -> r
    | None ->
        let states = Array.of_list (List.rev !states) in
        let lts =
          Lts.Graph.make ~num_states:!count ~initial:0 (List.rev !transitions)
        in
        Done { lts; states; complete = !complete }

  let space ?max_states sys =
    match space_run ?max_states sys with
    | Done sp -> sp
    | Suspended _ -> assert false

  let find (type s l) ?(max_states = default_max) ?budget ~goal
      (sys : (s, l) Mc.System.t) : (s, l) verdict =
    let module S = (val sys) in
    let module T = Table (S) in
    let visited = T.create 16 in
    let states = ref [||] in
    let parents = ref [||] in
    let count = ref 0 in
    let push s parent =
      if !count >= Array.length !states then begin
        let cap = max 64 (2 * Array.length !states) in
        let grow a fill =
          Array.append a (Array.make (cap - Array.length a) fill)
        in
        states := grow !states s;
        parents := grow !parents parent
      end;
      !states.(!count) <- s;
      !parents.(!count) <- parent;
      T.add visited s !count;
      incr count;
      !count - 1
    in
    let rebuild i =
      let rec go i acc =
        match !parents.(i) with
        | None -> acc
        | Some (l, p) -> go p (l :: acc)
      in
      go i []
    in
    if goal S.initial then Reached { trace = []; state = S.initial }
    else begin
      let queue = Queue.create () in
      let i0 = push S.initial None in
      Queue.add i0 queue;
      let result = ref None in
      let exhausted = ref None in
      let truncated = ref false in
      (try
         while not (Queue.is_empty queue) do
           (match budget with
           | Some b -> (
               match Mc.Budget.check b with
               | Some r ->
                   exhausted := Some r;
                   raise Exit
               | None -> ())
           | None -> ());
           let i = Queue.pop queue in
           let s = !states.(i) in
           List.iter
             (fun (l, s') ->
               if not (T.mem visited s') then
                 if !count >= max_states then truncated := true
                 else begin
                   let j = push s' (Some (l, i)) in
                   if goal s' then begin
                     result := Some (rebuild j, s');
                     raise Exit
                   end;
                   Queue.add j queue
                 end)
             (S.successors s)
         done
       with Exit -> ());
      match (!result, !exhausted) with
      | Some (trace, state), _ -> Reached { trace; state }
      | None, Some reason ->
          Exhausted { reason; states_so_far = !count }
      | None, None -> if !truncated then Bound_hit max_states else Unreachable
    end

  let count (type s l) ?(max_states = default_max) ?budget
      (sys : (s, l) Mc.System.t) =
    let module S = (val sys) in
    let module T = Table (S) in
    let visited = T.create 16 in
    let queue = Queue.create () in
    let complete = ref true in
    T.add visited S.initial ();
    Queue.add S.initial queue;
    (try
       while not (Queue.is_empty queue) do
         (match budget with
         | Some b -> (
             match Mc.Budget.check b with
             | Some _ ->
                 complete := false;
                 raise Exit
             | None -> ())
         | None -> ());
         let s = Queue.pop queue in
         List.iter
           (fun (_, s') ->
             if not (T.mem visited s') then
               if T.length visited >= max_states then complete := false
               else begin
                 T.add visited s' ();
                 Queue.add s' queue
               end)
           (S.successors s)
       done
     with Exit -> ());
    (T.length visited, !complete)
end

(* --- systems ------------------------------------------------------------ *)

(* [sys] with its hash replaced by [hash]; states, successors and
   equality are untouched, so every engine must explore the same space. *)
let rehash (type s l) (hash : s -> int) (sys : (s, l) Mc.System.t) :
    (s, l) Mc.System.t =
  let module S = (val sys) in
  (module struct
    include S

    let hash_state = hash
  end)

(* An [w] x [h] grid walked right and down: [w * h] states with many
   joins, so lookups hit stored states as often as they add new ones. *)
let grid w h : (int * int, string) Mc.System.t =
  (module struct
    type state = int * int
    type label = string

    let initial = (0, 0)

    let successors (x, y) =
      (if x + 1 < w then [ ("r", (x + 1, y)) ] else [])
      @ (if y + 1 < h then [ ("d", (x, y + 1)) ] else [])
      @ if x + 1 = w && y + 1 = h then [ ("wrap", (0, 0)) ] else []

    let equal_state (a : state) b = a = b
    let hash_state = Hashtbl.hash
    let pp_state ppf (x, y) = Format.fprintf ppf "(%d,%d)" x y
    let pp_label = Format.pp_print_string
  end)

(* The shape of [Mc.Safety.product]'s hash, [S.hash_state s * 31 + q],
   over a base hash just above [max_int / 16]: times 31 it overflows to
   a negative int for every state. *)
let negative_hash (x, y) =
  (((max_int / 16) + Hashtbl.hash (x, y)) * 31) + ((x + y) land 3)

(* --- agreement ---------------------------------------------------------- *)

let tripping_budget = Test_resilience.tripping_budget
let same_space = Test_resilience.same_space

(* Drive a budget-tripped run to completion, resuming each suspension
   with a fresh budget that trips [k >= 2] polls later (so each leg
   expands at least one state). *)
let rec drain run k = function
  | Mc.Explore.Done sp -> sp
  | Mc.Explore.Suspended (_, cur) ->
      drain run k (run ~budget:(tripping_budget k) ~resume:cur)

(* Every entry point of [Mc.Explore] equals [Reference] on [sys]:
   [goals] are the search targets, [max_states] the truncation bound and
   [k] the polls between budget trips.  [hint] is passed to the index
   only (the reference has none). *)
let agrees ?hint ~goals ~max_states ~k sys =
  let finds_agree =
    List.for_all
      (fun goal ->
        Mc.Explore.find ?expected_states:hint ~max_states ~goal sys
        = Reference.find ~max_states ~goal sys
        && Mc.Explore.find ?expected_states:hint ~budget:(tripping_budget k)
             ~goal sys
           = Reference.find ~budget:(tripping_budget k) ~goal sys)
      goals
  in
  finds_agree
  && Mc.Explore.count ?expected_states:hint ~max_states sys
     = Reference.count ~max_states sys
  && Mc.Explore.count ?expected_states:hint ~budget:(tripping_budget k) sys
     = Reference.count ~budget:(tripping_budget k) sys
  && same_space
       (Mc.Explore.space ?expected_states:hint ~max_states sys)
       (Reference.space ~max_states sys)
  &&
  let resumed =
    drain
      (fun ~budget ~resume ->
        Mc.Explore.space_run ?expected_states:hint ~max_states ~budget ~resume
          sys)
      k
      (Mc.Explore.space_run ?expected_states:hint ~max_states
         ~budget:(tripping_budget k) sys)
  in
  same_space resumed (Reference.space ~max_states sys)

(* --- properties and cases ------------------------------------------------- *)

let prop_random_systems =
  QCheck.Test.make ~name:"index = Hashtbl reference on random systems"
    ~count:300
    QCheck.(triple Test_pexplore.rand_sys_arb small_nat small_nat)
    (fun (rs, m, k) ->
      let sys = Test_pexplore.table_system rs in
      let goals = [ (fun s -> s = rs.Test_pexplore.n - 1); (fun s -> s = m) ] in
      List.for_all
        (fun sys ->
          agrees ~goals ~max_states:(m mod (rs.Test_pexplore.n + 3))
            ~k:(2 + (k mod 7)) sys
          && agrees ~hint:1 ~goals ~max_states:Mc.Explore.default_max
               ~k:(2 + (k mod 7)) sys)
        [ sys; rehash (fun _ -> 0) sys; rehash (fun s -> -1 - s) sys ])

let grid_goals w h = [ (fun s -> s = (w - 1, h - 1)); (fun s -> s = (w, h)) ]

let test_zero_hash () =
  let w, h = (30, 20) in
  let sys = rehash (fun _ -> 0) (grid w h) in
  List.iter
    (fun (hint, max_states, k) ->
      check Alcotest.bool
        (Printf.sprintf "max_states=%d k=%d" max_states k)
        true
        (agrees ?hint ~goals:(grid_goals w h) ~max_states ~k sys))
    [ (None, Mc.Explore.default_max, 97); (Some 1, Mc.Explore.default_max, 41);
      (Some 1, 250, 13) ]

let test_negative_hash () =
  let w, h = (40, 40) in
  check Alcotest.bool "every hash is negative" true
    (List.for_all
       (fun x ->
         List.for_all (fun y -> negative_hash (x, y) < 0) (List.init h Fun.id))
       (List.init w Fun.id));
  let sys = rehash negative_hash (grid w h) in
  check Alcotest.bool "agrees" true
    (agrees ~goals:(grid_goals w h) ~max_states:Mc.Explore.default_max ~k:311
       sys);
  check Alcotest.bool "agrees truncated" true
    (agrees ~hint:1 ~goals:(grid_goals w h) ~max_states:777 ~k:59 sys)

(* With a hint of one the index starts at 8 states; 150 x 150 = 22 500
   states take it past 8 * 2^11, i.e. through more than ten doublings. *)
let test_many_doublings () =
  let w, h = (150, 150) in
  let sys = grid w h in
  check Alcotest.(pair int bool) "count" (w * h, true)
    (Mc.Explore.count ~expected_states:1 sys);
  check Alcotest.bool "agrees" true
    (agrees ~hint:1 ~goals:(grid_goals w h) ~max_states:Mc.Explore.default_max
       ~k:4999 sys)

(* The state index of a small check must stay small: the check below
   expands 268 states before it finds the R1 violation.  A table sized
   from the lint pass's static bound (clamped at 2^22 buckets) takes
   4 194 304 major-heap words for its bucket array alone. *)
let test_allocation_pin () =
  let params = Heartbeat.Params.make ~tmin:1 ~tmax:6 () in
  let run () =
    Heartbeat.Verify.check_discrete ~fixed:false Heartbeat.Ta_models.Binary
      params Heartbeat.Requirements.R1
  in
  ignore (run ());
  let before = Gc.quick_stat () in
  let outcome = run () in
  let after = Gc.quick_stat () in
  let words = after.Gc.major_words -. before.Gc.major_words in
  check Alcotest.bool "R1 refuted" false outcome.Heartbeat.Verify.holds;
  check Alcotest.bool
    (Printf.sprintf "%.0f major-heap words < 1 M" words)
    true (words < 1e6)

let tests =
  ( "explore index",
    [
      QCheck_alcotest.to_alcotest prop_random_systems;
      Alcotest.test_case "zero hash walks probe chains" `Quick test_zero_hash;
      Alcotest.test_case "negative product hashes" `Quick test_negative_hash;
      Alcotest.test_case "more than ten doublings" `Quick test_many_doublings;
      Alcotest.test_case "small check allocates < 1M major words" `Quick
        test_allocation_pin;
    ] )
