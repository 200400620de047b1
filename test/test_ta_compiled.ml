(* Differential oracle for the compiled TA step relation.

   [Ta_reference] is the step relation [Ta.Semantics] used before it
   memoised a move menu per location vector.  On every state compared,
   the compiled [successors] must return the reference's list (same
   order, same labels, same configurations) or raise the exception the
   reference raises, and [deadlocked] must agree with an empty list.

   The second half pins what the menus are for and what they must not
   break: the allocation per call on a table model, and the memo under
   two domains expanding one freshly compiled net. *)

module M = Ta.Model
module E = Ta.Expr
module S = Ta.Semantics
module R = Ta_reference
module H = Heartbeat

let check = Alcotest.check

(* The successor list of one state, or the exception computing it
   raised. *)
let outcome f = match f () with l -> Ok l | exception e -> Error e

let pp_outcome ppf = function
  | Error e -> Format.fprintf ppf "raises %s" (Printexc.to_string e)
  | Ok l ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf (l, c) ->
             Format.fprintf ppf "%a:%s" S.pp_label l
               (String.concat "," (List.map string_of_int (Array.to_list c)))))
        l

(* [None] when both relations agree on [c], else the two outcomes. *)
let disagreement t r c =
  let got =
    outcome (fun () ->
        List.map (fun (l, c') -> (l, S.cells c')) (S.successors t (S.of_cells c)))
  in
  let want = outcome (fun () -> R.successors r c) in
  let deadlock_ok =
    match got with
    | Ok l -> S.deadlocked t (S.of_cells c) = (l = [])
    | Error _ -> true
  in
  if got = want && deadlock_ok then None else Some (got, want)

(* Breadth-first over the reference relation from the initial state,
   comparing the two relations on each of the first [limit] states; a
   state where the reference raises is compared but not expanded. *)
let compare_prefix ~limit model =
  let t = S.compile model and r = R.compile model in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let visit c =
    if Hashtbl.length seen < limit && not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      Queue.add c queue
    end
  in
  visit (R.initial r);
  let rec go compared =
    match Queue.take_opt queue with
    | None -> Ok compared
    | Some c -> (
        match disagreement t r c with
        | Some (got, want) ->
            Error
              (Format.asprintf "at %s:@ compiled %a@ reference %a"
                 (String.concat "," (List.map string_of_int (Array.to_list c)))
                 pp_outcome got pp_outcome want)
        | None ->
            (match R.successors r c with
            | succs -> List.iter (fun (_, c') -> visit c') succs
            | exception _ -> ());
            go (compared + 1))
  in
  go 0

let agrees ~limit name model =
  match compare_prefix ~limit model with
  | Ok n -> n
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* --- random networks ---------------------------------------------------- *)

(* [Test_ta.random_network] widened to what the step relation
   distinguishes: three automata, a binary and a broadcast channel,
   urgent and committed locations, clock and variable invariants,
   receiver updates that do not commute, an array index that can leave
   its range and a division whose divisor can reach zero. *)
let random_network : M.t QCheck.arbitrary =
  let open QCheck.Gen in
  let x = E.v "x" and d = E.v "d" and k = E.clk "k" in
  let bump e = E.Min (e, E.i 3) in
  let guard_gen =
    frequency
      [
        (4, return E.True);
        (2, return E.(x = i 0));
        (2, return E.(x >= i 1));
        (2, return E.(k <= i 2));
        (2, return E.(k >= i 1));
        (1, return E.(E.Elem ("a", x) = i 0));
        (1, return E.(x / d = i 0));
        (1, return E.(E.not_ (x = i 2) && (k < i 3)));
      ]
  in
  let update_gen =
    frequency
      [
        (3, return (M.Assign (M.Scalar "x", bump E.(x + i 1))));
        (2, return (M.Assign (M.Scalar "x", bump E.(x * i 2))));
        (2, return (M.Assign (M.Scalar "x", E.i 0)));
        (1, return (M.Assign (M.Scalar "d", E.(i 1 - d))));
        (2, return (M.Reset "k"));
        (1, return (M.Assign (M.Element ("a", x), E.(x + i 1))));
      ]
  in
  let sync_gen =
    frequency
      [
        (3, return M.Tau);
        (2, return (M.Send "h"));
        (2, return (M.Recv "h"));
        (2, return (M.Send "b"));
        (3, return (M.Recv "b"));
      ]
  in
  let loc_gen =
    pair
      (frequency
         [ (5, return M.Normal); (2, return M.Urgent); (2, return M.Committed) ])
      (frequency
         [
           (5, return E.True);
           (2, return E.(k <= i 2));
           (1, return E.(x <= i 2));
           (1, return E.(x / d >= i 0));
         ])
  in
  let edge_gen name locs =
    let loc_name i = Printf.sprintf "L%d" i in
    int_bound (locs - 1) >>= fun src ->
    int_bound (locs - 1) >>= fun dst ->
    guard_gen >>= fun guard ->
    sync_gen >>= fun sync ->
    list_size (int_bound 2) update_gen >>= fun updates ->
    return
      (M.edge ~src:(loc_name src) ~dst:(loc_name dst) ~guard ~sync ~updates
         ~act:(Printf.sprintf "%s%d%d" name src dst) ())
  in
  let automaton_gen name =
    int_range 1 3 >>= fun locs ->
    (* the initial location is plain, so compiling never fails *)
    list_repeat (locs - 1) loc_gen >>= fun rest ->
    list_size (int_range 1 5) (edge_gen name locs) >>= fun edges ->
    return
      {
        M.auto_name = name;
        locations =
          M.loc "L0"
          :: List.mapi
               (fun i (kind, invariant) ->
                 M.loc ~kind ~invariant (Printf.sprintf "L%d" (i + 1)))
               rest;
        edges;
        init_loc = "L0";
      }
  in
  let network_gen =
    automaton_gen "A" >>= fun a ->
    automaton_gen "B" >>= fun b ->
    automaton_gen "C" >>= fun c ->
    return
      {
        M.vars = [ M.scalar "x" 0; M.scalar "d" 1; M.array "a" [ 0; 0 ] ];
        clocks = [ { M.clock_name = "k"; cap = 3 } ];
        chans = [ M.chan "h"; M.chan ~broadcast:true "b" ];
        automata = [ a; b; c ];
      }
  in
  let print (net : M.t) =
    let pp_auto (a : M.automaton) =
      Printf.sprintf "%s{%s | %s}" a.M.auto_name
        (String.concat " "
           (List.map
              (fun (l : M.location) ->
                Format.asprintf "%s%s[%a]" l.M.loc_name
                  (match l.M.kind with
                  | M.Normal -> ""
                  | M.Urgent -> "!u"
                  | M.Committed -> "!c")
                  E.pp_b l.M.invariant)
              a.M.locations))
        (String.concat " "
           (List.map
              (fun (e : M.edge) ->
                Format.asprintf "%s->%s[%a]%s/%d" e.M.src e.M.dst E.pp_b e.M.guard
                  (match e.M.sync with
                  | M.Tau -> ""
                  | M.Send c -> c ^ "!"
                  | M.Recv c -> c ^ "?")
                  (List.length e.M.updates))
              a.M.edges))
    in
    String.concat "\n" (List.map pp_auto net.M.automata)
  in
  QCheck.make ~print network_gen

let prop_random_networks =
  QCheck.Test.make ~name:"compiled = reference on random networks" ~count:400
    random_network (fun net ->
      match compare_prefix ~limit:400 net with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* --- the shipped models ------------------------------------------------- *)

let variants = H.Ta_models.all_variants

let test_variants_full () =
  let params = H.Params.make ~tmin:1 ~tmax:2 () in
  List.iter
    (fun v ->
      List.iter
        (fun (fixed, with_r1_monitors) ->
          let name =
            Printf.sprintf "%s%s%s" (H.Ta_models.variant_name v)
              (if fixed then " fixed" else "")
              (if with_r1_monitors then " +R1" else "")
          in
          let model = H.Ta_models.build ~fixed ~with_r1_monitors v params in
          let n = agrees ~limit:max_int name model in
          (* the whole space: the count matches the explorer's *)
          let count, complete = Mc.Explore.count (S.system (S.compile model)) in
          check Alcotest.bool (name ^ " complete") true complete;
          check Alcotest.int (name ^ " states") count n)
        [ (false, false); (false, true); (true, false); (true, true) ])
    variants

let test_table_point_prefixes () =
  let params = H.Params.make ~tmin:6 ~tmax:6 () in
  List.iter
    (fun v ->
      let model = H.Ta_models.build ~with_r1_monitors:true v params in
      ignore (agrees ~limit:20_000 (H.Ta_models.variant_name v ^ " (6,6)") model))
    variants

let test_dense_points_prefixes () =
  let params = H.Params.make ~n:2 ~tmin:1 ~tmax:2 () in
  List.iter
    (fun v ->
      List.iter
        (fun with_r1_monitors ->
          let model = H.Ta_models.build ~with_r1_monitors v params in
          ignore
            (agrees ~limit:20_000
               (H.Ta_models.variant_name v ^ " n=2 (1,2)")
               model))
        [ true; false ])
    [ H.Ta_models.Expanding; H.Ta_models.Dynamic ]

let test_fc_prefixes () =
  List.iter
    (fun (s : Fc.spec) -> ignore (agrees ~limit:20_000 s.Fc.fc_name s.Fc.model))
    Fc.all

(* 31 automata of four locations: the product of location counts, 2^62,
   does not fit in an int, so menus are keyed by the location vector
   itself.  Each automaton cycles through its locations (one of them
   committed, one urgent) and can broadcast from the first; the first two
   also hand over a token on a binary channel, and the others receive
   the broadcast. *)
let test_vector_keys () =
  let auto k =
    let l i = Printf.sprintf "L%d" i in
    {
      M.auto_name = Printf.sprintf "P%d" k;
      locations =
        [
          M.loc (l 0);
          M.loc ~kind:M.Committed (l 1);
          M.loc ~kind:M.Urgent (l 2);
          M.loc ~invariant:E.(clk "k" <= i 2) (l 3);
        ];
      edges =
        [
          M.edge ~src:(l 0) ~dst:(l 1) ~guard:E.(v "x" = i (k mod 3)) ();
          M.edge ~src:(l 1) ~dst:(l 2) ~updates:[ M.Reset "k" ] ();
          M.edge ~src:(l 2) ~dst:(l 3)
            ~updates:[ M.Assign (M.Scalar "x", E.Min (E.(v "x" + i 1), E.i 2)) ]
            ();
          M.edge ~src:(l 3) ~dst:(l 0) ~guard:E.(clk "k" >= i 1) ();
          (if k = 0 then M.edge ~src:(l 3) ~dst:(l 0) ~sync:(M.Send "h") ()
           else if k = 1 then M.edge ~src:(l 0) ~dst:(l 3) ~sync:(M.Recv "h") ()
           else M.edge ~src:(l 3) ~dst:(l 0) ~sync:(M.Recv "b") ());
          M.edge ~src:(l 0) ~dst:(l 0) ~sync:(M.Send "b")
            ~updates:[ M.Assign (M.Scalar "x", E.i 0) ]
            ();
        ];
      init_loc = l 0;
    }
  in
  let model =
    {
      M.vars = [ M.scalar "x" 0 ];
      clocks = [ { M.clock_name = "k"; cap = 3 } ];
      chans = [ M.chan "h"; M.chan ~broadcast:true "b" ];
      automata = List.init 31 auto;
    }
  in
  ignore (agrees ~limit:3_000 "31 automata" model)

(* --- allocation and the memo under two domains -------------------------- *)

let binary_r1 () =
  H.Ta_models.build ~with_r1_monitors:true H.Ta_models.Binary
    (H.Params.make ~tmin:1 ~tmax:6 ())

let reachable model =
  (Mc.Explore.space (S.system (S.compile model))).Mc.Explore.states

let test_allocation () =
  let model = binary_r1 () in
  let states = reachable model in
  let t = S.compile model in
  Array.iter (fun c -> ignore (S.successors t c)) states;
  let before = Gc.minor_words () in
  Array.iter (fun c -> ignore (S.successors t c)) states;
  let per_call = (Gc.minor_words () -. before) /. float (Array.length states) in
  if per_call > 150. then
    Alcotest.failf "successors allocates %.1f minor words per call (> 150)"
      per_call

let test_two_domains () =
  let model = binary_r1 () in
  let states = reachable model in
  let sample = Array.init (Array.length states / 3) (fun k -> states.(3 * k)) in
  let expand t = Array.map (S.successors t) sample in
  let sequential = expand (S.compile model) in
  let t = S.compile model in
  let other = Domain.spawn (fun () -> expand t) in
  let here = expand t in
  let there = Domain.join other in
  check Alcotest.bool "this domain = sequential" true (here = sequential);
  check Alcotest.bool "other domain = sequential" true (there = sequential)

let test_pexplore_two_domains () =
  let model =
    H.Ta_models.build H.Ta_models.Dynamic (H.Params.make ~tmin:1 ~tmax:10 ())
  in
  let seq = Mc.Explore.count (S.system (S.compile model)) in
  let par, _ = Mc.Pexplore.count_stats ~domains:2 (S.system (S.compile model)) in
  check Alcotest.(pair int bool) "count_stats ~domains:2 = Explore.count" seq par

let tests =
  ( "ta compiled",
    [
      Alcotest.test_case "six variants at (1,2), full spaces" `Quick
        test_variants_full;
      Alcotest.test_case "six variants at (6,6), 20 000-state prefixes" `Quick
        test_table_point_prefixes;
      Alcotest.test_case "n=2 dense points, 20 000-state prefixes" `Quick
        test_dense_points_prefixes;
      Alcotest.test_case "FC suite, 20 000-state prefixes" `Quick
        test_fc_prefixes;
      Alcotest.test_case "menus keyed by location vector" `Quick
        test_vector_keys;
      Alcotest.test_case "binary (1,6) R1 allocates <= 150 words per call"
        `Quick test_allocation;
      Alcotest.test_case "two domains on one fresh net" `Quick test_two_domains;
      Alcotest.test_case "count_stats ~domains:2 on a fresh net" `Quick
        test_pexplore_two_domains;
      QCheck_alcotest.to_alcotest prop_random_networks;
    ] )
