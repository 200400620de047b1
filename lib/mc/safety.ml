type 'l verdict =
  | Holds
  | Violated of 'l list
  | Unknown of int
  | Exhausted of Explore.exhaustion

(* Product of a system and a monitor: the monitor state rides along in the
   configuration, and a goal search for an accepting monitor state yields a
   shortest violating trace. *)
let product (type s l) (sys : (s, l) System.t) (m : l Monitor.t) :
    (s * int, l) System.t =
  let module S = (val sys) in
  (module struct
    type state = S.state * int
    type label = S.label

    let initial = (S.initial, m.Monitor.start)

    let successors (s, q) =
      List.map (fun (l, s') -> (l, (s', m.Monitor.step q l))) (S.successors s)

    let equal_state (s1, q1) (s2, q2) = q1 = q2 && S.equal_state s1 s2
    let hash_state (s, q) = (S.hash_state s * 31) + q
    let pp_state ppf (s, q) = Format.fprintf ppf "%a | mon:%d" S.pp_state s q
    let pp_label = S.pp_label
  end)

(* Route goal searches through the sequential or the parallel engine: a
   non-exact store forces Pexplore even on one domain (the sequential
   engine has no store support). *)
let run_find ?max_states ?expected_states ?(domains = 1)
    ?(store = Store.Exact) ?budget ?degrade ~goal sys =
  if domains <= 1 && store = Store.Exact then
    Explore.find ?max_states ?expected_states ?budget ~goal sys
  else
    Pexplore.find ?max_states ?expected_states ~domains ~store ?budget
      ?degrade ~goal sys

(* A reduced replacement system built with the sequential proviso forces
   the sequential engine: its seen-set needs a deterministic call order.
   When the caller vouches the reduction uses the parallel-safe proviso
   ([Por.reduced_system ~par:true]), the requested domain count stands. *)
let apply_reduction reduction ~parallel_reduction domains sys =
  match reduction with
  | None -> (sys, domains)
  | Some reduced -> (reduced, if parallel_reduction then domains else Some 1)

let of_find_verdict = function
  | Explore.Unreachable -> Holds
  | Explore.Reached w -> Violated w.Explore.trace
  | Explore.Bound_hit n -> Unknown n
  | Explore.Exhausted e -> Exhausted e

let check_monitor (type s l) ?max_states ?expected_states ?domains ?slice
    ?reduction ?(parallel_reduction = false) ?store ?budget ?degrade
    (sys : (s, l) System.t) (m : l Monitor.t) : l verdict =
  (* A slice replaces the base system before the reduction is consulted:
     a reduction, when also given, was built over the sliced model
     upstream and wins. *)
  let sys = Option.value slice ~default:sys in
  let sys, domains = apply_reduction reduction ~parallel_reduction domains sys in
  let prod = product sys m in
  of_find_verdict
    (run_find ?max_states ?expected_states ?domains ?store ?budget ?degrade
       ~goal:(fun (_, q) -> m.Monitor.accepting q)
       prod)

let check_forbidden ?max_states ?expected_states ?domains ?slice ?reduction
    ?parallel_reduction ?store ?budget ?degrade sys r =
  check_monitor ?max_states ?expected_states ?domains ?slice ?reduction
    ?parallel_reduction ?store ?budget ?degrade sys (Regex.compile r)

let check_state (type s l) ?max_states ?expected_states ?domains ?slice
    ?reduction ?(parallel_reduction = false) ?store ?budget ?degrade
    (sys : (s, l) System.t) bad : l verdict =
  let sys = Option.value slice ~default:sys in
  let sys, domains = apply_reduction reduction ~parallel_reduction domains sys in
  of_find_verdict
    (run_find ?max_states ?expected_states ?domains ?store ?budget ?degrade
       ~goal:bad sys)

let holds = function
  | Holds -> true
  | Violated _ | Unknown _ | Exhausted _ -> false

let pp_verdict ~pp_label ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Violated trace ->
      Format.fprintf ppf "violated by trace:@,  @[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_label)
        trace
  | Unknown n -> Format.fprintf ppf "unknown (state bound %d hit)" n
  | Exhausted e -> Explore.pp_exhaustion ppf e
