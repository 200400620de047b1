(* The term interpreter [Proc.Semantics] used before it interned
   configurations and memoised their step menus: it normalises and
   re-interprets every component of every state and looks communication
   partners up by name.  It is rebuilt here from the public
   [Term]/[Pexpr]/[Spec] modules and kept as a reference: the compiled
   step relation (test_compiled) and the ample-set reducer (test_por)
   must match what it computes exactly. *)

module T = Proc.Term
module Sem = Proc.Semantics

type component = { proc : T.t; env : Proc.Pexpr.env }
type state = component array

let max_unfold = 10_000

let find_def defs name =
  match Hashtbl.find_opt defs name with
  | Some d -> d
  | None -> invalid_arg ("Reference: unknown definition " ^ name)

let rec normalize defs fuel { proc; env } =
  if fuel <= 0 then raise (Sem.Unguarded_recursion "definition unfolding limit");
  match proc with
  | T.Call (name, args) ->
      let d = find_def defs name in
      let values = List.map (Proc.Pexpr.eval env) args in
      normalize defs (fuel - 1)
        { proc = d.T.body; env = List.combine d.T.params values }
  | _ -> { proc; env }

let local_steps defs { proc; env } =
  let acc = ref [] in
  let rec go fuel proc env =
    if fuel <= 0 then raise (Sem.Unguarded_recursion "definition unfolding limit");
    match (proc : T.t) with
    | T.Nil -> ()
    | T.Prefix (a, p) ->
        let args = List.map (Proc.Pexpr.eval env) a.T.act_args in
        acc := (a.T.act_name, args, normalize defs max_unfold { proc = p; env }) :: !acc
    | T.Choice ps -> List.iter (fun p -> go fuel p env) ps
    | T.Sum (x, lo, hi, p) ->
        for v = lo to hi do
          go fuel p ((x, Proc.Value.Int v) :: env)
        done
    | T.Cond (c, p, q) ->
        if Proc.Pexpr.eval_bool env c then go fuel p env else go fuel q env
    | T.Call (name, args) ->
        let d = find_def defs name in
        let values = List.map (Proc.Pexpr.eval env) args in
        go (fuel - 1) d.T.body (List.combine d.T.params values)
  in
  go max_unfold proc env;
  List.rev !acc

(* The transitions of [s] among the components [among] selects —
   independent actions in component order, then communications for
   [i < j] — followed, when [tick], by the global tick. *)
let successors_from (spec : Proc.Spec.t) comm ~among ~tick locals (s : state) =
  let n = Array.length s in
  let visible name = List.mem name spec.Proc.Spec.allow in
  let hidden name = List.mem name spec.Proc.Spec.hide in
  let acc = ref [] in
  let emit label i comp' =
    let s' = Array.copy s in
    s'.(i) <- comp';
    acc := (label, s') :: !acc
  in
  let emit2 label i ci j cj =
    let s' = Array.copy s in
    s'.(i) <- ci;
    s'.(j) <- cj;
    acc := (label, s') :: !acc
  in
  Array.iteri
    (fun i steps ->
      if among i then
        List.iter
          (fun (name, args, comp') ->
            if name <> Proc.Spec.tick_name && not (Hashtbl.mem comm name) then begin
              if hidden name then emit Sem.tau i comp'
              else if visible name then emit (Sem.Act (name, args)) i comp'
            end)
          steps)
    locals;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if among i && among j then
        List.iter
          (fun (name_i, args_i, ci) ->
            List.iter
              (fun ((partner, result) : string * string) ->
                List.iter
                  (fun (name_j, args_j, cj) ->
                    if name_j = partner && args_i = args_j then begin
                      if hidden result then emit2 Sem.tau i ci j cj
                      else if visible result then
                        emit2 (Sem.Act (result, args_i)) i ci j cj
                    end)
                  locals.(j))
              (Hashtbl.find_all comm name_i))
          locals.(i)
    done
  done;
  let ticks =
    Array.map
      (List.filter_map (fun (name, _, comp') ->
           if name = Proc.Spec.tick_name then Some comp' else None))
      locals
  in
  if tick && n > 0 && Array.for_all (fun l -> l <> []) ticks then begin
    let rec expand i chosen =
      if i = n then acc := (Sem.Tick, Array.of_list (List.rev chosen)) :: !acc
      else List.iter (fun c -> expand (i + 1) (c :: chosen)) ticks.(i)
    in
    expand 0 []
  end;
  List.rev !acc

let system (spec : Proc.Spec.t) : (state, Sem.label) Mc.System.t =
  Proc.Spec.validate spec;
  let defs = Hashtbl.create 16 in
  List.iter (fun (d : T.def) -> Hashtbl.replace defs d.T.def_name d) spec.Proc.Spec.defs;
  let comm = Hashtbl.create 16 in
  List.iter
    (fun (s, r, res) ->
      Hashtbl.add comm s (r, res);
      Hashtbl.add comm r (s, res))
    spec.Proc.Spec.comms;
  let initial =
    Array.of_list
      (List.map
         (fun (name, values) ->
           let d = find_def defs name in
           { proc = d.T.body; env = List.combine d.T.params values })
         spec.Proc.Spec.init)
  in
  (module struct
    type nonrec state = state
    type label = Sem.label

    let initial = initial

    let successors s =
      successors_from spec comm ~among:(fun _ -> true) ~tick:true
        (Array.map (local_steps defs) s) s

    let equal_state (a : state) b = a = b
    let hash_state (s : state) = Hashtbl.hash_param 128 256 s
    let pp_state ppf (_ : state) = Format.pp_print_string ppf "<state>"
    let pp_label = Sem.pp_label
  end)

let view (s : Sem.state) : state =
  Array.map
    (fun c -> { proc = Sem.component_term c; env = Sem.component_env c })
    s

