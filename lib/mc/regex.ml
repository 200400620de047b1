type 'l t =
  | Empty
  | Eps
  | Atom of string * ('l -> bool)
  | Seq of 'l t * 'l t
  | Alt of 'l t * 'l t
  | Star of 'l t

let empty = Empty
let eps = Eps
let atom name pred = Atom (name, pred)
let any = Atom ("any", fun _ -> true)

let seq a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Eps, r | r, Eps -> r
  | a, b -> Seq (a, b)

let alt a b =
  match (a, b) with Empty, r | r, Empty -> r | a, b -> Alt (a, b)

let star = function Empty | Eps -> Eps | r -> Star r
let plus r = seq r (star r)
let opt r = alt eps r

let repeat r n =
  if n < 0 then invalid_arg "Mc.Regex.repeat: negative count";
  let rec go n acc = if n = 0 then acc else go (n - 1) (seq r acc) in
  go n eps

let seq_list rs = List.fold_right seq rs eps

let rec pp ppf = function
  | Empty -> Format.pp_print_string ppf "0"
  | Eps -> Format.pp_print_string ppf "eps"
  | Atom (name, _) -> Format.pp_print_string ppf name
  | Seq (a, b) -> Format.fprintf ppf "%a.%a" pp_tight a pp_tight b
  | Alt (a, b) -> Format.fprintf ppf "%a + %a" pp a pp b
  | Star r -> Format.fprintf ppf "%a*" pp_tight r

and pp_tight ppf r =
  match r with
  | Alt _ | Seq _ -> Format.fprintf ppf "(%a)" pp r
  | _ -> pp ppf r

(* Thompson construction.  NFA states are integers; [eps_edges] and
   [atom_edges] are populated by [build], which for fragment (entry, exit)
   wires sub-fragments together with epsilon transitions. *)
type 'l nfa = {
  num : int;
  eps_edges : int list array;
  atom_edges : (('l -> bool) * int) list array;
  nfa_start : int;
  nfa_final : int;
}

let to_nfa (r : 'l t) : 'l nfa =
  let count = ref 0 in
  let eps_acc = ref [] and atom_acc = ref [] in
  let fresh () =
    let i = !count in
    incr count;
    i
  in
  let add_eps a b = eps_acc := (a, b) :: !eps_acc in
  let add_atom a pred b = atom_acc := (a, pred, b) :: !atom_acc in
  let rec build r =
    match r with
    | Empty ->
        let i = fresh () and f = fresh () in
        (i, f)
    | Eps ->
        let i = fresh () in
        (i, i)
    | Atom (_, pred) ->
        let i = fresh () and f = fresh () in
        add_atom i pred f;
        (i, f)
    | Seq (a, b) ->
        let ia, fa = build a in
        let ib, fb = build b in
        add_eps fa ib;
        (ia, fb)
    | Alt (a, b) ->
        let i = fresh () and f = fresh () in
        let ia, fa = build a in
        let ib, fb = build b in
        add_eps i ia;
        add_eps i ib;
        add_eps fa f;
        add_eps fb f;
        (i, f)
    | Star a ->
        let i = fresh () in
        let ia, fa = build a in
        add_eps i ia;
        add_eps fa i;
        (i, i)
  in
  let nfa_start, nfa_final = build r in
  let num = !count in
  let eps_edges = Array.make num [] in
  let atom_edges = Array.make num [] in
  List.iter (fun (a, b) -> eps_edges.(a) <- b :: eps_edges.(a)) !eps_acc;
  List.iter
    (fun (a, pred, b) -> atom_edges.(a) <- (pred, b) :: atom_edges.(a))
    !atom_acc;
  { num; eps_edges; atom_edges; nfa_start; nfa_final }

(* Epsilon closure of a set of NFA states, as a sorted list. *)
let closure nfa set =
  let seen = Array.make nfa.num false in
  let rec go = function
    | [] -> ()
    | s :: rest ->
        if seen.(s) then go rest
        else begin
          seen.(s) <- true;
          go (nfa.eps_edges.(s) @ rest)
        end
  in
  go set;
  let out = ref [] in
  for s = nfa.num - 1 downto 0 do
    if seen.(s) then out := s :: !out
  done;
  !out

let move nfa set label =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (pred, s') -> if pred label then Some s' else None)
        nfa.atom_edges.(s))
    set

let matches r word =
  let nfa = to_nfa r in
  let rec go set = function
    | [] -> List.mem nfa.nfa_final set
    | l :: rest ->
        let set' = closure nfa (move nfa set l) in
        set' <> [] && go set' rest
  in
  go (closure nfa [ nfa.nfa_start ]) word

let compile (r : 'l t) : 'l Monitor.t =
  let nfa = to_nfa r in
  (* Lazy subset construction: determinised states (sorted NFA-state lists)
     are interned as integers; transitions are memoised per (state, label)
     pair so exploration pays for each combination only once. *)
  let intern_tbl : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let sets = ref [||] in
  let size = ref 0 in
  let intern set =
    match Hashtbl.find_opt intern_tbl set with
    | Some q -> q
    | None ->
        let q = !size in
        Hashtbl.add intern_tbl set q;
        if q >= Array.length !sets then
          sets := Array.append !sets (Array.make (max 16 (q + 1)) []);
        !sets.(q) <- set;
        incr size;
        q
  in
  let accepting_tbl = Hashtbl.create 64 in
  let accepting q =
    match Hashtbl.find_opt accepting_tbl q with
    | Some b -> b
    | None ->
        let b = List.mem nfa.nfa_final !sets.(q) in
        Hashtbl.add accepting_tbl q b;
        b
  in
  let step_tbl = Hashtbl.create 256 in
  let step q label =
    match Hashtbl.find_opt step_tbl (q, label) with
    | Some q' -> q'
    | None ->
        let set' = closure nfa (move nfa !sets.(q) label) in
        let q' = intern set' in
        Hashtbl.add step_tbl (q, label) q';
        q'
  in
  let start = intern (closure nfa [ nfa.nfa_start ]) in
  { Monitor.start; step; accepting }
