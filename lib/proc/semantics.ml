(* A configuration carries [key], a structural hash of [(proc, env)]
   computed once when it is built.  It is a pure function of the
   configuration's data, so states reloaded by Marshal (checkpoints,
   [Mc.Store.fingerprint]) or rebuilt by another compile or process
   hash and compare exactly like the originals. *)
type component = { proc : Term.t; env : Pexpr.env; key : int }
type state = component array

type label = Tick | Act of string * Value.t list

let tau = Act ("tau", [])

let label_name = function Tick -> "tick" | Act (name, _) -> name

let pp_label ppf = function
  | Tick -> Format.pp_print_string ppf "tick"
  | Act (name, []) -> Format.pp_print_string ppf name
  | Act (name, args) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        args

exception Unguarded_recursion of string

(* Maximum number of Call unfoldings along one step derivation; guarded
   specifications never get anywhere near this. *)
let max_unfold = 10_000

(* --- configuration keys --------------------------------------------- *)

(* [key] is [Mc.Store.fingerprint] of the configuration — FNV-1a over
   every byte of its [No_sharing] marshalling, so configurations
   differing only deep inside a list-valued parameter still get
   different keys — passed through a MurmurHash3-style finaliser so
   that the low bits hash tables index by depend on every input.  Keys
   are built with menus and initial states, never per state. *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

let finish h =
  let h = ((h lxor (h lsr 33)) * 0xff51afd7ed558cd) land max_int in
  let h = ((h lxor (h lsr 33)) * 0xc4ceb9fe1a85ec5) land max_int in
  h lxor (h lsr 33)

let make proc env = { proc; env; key = finish (Mc.Store.fingerprint (proc, env)) }

let equal_component a b =
  a == b
  || a.key = b.key
     && (a.proc == b.proc || a.proc = b.proc)
     && (a.env == b.env || a.env = b.env)

module Table = Hashtbl.Make (struct
  type t = component

  let equal = equal_component
  let hash c = c.key
end)

let equal_state (a : state) (b : state) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i = n || (equal_component a.(i) b.(i) && go (i + 1)) in
  go 0

let hash_state (s : state) =
  let h = ref (Array.length s) in
  for i = 0 to Array.length s - 1 do
    h := mix !h s.(i).key
  done;
  !h

(* --- interpretation of one configuration ---------------------------- *)

let find_def defs name =
  match Hashtbl.find_opt defs name with
  | Some d -> d
  | None -> invalid_arg ("Proc.Semantics: unknown definition " ^ name)

(* Canonical form of a configuration: unfold top-level definition calls
   so that syntactically different continuations of the same process
   state (e.g. [Call ("X", [])] versus the body of [X]) are identified. *)
let rec normalize defs fuel proc env =
  if fuel <= 0 then raise (Unguarded_recursion "definition unfolding limit");
  match (proc : Term.t) with
  | Term.Call (name, args) ->
      let d = find_def defs name in
      let values = List.map (Pexpr.eval env) args in
      normalize defs (fuel - 1) d.Term.body (List.combine d.Term.params values)
  | _ -> make proc env

(* Local steps of a sequential configuration: all (action name, data,
   next configuration) triples it offers, in syntactic order. *)
let local_steps defs { proc; env; _ } =
  let acc = ref [] in
  let rec go fuel proc env =
    if fuel <= 0 then raise (Unguarded_recursion "definition unfolding limit");
    match (proc : Term.t) with
    | Term.Nil -> ()
    | Term.Prefix (a, p) ->
        let args = List.map (Pexpr.eval env) a.Term.act_args in
        acc := (a.Term.act_name, args, normalize defs max_unfold p env) :: !acc
    | Term.Choice ps -> List.iter (fun p -> go fuel p env) ps
    | Term.Sum (x, lo, hi, p) ->
        for v = lo to hi do
          go fuel p ((x, Value.Int v) :: env)
        done
    | Term.Cond (c, p, q) ->
        if Pexpr.eval_bool env c then go fuel p env else go fuel q env
    | Term.Call (name, args) ->
        let d = find_def defs name in
        let values = List.map (Pexpr.eval env) args in
        go (fuel - 1) d.Term.body (List.combine d.Term.params values)
  in
  go max_unfold proc env;
  List.rev !acc

(* --- compiled specifications and their memoised menus --------------- *)

(* A communication half: its action, the next configuration, and the
   partner halves it can pair with, each with the handshake's label
   (partners whose result is neither allowed nor hidden are left out). *)
type half = {
  h_name : int;
  h_args : Value.t list;
  h_next : component;
  h_pairs : (int * label) list;
}

(* The step menu of a configuration, every action classified once: tick
   offers, independent actions with their labels built (blocked actions
   are dropped), and communication halves.  Three masks over the half
   ids: [offered], the halves offered now; [partners], their partner
   halves, which lets pairing skip component pairs that cannot meet;
   and [future], every half the configuration could ever offer again,
   for the ample-set reducer. *)
type menu = {
  ticks : component list;
  locals : (label * component) list;
  halves : half list;
  offered : Mask.t;
  partners : Mask.t;
  future : Mask.t;
}

type entry = { canon : component; mutable menu : menu option }

(* A specification compiled to the lookup tables the step relation needs,
   plus the interned configurations: each distinct configuration exists
   as one shared copy, with its menu built on its first expansion.
   [lock] guards [configs] and the menus, since parallel explorers
   expand one system from several domains. *)
type compiled = {
  spec : Spec.t;
  defs : (string, Term.def) Hashtbl.t;
  allow : (string, unit) Hashtbl.t;
  hide : (string, unit) Hashtbl.t;
  (* Communication lookup: action name -> (partner name, result) list, in
     both directions. *)
  comm : (string, string * string) Hashtbl.t;
  (* Communication half names -> small ints, so pairing compares ints
     and menus carry masks over them. *)
  comm_ids : (string, int) Hashtbl.t;
  (* Definition name -> the halves it or any definition it reaches
     through calls offers; built with the first menu, so compiling
     stays as cheap as the interning it does. *)
  def_future : (string, Mask.t) Hashtbl.t option Atomic.t;
  initial : state;
  configs : entry Table.t;
  lock : Mutex.t;
}

(* The entry of [comp], interning it if new.  Call with [lock] held. *)
let entry c comp =
  match Table.find_opt c.configs comp with
  | Some e -> e
  | None ->
      let e = { canon = comp; menu = None } in
      Table.add c.configs comp e;
      e

let intern c comp = (Mutex.protect c.lock (fun () -> entry c comp)).canon

(* Adds to [m] the halves [t] offers syntactically (both branches of a
   condition, every value of a sum, no call unfolded) and returns the
   definitions it calls, consed onto [calls]. *)
let rec scan ids m calls (t : Term.t) =
  match t with
  | Term.Nil -> calls
  | Term.Prefix (a, p) ->
      Option.iter (Mask.add m) (Hashtbl.find_opt ids a.Term.act_name);
      scan ids m calls p
  | Term.Choice ps -> List.fold_left (scan ids m) calls ps
  | Term.Sum (_, _, _, p) -> scan ids m calls p
  | Term.Cond (_, p, q) -> scan ids m (scan ids m calls p) q
  | Term.Call (name, _) -> name :: calls

(* The future halves of every definition: its own syntactic offers and
   those of every definition reachable from it through calls, by one
   depth-first walk per definition over the call graph numbered by
   definition. *)
let def_futures defs ids =
  let size = Hashtbl.length ids in
  let names = Array.of_seq (Hashtbl.to_seq_keys defs) in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun k name -> Hashtbl.replace index name k) names;
  let own = Array.map (fun _ -> Mask.create size) names in
  let calls =
    Array.mapi
      (fun k name ->
        List.map (Hashtbl.find index)
          (scan ids own.(k) [] (Hashtbl.find defs name).Term.body))
      names
  in
  let walked = Array.make (Array.length names) (-1) in
  let futures = Hashtbl.create (Array.length names) in
  Array.iteri
    (fun root name ->
      let m = Mask.create size in
      let rec go d =
        if walked.(d) <> root then begin
          walked.(d) <- root;
          Mask.union_into m own.(d);
          List.iter go calls.(d)
        end
      in
      go root;
      Hashtbl.replace futures name m)
    names;
  futures

(* Domains racing on the first menu build equal tables; a table is
   complete before it is published. *)
let def_future c name =
  let table =
    match Atomic.get c.def_future with
    | Some table -> table
    | None ->
        let table = def_futures c.defs c.comm_ids in
        Atomic.set c.def_future (Some table);
        table
  in
  Hashtbl.find table name

let build_menu c comp =
  let hidden name = Hashtbl.mem c.hide name in
  let visible name = Hashtbl.mem c.allow name in
  let size = Hashtbl.length c.comm_ids in
  let offered = Mask.create size and partners = Mask.create size in
  let future = Mask.create size in
  List.iter
    (fun d -> Mask.union_into future (def_future c d))
    (scan c.comm_ids future [] comp.proc);
  let ticks = ref [] and locals = ref [] and halves = ref [] in
  List.iter
    (fun (name, args, next) ->
      let next = intern c next in
      if name = Spec.tick_name then ticks := next :: !ticks;
      match Hashtbl.find_all c.comm name with
      | [] ->
          if name <> Spec.tick_name then
            if hidden name then locals := (tau, next) :: !locals
            else if visible name then locals := (Act (name, args), next) :: !locals
      | pairs ->
          let label result =
            if hidden result then Some tau
            else if visible result then Some (Act (result, args))
            else None
          in
          List.iter
            (fun (partner, _) -> Mask.add partners (Hashtbl.find c.comm_ids partner))
            pairs;
          let h_name = Hashtbl.find c.comm_ids name in
          Mask.add offered h_name;
          halves :=
            {
              h_name;
              h_args = args;
              h_next = next;
              h_pairs =
                List.filter_map
                  (fun (partner, result) ->
                    Option.map
                      (fun l -> (Hashtbl.find c.comm_ids partner, l))
                      (label result))
                  pairs;
            }
            :: !halves)
    (local_steps c.defs comp);
  {
    ticks = List.rev !ticks;
    locals = List.rev !locals;
    halves = List.rev !halves;
    offered;
    partners;
    future;
  }

let menu_of c comp =
  let e, cached =
    Mutex.protect c.lock (fun () ->
        let e = entry c comp in
        (e, e.menu))
  in
  match cached with
  | Some m -> m
  | None ->
      let m = build_menu c e.canon in
      Mutex.protect c.lock (fun () ->
          match e.menu with
          | Some winner -> winner
          | None ->
              e.menu <- Some m;
              m)

let no_menu =
  { ticks = []; locals = []; halves = []; offered = [||]; partners = [||]; future = [||] }

let menus c (s : state) =
  let n = Array.length s in
  let out = Array.make n no_menu in
  let missing = ref false in
  Mutex.protect c.lock (fun () ->
      for i = 0 to n - 1 do
        match Table.find_opt c.configs s.(i) with
        | Some { menu = Some m; _ } -> out.(i) <- m
        | Some { menu = None; _ } | None -> missing := true
      done);
  if !missing then
    for i = 0 to n - 1 do
      if out.(i) == no_menu then out.(i) <- menu_of c s.(i)
    done;
  out

let compile (spec : Spec.t) : compiled =
  Spec.validate spec;
  let defs = Hashtbl.create 16 in
  List.iter
    (fun (d : Term.def) -> Hashtbl.replace defs d.Term.def_name d)
    spec.Spec.defs;
  let allow = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace allow a ()) spec.Spec.allow;
  let hide = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace hide a ()) spec.Spec.hide;
  let comm = Hashtbl.create 16 in
  let comm_ids = Hashtbl.create 16 in
  let id name =
    if not (Hashtbl.mem comm_ids name) then
      Hashtbl.add comm_ids name (Hashtbl.length comm_ids)
  in
  List.iter
    (fun (s, r, res) ->
      Hashtbl.add comm s (r, res);
      Hashtbl.add comm r (s, res);
      id s;
      id r)
    spec.Spec.comms;
  let initial : state =
    Array.of_list
      (List.map
         (fun (name, values) ->
           let d = find_def defs name in
           make d.Term.body (List.combine d.Term.params values))
         spec.Spec.init)
  in
  let c =
    {
      spec;
      defs;
      allow;
      hide;
      comm;
      comm_ids;
      def_future = Atomic.make None;
      initial;
      configs = Table.create 64;
      lock = Mutex.create ();
    }
  in
  { c with initial = Array.map (intern c) initial }

let spec_of c = c.spec
let initial_of c = c.initial
let component_term comp = comp.proc
let component_env comp = comp.env
let is_visible c name = Hashtbl.mem c.allow name
let is_hidden c name = Hashtbl.mem c.hide name
let comm_partners c name = Hashtbl.find_all c.comm name
let is_comm c name = Hashtbl.mem c.comm name
let offers_tick m = m.ticks <> []
let partner_mask m = m.partners
let future_mask m = m.future

(* The one pairing routine: the successors of [s] — independent actions
   in component order, then communications for [i < j], then the global
   tick (every component must offer one).  Components [i < j] are only
   paired when a partner of [i]'s halves is among [j]'s.  With [parts],
   each transition's participants are consed onto it as it is emitted:
   [i * n + j] ([j = i] for an independent action), [-1] for a tick. *)
let pair (menus : menu array) (s : state) ~parts : (label * state) list =
  let n = Array.length s in
  let acc = ref [] in
  for i = 0 to n - 1 do
    List.iter
      (fun (label, ci) ->
        let s' = Array.copy s in
        s'.(i) <- ci;
        acc := (label, s') :: !acc;
        match parts with Some p -> p := ((i * n) + i) :: !p | None -> ())
      menus.(i).locals
  done;
  for i = 0 to n - 1 do
    if menus.(i).halves <> [] then
      for j = i + 1 to n - 1 do
        if Mask.meets menus.(i).partners menus.(j).offered then
          List.iter
            (fun hi ->
              List.iter
                (fun (partner, label) ->
                  List.iter
                    (fun hj ->
                      if hj.h_name = partner && hi.h_args = hj.h_args then begin
                        let s' = Array.copy s in
                        s'.(i) <- hi.h_next;
                        s'.(j) <- hj.h_next;
                        acc := (label, s') :: !acc;
                        match parts with
                        | Some p -> p := ((i * n) + j) :: !p
                        | None -> ()
                      end)
                    menus.(j).halves)
                hi.h_pairs)
            menus.(i).halves
      done
  done;
  if n > 0 && Array.for_all offers_tick menus then begin
    (* Cartesian product over the (usually singleton) tick choices. *)
    let rec expand i chosen =
      if i = n then begin
        acc := (Tick, Array.of_list (List.rev chosen)) :: !acc;
        match parts with Some p -> p := -1 :: !p | None -> ()
      end
      else List.iter (fun c -> expand (i + 1) (c :: chosen)) menus.(i).ticks
    in
    expand 0 []
  end;
  List.rev !acc

let successors_with menus s = pair menus s ~parts:None

let transitions menus s =
  let parts = ref [] in
  let succs = pair menus s ~parts:(Some parts) in
  (succs, List.rev !parts)

let successors_of c s = successors_with (menus c s) s

let pp_state ppf (s : state) =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf c ->
         Term.pp ppf c.proc))
    (Array.to_list s)

let system_of (c : compiled) : (state, label) Mc.System.t =
  (module struct
    type nonrec state = state
    type nonrec label = label

    let initial = c.initial
    let successors = successors_of c
    let equal_state = equal_state
    let hash_state = hash_state
    let pp_state = pp_state
    let pp_label = pp_label
  end)

let system (spec : Spec.t) : (state, label) Mc.System.t = system_of (compile spec)

let lts spec =
  let space = Mc.Explore.space (system spec) in
  if not space.Mc.Explore.complete then
    failwith "Proc.Semantics.lts: state bound exceeded";
  space.Mc.Explore.lts
