(* UPPAAL .xta pretty-printer.  Expressions map almost one-to-one; min
   and max become UPPAAL's <? and >? binary operators. *)

let rec pp_expr ppf (e : Expr.t) =
  match e with
  | Expr.Int n -> Format.pp_print_int ppf n
  | Expr.Var name | Expr.Clock name -> Format.pp_print_string ppf name
  | Expr.Elem (name, idx) -> Format.fprintf ppf "%s[%a]" name pp_expr idx
  | Expr.Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Expr.Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Expr.Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | Expr.Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b
  | Expr.Min (a, b) -> Format.fprintf ppf "(%a <? %a)" pp_expr a pp_expr b
  | Expr.Max (a, b) -> Format.fprintf ppf "(%a >? %a)" pp_expr a pp_expr b

let pp_cmp ppf (c : Expr.cmp) =
  Format.pp_print_string ppf
    (match c with
    | Expr.Lt -> "<"
    | Expr.Le -> "<="
    | Expr.Eq -> "=="
    | Expr.Ge -> ">="
    | Expr.Gt -> ">"
    | Expr.Ne -> "!=")

let rec pp_bexpr ppf (b : Expr.b) =
  match b with
  | Expr.True -> Format.pp_print_string ppf "true"
  | Expr.False -> Format.pp_print_string ppf "false"
  | Expr.Cmp (c, a, b) ->
      Format.fprintf ppf "%a %a %a" pp_expr a pp_cmp c pp_expr b
  | Expr.Not b -> Format.fprintf ppf "!(%a)" pp_bexpr b
  | Expr.And (a, b) -> Format.fprintf ppf "%a && %a" pp_and_operand a pp_and_operand b
  | Expr.Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp_bexpr a pp_bexpr b

and pp_and_operand ppf (b : Expr.b) =
  match b with
  | Expr.Or _ -> Format.fprintf ppf "(%a)" pp_bexpr b
  | _ -> pp_bexpr ppf b

let pp_update ppf (u : Model.update) =
  match u with
  | Model.Reset clock -> Format.fprintf ppf "%s = 0" clock
  | Model.Assign (Model.Scalar name, e) ->
      Format.fprintf ppf "%s = %a" name pp_expr e
  | Model.Assign (Model.Element (name, idx), e) ->
      Format.fprintf ppf "%s[%a] = %a" name pp_expr idx pp_expr e

let pp_declarations ppf (net : Model.t) =
  List.iter
    (fun (v : Model.var_decl) ->
      match v.Model.init with
      | [ x ] -> Format.fprintf ppf "int %s = %d;@." v.Model.var_name x
      | xs ->
          Format.fprintf ppf "int %s[%d] = { %s };@." v.Model.var_name
            (List.length xs)
            (String.concat ", " (List.map string_of_int xs)))
    net.Model.vars;
  List.iter
    (fun (c : Model.clock_decl) ->
      Format.fprintf ppf "clock %s;@." c.Model.clock_name)
    net.Model.clocks;
  List.iter
    (fun (c : Model.chan_decl) ->
      Format.fprintf ppf "%schan %s;@."
        (if c.Model.broadcast then "broadcast " else "")
        c.Model.chan_name)
    net.Model.chans

let is_default_invariant = function Expr.True -> true | _ -> false

let pp_process ppf (a : Model.automaton) =
  Format.fprintf ppf "process %s() {@." a.Model.auto_name;
  (* states, with invariants *)
  Format.fprintf ppf "  state@.";
  let num_locs = List.length a.Model.locations in
  List.iteri
    (fun k (l : Model.location) ->
      let sep = if k = num_locs - 1 then ";" else "," in
      if is_default_invariant l.Model.invariant then
        Format.fprintf ppf "    %s%s@." l.Model.loc_name sep
      else
        Format.fprintf ppf "    %s { %a }%s@." l.Model.loc_name pp_bexpr
          l.Model.invariant sep)
    a.Model.locations;
  let of_kind kind =
    List.filter_map
      (fun (l : Model.location) ->
        if l.Model.kind = kind then Some l.Model.loc_name else None)
      a.Model.locations
  in
  (match of_kind Model.Urgent with
  | [] -> ()
  | names -> Format.fprintf ppf "  urgent %s;@." (String.concat ", " names));
  (match of_kind Model.Committed with
  | [] -> ()
  | names -> Format.fprintf ppf "  commit %s;@." (String.concat ", " names));
  Format.fprintf ppf "  init %s;@." a.Model.init_loc;
  (match a.Model.edges with
  | [] -> ()
  | edges ->
      Format.fprintf ppf "  trans@.";
      let num = List.length edges in
      List.iteri
        (fun k (e : Model.edge) ->
          let sep = if k = num - 1 then ";" else "," in
          Format.fprintf ppf "    %s -> %s {" e.Model.src e.Model.dst;
          (match e.Model.guard with
          | Expr.True -> ()
          | g -> Format.fprintf ppf " guard %a;" pp_bexpr g);
          (match e.Model.sync with
          | Model.Tau -> ()
          | Model.Send c -> Format.fprintf ppf " sync %s!;" c
          | Model.Recv c -> Format.fprintf ppf " sync %s?;" c);
          (match e.Model.updates with
          | [] -> ()
          | us ->
              Format.fprintf ppf " assign %s;"
                (String.concat ", "
                   (List.map (Format.asprintf "%a" pp_update) us)));
          Format.fprintf ppf " }%s@." sep)
        edges);
  Format.fprintf ppf "}@."

let pp ppf (net : Model.t) =
  Format.fprintf ppf "// generated by hbproto (Ta.Xta)@.@.";
  pp_declarations ppf net;
  Format.fprintf ppf "@.";
  List.iter
    (fun a ->
      pp_process ppf a;
      Format.fprintf ppf "@.")
    net.Model.automata;
  Format.fprintf ppf "system %s;@."
    (String.concat ", "
       (List.map (fun (a : Model.automaton) -> a.Model.auto_name)
          net.Model.automata))

let to_string net = Format.asprintf "%a" pp net

(* --- parsing -------------------------------------------------------- *)

exception Parse_error of string

type token =
  | Tid of string
  | Tint of int
  | Tsym of string  (* punctuation and operators, longest match first *)

let tok_name = function
  | Tid s -> Printf.sprintf "identifier %S" s
  | Tint n -> Printf.sprintf "integer %d" n
  | Tsym s -> Printf.sprintf "%S" s

(* The symbols, matched on characters: the two-character symbol that
   starts with [a] then [b], else the one-character symbol [a], each ""
   when there is none.  Longest match: the lexer tries two characters
   first. *)
let two_char a b =
  match (a, b) with
  | '-', '>' -> "->"
  | '<', '?' -> "<?"
  | '>', '?' -> ">?"
  | '<', '=' -> "<="
  | '>', '=' -> ">="
  | '=', '=' -> "=="
  | '!', '=' -> "!="
  | '&', '&' -> "&&"
  | '|', '|' -> "||"
  | _ -> ""

let one_char = function
  | '{' -> "{" | '}' -> "}" | '(' -> "(" | ')' -> ")" | '[' -> "["
  | ']' -> "]" | ';' -> ";" | ',' -> "," | '!' -> "!" | '?' -> "?"
  | '<' -> "<" | '>' -> ">" | '=' -> "=" | '+' -> "+" | '-' -> "-"
  | '*' -> "*" | '/' -> "/"
  | _ -> ""

let lex (src : string) : (token * int) array =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let err fmt = Format.kasprintf (fun m ->
      raise (Parse_error (Printf.sprintf "line %d: %s" !line m))) fmt in
  let is_id_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_id c = is_id_start c || (c >= '0' && c <= '9') in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let closed = ref false in
      while not !closed do
        if !i + 1 >= n then err "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2; closed := true
        end else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
      let digits = String.sub src !i (!j - !i) in
      let v = match int_of_string_opt digits with
        | Some v -> v
        | None -> err "integer literal %s out of range" digits in
      toks := (Tint v, !line) :: !toks;
      i := !j
    end
    else if is_id_start c then begin
      let j = ref !i in
      while !j < n && is_id src.[!j] do incr j done;
      toks := (Tid (String.sub src !i (!j - !i)), !line) :: !toks;
      i := !j
    end
    else
      let sym2 = if !i + 1 < n then two_char c src.[!i + 1] else "" in
      if sym2 <> "" then begin
        toks := (Tsym sym2, !line) :: !toks;
        i := !i + 2
      end
      else
        let sym1 = one_char c in
        if sym1 <> "" then begin
          toks := (Tsym sym1, !line) :: !toks;
          incr i
        end
        else err "unexpected character %C" c
  done;
  Array.of_list (List.rev !toks)

(* parser state: a token array and a mutable cursor; backtracking is a
   cursor save/restore (used only to disambiguate "(expr ..." from
   "(bexpr ..." after a parenthesis) *)
type pstate = { toks : (token * int) array; mutable pos : int }

let peek p = if p.pos < Array.length p.toks then Some (fst p.toks.(p.pos))
             else None

let line_at p =
  if p.pos < Array.length p.toks then snd p.toks.(p.pos)
  else if Array.length p.toks = 0 then 1
  else snd p.toks.(Array.length p.toks - 1)

let perr p fmt =
  Format.kasprintf (fun m ->
      raise (Parse_error (Printf.sprintf "line %d: %s" (line_at p) m))) fmt

let advance p = p.pos <- p.pos + 1

let eat_sym p s =
  match peek p with
  | Some (Tsym s') when s' = s -> advance p
  | Some t -> perr p "expected %S, found %s" s (tok_name t)
  | None -> perr p "expected %S, found end of input" s

let eat_kw p kw =
  match peek p with
  | Some (Tid k) when k = kw -> advance p
  | Some t -> perr p "expected %S, found %s" kw (tok_name t)
  | None -> perr p "expected %S, found end of input" kw

let accept_sym p s =
  match peek p with
  | Some (Tsym s') when s' = s -> advance p; true
  | _ -> false

let accept_kw p kw =
  match peek p with
  | Some (Tid k) when k = kw -> advance p; true
  | _ -> false

let ident p =
  match peek p with
  | Some (Tid s) -> advance p; s
  | Some t -> perr p "expected an identifier, found %s" (tok_name t)
  | None -> perr p "expected an identifier, found end of input"

let integer p =
  match peek p with
  | Some (Tint n) -> advance p; n
  | Some (Tsym "-") ->
      advance p;
      (match peek p with
      | Some (Tint n) -> advance p; -n
      | _ -> perr p "expected an integer after '-'")
  | Some t -> perr p "expected an integer, found %s" (tok_name t)
  | None -> perr p "expected an integer, found end of input"

(* arithmetic expressions; clock/var distinction is resolved later from
   the declarations, so identifiers parse as Var for now *)
let rec expr p = min_max p

and min_max p =
  let a = additive p in
  match peek p with
  | Some (Tsym "<?") -> advance p; Expr.Min (a, min_max p)
  | Some (Tsym ">?") -> advance p; Expr.Max (a, min_max p)
  | _ -> a

and additive p =
  let a = ref (multiplicative p) in
  let continue = ref true in
  while !continue do
    match peek p with
    | Some (Tsym "+") -> advance p; a := Expr.Add (!a, multiplicative p)
    | Some (Tsym "-") -> advance p; a := Expr.Sub (!a, multiplicative p)
    | _ -> continue := false
  done;
  !a

and multiplicative p =
  let a = ref (primary p) in
  let continue = ref true in
  while !continue do
    match peek p with
    | Some (Tsym "*") -> advance p; a := Expr.Mul (!a, primary p)
    | Some (Tsym "/") -> advance p; a := Expr.Div (!a, primary p)
    | _ -> continue := false
  done;
  !a

and primary p =
  match peek p with
  | Some (Tint n) -> advance p; Expr.Int n
  | Some (Tsym "-") ->
      advance p;
      (match primary p with
      | Expr.Int n -> Expr.Int (-n)
      | e -> Expr.Sub (Expr.Int 0, e))
  | Some (Tsym "(") ->
      advance p;
      let e = expr p in
      eat_sym p ")";
      e
  | Some (Tid name) ->
      advance p;
      if accept_sym p "[" then begin
        let idx = expr p in
        eat_sym p "]";
        Expr.Elem (name, idx)
      end
      else Expr.Var name
  | Some t -> perr p "expected an expression, found %s" (tok_name t)
  | None -> perr p "expected an expression, found end of input"

let cmp_of_sym = function
  | "<" -> Some Expr.Lt
  | "<=" -> Some Expr.Le
  | "==" -> Some Expr.Eq
  | ">=" -> Some Expr.Ge
  | ">" -> Some Expr.Gt
  | "!=" -> Some Expr.Ne
  | _ -> None

(* boolean expressions: || over && over atoms; an atom starting with
   '(' is ambiguous between a parenthesised bexpr and the left operand
   of a comparison, resolved by backtracking on the token cursor *)
let rec bexpr p = bor p

and bor p =
  let a = ref (band p) in
  while accept_sym p "||" do a := Expr.Or (!a, band p) done;
  !a

and band p =
  let a = ref (batom p) in
  while accept_sym p "&&" do a := Expr.And (!a, batom p) done;
  !a

and batom p =
  match peek p with
  | Some (Tid "true") -> advance p; Expr.True
  | Some (Tid "false") -> advance p; Expr.False
  | Some (Tsym "!") ->
      advance p;
      eat_sym p "(";
      let b = bexpr p in
      eat_sym p ")";
      Expr.Not b
  | Some (Tsym "(") ->
      let saved = p.pos in
      (try comparison p
       with Parse_error _ ->
         p.pos <- saved;
         advance p;
         let b = bexpr p in
         eat_sym p ")";
         b)
  | _ -> comparison p

and comparison p =
  let a = expr p in
  match peek p with
  | Some (Tsym s) when cmp_of_sym s <> None ->
      advance p;
      let c = Option.get (cmp_of_sym s) in
      Expr.Cmp (c, a, expr p)
  | Some t -> perr p "expected a comparison operator, found %s" (tok_name t)
  | None -> perr p "expected a comparison operator, found end of input"

(* declarations *)
type decls = {
  mutable d_vars : Model.var_decl list;
  mutable d_clocks : string list;
  mutable d_chans : Model.chan_decl list;
}

let parse_declaration p (d : decls) =
  if accept_kw p "int" then begin
    let name = ident p in
    if accept_sym p "[" then begin
      let size = integer p in
      eat_sym p "]";
      eat_sym p "=";
      eat_sym p "{";
      let rec elems acc =
        let v = integer p in
        if accept_sym p "," then elems (v :: acc)
        else List.rev (v :: acc)
      in
      let init = elems [] in
      eat_sym p "}";
      eat_sym p ";";
      if List.length init <> size then
        perr p "array %s declares %d elements but initialises %d" name size
          (List.length init);
      d.d_vars <- { Model.var_name = name; init } :: d.d_vars
    end
    else begin
      eat_sym p "=";
      let v = integer p in
      eat_sym p ";";
      d.d_vars <- Model.scalar name v :: d.d_vars
    end
  end
  else if accept_kw p "clock" then begin
    let name = ident p in
    eat_sym p ";";
    d.d_clocks <- name :: d.d_clocks
  end
  else if accept_kw p "broadcast" then begin
    eat_kw p "chan";
    let name = ident p in
    eat_sym p ";";
    d.d_chans <- Model.chan ~broadcast:true name :: d.d_chans
  end
  else if accept_kw p "chan" then begin
    let name = ident p in
    eat_sym p ";";
    d.d_chans <- Model.chan name :: d.d_chans
  end
  else perr p "expected a declaration or 'process'"

(* processes *)
let parse_update p ~clocks =
  match peek p with
  | Some (Tid name) ->
      advance p;
      if accept_sym p "[" then begin
        let idx = expr p in
        eat_sym p "]";
        eat_sym p "=";
        Model.Assign (Model.Element (name, idx), expr p)
      end
      else begin
        eat_sym p "=";
        match peek p with
        | Some (Tint 0) when List.mem name clocks ->
            advance p;
            Model.Reset name
        | _ ->
            if List.mem name clocks then
              perr p "clock %s may only be reset to 0" name;
            Model.Assign (Model.Scalar name, expr p)
      end
  | Some t -> perr p "expected an assignment, found %s" (tok_name t)
  | None -> perr p "expected an assignment, found end of input"

let parse_edge p ~clocks =
  let src = ident p in
  eat_sym p "->";
  let dst = ident p in
  eat_sym p "{";
  let guard = ref Expr.True in
  let sync = ref Model.Tau in
  let updates = ref [] in
  if accept_kw p "guard" then begin
    guard := bexpr p;
    eat_sym p ";"
  end;
  if accept_kw p "sync" then begin
    let c = ident p in
    if accept_sym p "!" then sync := Model.Send c
    else begin
      eat_sym p "?";
      sync := Model.Recv c
    end;
    eat_sym p ";"
  end;
  if accept_kw p "assign" then begin
    let rec go acc =
      let u = parse_update p ~clocks in
      if accept_sym p "," then go (u :: acc) else List.rev (u :: acc)
    in
    updates := go [];
    eat_sym p ";"
  end;
  eat_sym p "}";
  Model.edge ~guard:!guard ~sync:!sync ~updates:!updates ~src ~dst ()

let parse_process p ~clocks : Model.automaton =
  let name = ident p in
  eat_sym p "(";
  eat_sym p ")";
  eat_sym p "{";
  eat_kw p "state";
  let rec states acc =
    let ln = ident p in
    let inv = if accept_sym p "{" then begin
        let b = bexpr p in
        eat_sym p "}";
        b
      end else Expr.True
    in
    let l = Model.loc ~invariant:inv ln in
    if accept_sym p "," then states (l :: acc)
    else begin
      eat_sym p ";";
      List.rev (l :: acc)
    end
  in
  let locations = ref (states []) in
  let mark kind names =
    locations :=
      List.map
        (fun (l : Model.location) ->
          if List.mem l.Model.loc_name names then { l with Model.kind } else l)
        !locations
  in
  let name_list () =
    let rec go acc =
      let n = ident p in
      if accept_sym p "," then go (n :: acc)
      else begin
        eat_sym p ";";
        List.rev (n :: acc)
      end
    in
    go []
  in
  if accept_kw p "urgent" then mark Model.Urgent (name_list ());
  if accept_kw p "commit" then mark Model.Committed (name_list ());
  eat_kw p "init";
  let init_loc = ident p in
  eat_sym p ";";
  let edges =
    if accept_kw p "trans" then begin
      let rec go acc =
        let e = parse_edge p ~clocks in
        if accept_sym p "," then go (e :: acc)
        else begin
          eat_sym p ";";
          List.rev (e :: acc)
        end
      in
      go []
    end
    else []
  in
  eat_sym p "}";
  { Model.auto_name = name; locations = !locations; edges; init_loc }

let parse (src : string) : Model.t =
  let p = { toks = lex src; pos = 0 } in
  let d = { d_vars = []; d_clocks = []; d_chans = [] } in
  while (match peek p with
         | Some (Tid "process") | Some (Tid "system") | None -> false
         | _ -> true) do
    parse_declaration p d
  done;
  let clocks = List.rev d.d_clocks in
  let automata = ref [] in
  while accept_kw p "process" do
    automata := parse_process p ~clocks :: !automata
  done;
  eat_kw p "system";
  let rec sys_names acc =
    let n = ident p in
    if accept_sym p "," then sys_names (n :: acc)
    else begin
      eat_sym p ";";
      List.rev (n :: acc)
    end
  in
  let order = sys_names [] in
  if peek p <> None then perr p "trailing input after the system line";
  let automata =
    List.map
      (fun n ->
        match
          List.find_opt
            (fun (a : Model.automaton) -> a.Model.auto_name = n)
            !automata
        with
        | Some a -> a
        | None -> perr p "system instantiates undeclared process %s" n)
      order
  in
  (* identifiers lex as Var; promote the declared clocks to Clock *)
  let promote = function
    | Expr.Var n when List.mem n clocks -> Expr.Clock n
    | e -> e
  in
  let automata =
    List.map
      (fun (a : Model.automaton) ->
        {
          a with
          Model.locations =
            List.map
              (fun (l : Model.location) ->
                {
                  l with
                  Model.invariant = Expr.map_b promote l.Model.invariant;
                })
              a.Model.locations;
          edges =
            List.map
              (fun (e : Model.edge) ->
                {
                  e with
                  Model.guard = Expr.map_b promote e.Model.guard;
                  updates =
                    List.map
                      (function
                        | Model.Reset c -> Model.Reset c
                        | Model.Assign (Model.Scalar v, ex) ->
                            Model.Assign (Model.Scalar v, Expr.map promote ex)
                        | Model.Assign (Model.Element (v, i), ex) ->
                            Model.Assign
                              ( Model.Element (v, Expr.map promote i),
                                Expr.map promote ex ))
                      e.Model.updates;
                })
              a.Model.edges;
        })
      automata
  in
  (* caps: the .xta surface has no clock caps, so infer one large enough
     for saturation soundness — beyond every integer literal in the
     document *)
  let biggest = ref 0 in
  let literal () = function
    | Expr.Int n -> biggest := max !biggest (abs n)
    | _ -> ()
  in
  List.iter
    (fun (a : Model.automaton) ->
      List.iter
        (fun (l : Model.location) -> Expr.fold_b literal () l.Model.invariant)
        a.Model.locations;
      List.iter
        (fun (e : Model.edge) ->
          Expr.fold_b literal () e.Model.guard;
          List.iter
            (function
              | Model.Reset _ -> ()
              | Model.Assign (Model.Scalar _, ex) -> Expr.fold literal () ex
              | Model.Assign (Model.Element (_, i), ex) ->
                  Expr.fold literal () i;
                  Expr.fold literal () ex)
            e.Model.updates)
        a.Model.edges)
    automata;
  let cap = !biggest + 2 in
  {
    Model.vars = List.rev d.d_vars;
    clocks = List.map (fun c -> { Model.clock_name = c; cap }) clocks;
    chans = List.rev d.d_chans;
    automata;
  }
