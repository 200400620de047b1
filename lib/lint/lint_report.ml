(* Diagnostics and report rendering for hblint.

   A report is a per-model bundle of diagnostics plus the analysis
   statistics (variable ranges and the static state-count bound).  Both
   renderers are fully
   deterministic: diagnostics are sorted by (severity, code, where,
   message), ranges by variable name, and the JSON is hand-rolled with
   no hashtable iteration order or timestamps leaking in. *)

module I = Lint_interval

type severity = Error | Warning | Info

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type diag = {
  code : string;  (* e.g. "PA-SUM-EMPTY" *)
  severity : severity;
  where : string;  (* definition / automaton / channel ... *)
  message : string;
  waived : bool;  (* demoted by the allowlist *)
}

let diag ?(severity = Warning) ~code ~where fmt =
  Format.kasprintf
    (fun message -> { code; severity; where; message; waived = false })
    fmt

type stats = {
  ranges : (string * I.t) list;  (* sorted by variable name *)
  state_bound : I.card;
}

let no_stats = { ranges = []; state_bound = I.Unbounded }

type t = { model : string; diags : diag list; stats : stats }

let compare_diag a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare a.where b.where in
      if c <> 0 then c else String.compare a.message b.message

let make ~model ~diags ~stats =
  {
    model;
    diags = List.sort compare_diag diags;
    stats = { stats with ranges = List.sort compare (stats.ranges : (string * I.t) list) };
  }

(* Demote every diagnostic matched by [allow] to a waived info.  Used by
   the CLI allowlist: known-benign findings stay visible in the output
   but no longer gate. *)
let waive allow r =
  let diags =
    List.map
      (fun d ->
        if d.severity <> Info && allow r.model d then
          { d with severity = Info; waived = true }
        else d)
      r.diags
  in
  { r with diags = List.sort compare_diag diags }

(* Allowlist entry syntax, shared with the CLI: "CODE" waives the code
   everywhere, "MODEL/CODE" for one model only. *)
let spec_matches spec ~model (d : diag) =
  match String.index_opt spec '/' with
  | None -> spec = d.code
  | Some i ->
      String.sub spec 0 i = model
      && String.sub spec (i + 1) (String.length spec - i - 1) = d.code

(* The allowlist entries that matched no diagnostic of any report — a
   stale waiver usually means the lint it silenced was fixed (or the
   code was renamed) and the entry should be dropped. *)
let unused_allows specs reports =
  List.filter
    (fun spec ->
      not
        (List.exists
           (fun r ->
             List.exists (fun d -> spec_matches spec ~model:r.model d) r.diags)
           reports))
    specs

let count sev r =
  List.length (List.filter (fun d -> d.severity = sev) r.diags)

let errors r = count Error r
let warnings r = count Warning r

(* --- text rendering ------------------------------------------------- *)

let pp_diag ppf d =
  Format.fprintf ppf "%s[%s]%s %s: %s" (severity_name d.severity) d.code
    (if d.waived then " (waived)" else "")
    d.where d.message

let pp ?(verbose = false) ppf r =
  Format.fprintf ppf "== %s ==@." r.model;
  List.iter (fun d -> Format.fprintf ppf "  %a@." pp_diag d) r.diags;
  if verbose then
    List.iter
      (fun (x, i) -> Format.fprintf ppf "  range %s = %a@." x I.pp i)
      r.stats.ranges;
  Format.fprintf ppf "  state bound: %a; %d error(s), %d warning(s)@."
    I.pp_card r.stats.state_bound (errors r) (warnings r)

(* --- JSON rendering ------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = Printf.sprintf "\"%s\"" (json_escape s)

let json_bound ppf x =
  if x = I.neg_inf then Format.pp_print_string ppf "\"-inf\""
  else if x = I.pos_inf then Format.pp_print_string ppf "\"+inf\""
  else Format.pp_print_int ppf x

let json_card ppf = function
  | I.Finite n -> Format.pp_print_int ppf n
  | I.Unbounded -> Format.pp_print_string ppf "\"unbounded\""

let json_diag ppf d =
  Format.fprintf ppf
    "{\"code\":%s,\"severity\":%s,\"where\":%s,\"message\":%s,\"waived\":%b}"
    (json_str d.code)
    (json_str (severity_name d.severity))
    (json_str d.where) (json_str d.message) d.waived

let json_range ppf (x, (i : I.t)) =
  Format.fprintf ppf "{\"var\":%s,\"lo\":%a,\"hi\":%a}" (json_str x)
    json_bound i.I.lo json_bound i.I.hi

let json_list pp_item ppf l =
  Format.pp_print_string ppf "[";
  List.iteri
    (fun k x ->
      if k > 0 then Format.pp_print_string ppf ",";
      pp_item ppf x)
    l;
  Format.pp_print_string ppf "]"

let pp_json_model ppf r =
  Format.fprintf ppf
    "{\"model\":%s,\"state_bound\":%a,\"errors\":%d,\"warnings\":%d,@,\
     \"ranges\":%a,@,\"diagnostics\":%a}"
    (json_str r.model) json_card r.stats.state_bound (errors r)
    (warnings r)
    (json_list json_range) r.stats.ranges
    (json_list json_diag) r.diags

(* Whole-run JSON document.  Rendered on a plain formatter (no margins),
   so the output is byte-identical across runs and terminal widths. *)
let to_json reports =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Format.fprintf ppf "{\"version\":1,\"errors\":%d,\"warnings\":%d,@,\"models\":%a}"
    (total errors) (total warnings)
    (json_list pp_json_model) reports;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
