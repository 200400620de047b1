(* Column layout: time | p[0] | channels | p[1] .. p[n].

   Actions are routed to a lifeline by their conventional names
   (see {!Ta_models}); channel deliveries and losses live in the middle
   column with an arrow showing the direction. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let participant_suffix s =
  (* trailing integer of an action name like "inactivate_nv_p3" *)
  let n = String.length s in
  let rec go i = if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then go (i - 1) else i in
  let start = go n in
  if start = n then None else int_of_string_opt (String.sub s start (n - start))

let column_of action =
  if
    starts_with "timeout_p0" action
    || starts_with "beat0" action
    || action = "inactivate_nv_p0" || action = "crash_p0"
  then Some 0
  else if
    starts_with "dlv" action
    || starts_with "lose" action
    || starts_with "jlose" action
  then None
  else
    (* beat1, join1, inactivate_nv_p1, crash_p1, errorR1_1, leave1 ... *)
    participant_suffix action

(* Direction glyph for channel events. *)
let channel_glyph action =
  if starts_with "dlv0" action then Printf.sprintf "--%s-->" action
  else if starts_with "dlv1" action then Printf.sprintf "<--%s--" action
  else if starts_with "(" action then action
  else Printf.sprintf "x %s x" action

let col_width = 22

let pad text = Printf.sprintf "%-*s" col_width text

let header_line n =
  pad "time" ^ pad "p[0]" ^ pad "channel"
  ^ String.concat "" (List.init n (fun i -> pad (Printf.sprintf "p[%d]" (i + 1))))

let add_events buf ~n ~last_time events =
  let row time cells =
    Buffer.add_string buf (pad time);
    List.iter (fun c -> Buffer.add_string buf (pad c)) cells;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (e : Scenarios.event) ->
      let time_cell =
        if e.Scenarios.time <> !last_time then begin
          last_time := e.Scenarios.time;
          Printf.sprintf "t=%d" e.Scenarios.time
        end
        else ""
      in
      let cells =
        match column_of e.Scenarios.action with
        | Some 0 ->
            e.Scenarios.action :: "" :: List.init n (fun _ -> "")
        | Some i when i >= 1 && i <= n ->
            "" :: ""
            :: List.init n (fun k -> if k + 1 = i then e.Scenarios.action else "")
        | Some _ | None ->
            "" :: channel_glyph e.Scenarios.action :: List.init n (fun _ -> "")
      in
      row time_cell cells)
    events

let render (s : Scenarios.t) =
  let buf = Buffer.create 1024 in
  let header = header_line 1 in
  Buffer.add_string buf (Printf.sprintf "%s — %s\n" s.Scenarios.figure
     (Ta_models.variant_name s.Scenarios.variant));
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (String.make (String.length header) '-' ^ "\n");
  add_events buf ~n:1 ~last_time:(ref (-1)) s.Scenarios.events;
  Buffer.contents buf

let render_lasso ?(n = 1) ~header:title
    (lasso : Ta.Semantics.label Ltl.Check.lasso) =
  let buf = Buffer.create 1024 in
  let header = header_line n in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (String.make (String.length header) '-' ^ "\n");
  (* fold ticks into timestamps, continuing across the prefix/cycle
     boundary so the cycle's first lap carries real times *)
  let time = ref 0 in
  let events steps =
    List.filter_map
      (fun (s : Ta.Semantics.label Ltl.Check.step) ->
        match s with
        | Ltl.Check.Step Ta.Semantics.Delay ->
            incr time;
            None
        | Ltl.Check.Step (Ta.Semantics.Act a) ->
            Some { Scenarios.time = !time; action = a }
        | Ltl.Check.Stutter ->
            Some { Scenarios.time = !time; action = "(stutter)" })
      steps
  in
  let prefix_events = events lasso.Ltl.Check.prefix in
  let cycle_events = events lasso.Ltl.Check.cycle in
  let last_time = ref (-1) in
  add_events buf ~n ~last_time prefix_events;
  let ticks =
    List.length
      (List.filter
         (fun s -> s = Ltl.Check.Step Ta.Semantics.Delay)
         lasso.Ltl.Check.cycle)
  in
  Buffer.add_string buf
    (Printf.sprintf "%s cycle repeats forever (%d tick%s per lap) %s\n"
       (String.make 8 '=') ticks
       (if ticks = 1 then "" else "s")
       (String.make (max 8 (String.length header - 50)) '='));
  add_events buf ~n ~last_time cycle_events;
  Buffer.contents buf
