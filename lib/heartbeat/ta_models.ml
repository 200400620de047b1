module M = Ta.Model
module E = Ta.Expr

type variant = Binary | Revised | Two_phase | Static | Expanding | Dynamic

let all_variants = [ Binary; Revised; Two_phase; Static; Expanding; Dynamic ]

let variant_name = function
  | Binary -> "binary"
  | Revised -> "revised"
  | Two_phase -> "two-phase"
  | Static -> "static"
  | Expanding -> "expanding"
  | Dynamic -> "dynamic"

let is_multi = function
  | Static | Expanding | Dynamic -> true
  | Binary | Revised | Two_phase -> false

let has_join = function
  | Expanding | Dynamic -> true
  | Binary | Revised | Two_phase | Static -> false

let participants variant (p : Params.t) =
  List.init (if is_multi variant then p.Params.n else 1) (fun k -> k + 1)

let p0_name = "P0"
let p_name i = Printf.sprintf "P%d" i
let monitor_name i = Printf.sprintf "M%d" i
let error_act i = Printf.sprintf "errorR1_%d" i

(* Per-participant names. *)
let active i = if i = 0 then "active0" else Printf.sprintf "active%d" i
let rcvd i = Printf.sprintf "rcvd%d" i
let tm i = Printf.sprintf "tm%d" i
let jnd i = Printf.sprintf "jnd%d" i
let gone i = Printf.sprintf "gone%d" i
let spent i = Printf.sprintf "spent%d" i
let pbusy i = Printf.sprintf "pbusy%d" i
let in0 i = Printf.sprintf "in0_%d" i
let in1 i = Printf.sprintf "in1_%d" i
let msg1 i = Printf.sprintf "msg1_%d" i
let out1 i = Printf.sprintf "out1_%d" i
let jmode i = Printf.sprintf "jmode%d" i
let wfb i = Printf.sprintf "wfb%d" i
let wtj i = Printf.sprintf "wtj%d" i
let d0 i = Printf.sprintf "d0_%d" i
let d1 i = Printf.sprintf "d1_%d" i
let mclk i = Printf.sprintf "m%d" i
let ch0 i = Printf.sprintf "Ch0_%d" i
let ch1 i = Printf.sprintf "Ch1_%d" i
let snd1 i = Printf.sprintf "snd1_%d" i
let dlv0 i = Printf.sprintf "dlv0_%d" i
let dlv1 i = Printf.sprintf "dlv1_%d" i

(* Expression shorthands (explicit, to avoid shadowing loop indices). *)
let num n = E.Int n
let var name = E.Var name
let clk name = E.Clock name
let eq a b = E.Cmp (E.Eq, a, b)
let le a b = E.Cmp (E.Le, a, b)
let ge a b = E.Cmp (E.Ge, a, b)
let gt a b = E.Cmp (E.Gt, a, b)
let ne a b = E.Cmp (E.Ne, a, b)
let band a b = E.And (a, b)
let assign name e = M.Assign (M.Scalar name, e)
let set1 name = assign name (num 1)
let set0 name = assign name (num 0)

(* p[0]'s coordinator automaton. *)
let p0_automaton variant ~fixed (p : Params.t) n =
  let tmin = p.Params.tmin and tmax = p.Params.tmax in
  let participants = List.init n (fun k -> k + 1) in
  (* New waiting time of participant i, computed from the pre-timeout
     values of rcvd_i / tm_i / jnd_i. *)
  let tm' i =
    let on_reply = num tmax in
    let on_miss =
      match variant with
      | Two_phase -> num tmin
      | Binary | Revised | Static | Expanding | Dynamic ->
          E.Div (var (tm i), num 2)
    in
    let joined_case =
      E.Add
        ( E.Mul (var (rcvd i), on_reply),
          E.Mul (E.Sub (num 1, var (rcvd i)), on_miss) )
    in
    if has_join variant then
      E.Add
        ( E.Mul (var (jnd i), joined_case),
          E.Mul (E.Sub (num 1, var (jnd i)), num tmax) )
    else joined_case
  in
  let newt =
    match participants with
    | [] -> num tmax
    | first :: rest ->
        List.fold_left (fun acc k -> E.Min (acc, tm' k)) (tm' first) rest
  in
  let send_guard, nv_guard =
    match variant with
    | Two_phase ->
        ( E.Or (ne (var (rcvd 1)) (num 0), gt (var (tm 1)) (num tmin)),
          band (eq (var (rcvd 1)) (num 0)) (le (var (tm 1)) (num tmin)) )
    | Binary | Revised | Static | Expanding | Dynamic ->
        (ge newt (num tmin), E.Cmp (E.Lt, newt, num tmin))
  in
  (* Receive priority (the §6.1 fix): the round boundary may not be
     processed while any message of the exchange is still in flight — a
     pending reply, or a pending forward beat whose delivery would trigger
     an instantaneous reply.  The chain resolves without time passing, so
     this only reorders simultaneous events, exactly as the fix asks. *)
  let timeout_guard =
    let base = eq (clk "w0") (var "t") in
    if fixed then
      List.fold_left
        (fun acc k ->
          band acc
            (band
               (band (eq (var (in1 k)) (num 0)) (eq (var (in0 k)) (num 0)))
               (eq (var (pbusy k)) (num 0))))
        base participants
    else base
  in
  let beat_updates =
    (assign "t" newt :: List.map (fun k -> assign (tm k) (tm' k)) participants)
    @ List.map (fun k -> set0 (rcvd k)) participants
    @ [ M.Reset "w0"; set0 "p0busy" ]
  in
  let recv_edges loc =
    List.concat_map
      (fun k ->
        match variant with
        | Dynamic ->
            [
              (* Leaving is permanent: beats from a participant that has
                 left are ignored. *)
              M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k))
                ~guard:
                  (band (eq (var (msg1 k)) (num 1)) (eq (var (gone k)) (num 0)))
                ~updates:[ set1 (rcvd k); set1 (jnd k) ]
                ();
              M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k))
                ~guard:
                  (band (eq (var (msg1 k)) (num 1)) (eq (var (gone k)) (num 1)))
                ();
              M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k))
                ~guard:(eq (var (msg1 k)) (num 0))
                ~updates:[ set0 (jnd k); set1 (gone k) ]
                ();
            ]
        | Expanding ->
            [
              M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k))
                ~updates:[ set1 (rcvd k); set1 (jnd k) ]
                ();
            ]
        | Binary | Revised | Two_phase | Static ->
            [
              M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k))
                ~updates:[ set1 (rcvd k) ]
                ();
            ])
      participants
  in
  let dead_recv_edges loc =
    List.map
      (fun k -> M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv1 k)) ())
      participants
  in
  let locations =
    (if variant = Revised then [ M.loc ~kind:M.Urgent "Start" ] else [])
    @ [
        M.loc ~invariant:(le (clk "w0") (var "t")) "Alive";
        M.loc ~kind:M.Urgent "TimeOut";
        M.loc "VInact";
        M.loc "NVInact";
      ]
  in
  let start_edges =
    if variant = Revised then
      [
        M.edge ~src:"Start" ~dst:"Alive" ~sync:(M.Send "snd0") ~act:"beat0"
          ~updates:[ M.Reset "w0" ] ();
        M.edge ~src:"Start" ~dst:"VInact" ~act:"crash_p0"
          ~updates:[ set0 (active 0) ]
          ();
      ]
    else []
  in
  let edges =
    start_edges
    @ [
        M.edge ~src:"Alive" ~dst:"TimeOut" ~guard:timeout_guard
          ~act:"timeout_p0"
          ~updates:[ set1 "p0busy" ]
          ();
        M.edge ~src:"TimeOut" ~dst:"Alive" ~sync:(M.Send "snd0")
          ~guard:send_guard ~act:"beat0" ~updates:beat_updates ();
        M.edge ~src:"TimeOut" ~dst:"NVInact" ~guard:nv_guard
          ~act:"inactivate_nv_p0"
          ~updates:[ set0 (active 0); set0 "p0busy" ]
          ();
        M.edge ~src:"Alive" ~dst:"VInact" ~act:"crash_p0"
          ~updates:[ set0 (active 0) ]
          ();
      ]
    @ recv_edges "Alive" @ dead_recv_edges "VInact" @ dead_recv_edges "NVInact"
  in
  {
    M.auto_name = p0_name;
    locations;
    edges;
    init_loc = (if variant = Revised then "Start" else "Alive");
  }

(* Participant automaton p[i]. *)
let pi_automaton variant ~fixed (p : Params.t) i =
  let tmin = p.Params.tmin and tmax = p.Params.tmax in
  let pibound = if fixed then 2 * tmax else (3 * tmax) - tmin in
  let joinbound = if fixed then (2 * tmax) + tmin else (3 * tmax) - tmin in
  let nv_guard clock bound =
    let base = eq (clk clock) (num bound) in
    if fixed then band base (eq (var (in0 i)) (num 0)) else base
  in
  let reply_updates =
    [ M.Reset (wfb i); set0 (pbusy i) ]
    @ if variant = Dynamic then [ assign (out1 i) (num 1) ] else []
  in
  let joining = has_join variant in
  let locations =
    (if joining then
       [
         M.loc ~kind:M.Urgent "Init";
         M.loc
           ~invariant:
             (band
                (le (clk (wtj i)) (num tmin))
                (le (clk (wfb i)) (num joinbound)))
           "Waiting";
       ]
     else [])
    @ [
        M.loc ~invariant:(le (clk (wfb i)) (num pibound)) "Alive";
        M.loc ~kind:M.Urgent "Rcvd";
        M.loc "VInact";
        M.loc "NVInact";
      ]
    @ (if variant = Dynamic then [ M.loc "Left" ] else [])
  in
  let dead_recv loc = M.edge ~src:loc ~dst:loc ~sync:(M.Recv (dlv0 i)) () in
  let join_updates =
    [ M.Reset (wtj i) ]
    @ if variant = Dynamic then [ assign (out1 i) (num 1) ] else []
  in
  let join_edges =
    if joining then
      [
        M.edge ~src:"Init" ~dst:"Waiting" ~sync:(M.Send (snd1 i))
          ~act:(Printf.sprintf "join%d" i)
          ~updates:(M.Reset (wfb i) :: join_updates)
          ();
        M.edge ~src:"Init" ~dst:"VInact"
          ~act:(Printf.sprintf "crash_p%d" i)
          ~updates:[ set0 (active i) ]
          ();
        M.edge ~src:"Waiting" ~dst:"Waiting" ~sync:(M.Send (snd1 i))
          ~guard:(eq (clk (wtj i)) (num tmin))
          ~act:(Printf.sprintf "join%d" i)
          ~updates:join_updates ();
        M.edge ~src:"Waiting" ~dst:"Rcvd" ~sync:(M.Recv (dlv0 i))
          ~updates:[ set1 (pbusy i) ]
          ();
        M.edge ~src:"Waiting" ~dst:"NVInact"
          ~guard:(nv_guard (wfb i) joinbound)
          ~act:(Printf.sprintf "inactivate_nv_p%d" i)
          ~updates:[ set0 (active i) ]
          ();
        M.edge ~src:"Waiting" ~dst:"VInact"
          ~act:(Printf.sprintf "crash_p%d" i)
          ~updates:[ set0 (active i) ]
          ();
      ]
    else []
  in
  let edges =
    join_edges
    @ [
        M.edge ~src:"Alive" ~dst:"Rcvd" ~sync:(M.Recv (dlv0 i))
          ~updates:[ set1 (pbusy i) ]
          ();
        M.edge ~src:"Rcvd" ~dst:"Alive" ~sync:(M.Send (snd1 i))
          ~act:(Printf.sprintf "beat%d" i)
          ~updates:reply_updates ();
        M.edge ~src:"Alive" ~dst:"NVInact"
          ~guard:(nv_guard (wfb i) pibound)
          ~act:(Printf.sprintf "inactivate_nv_p%d" i)
          ~updates:[ set0 (active i) ]
          ();
        M.edge ~src:"Alive" ~dst:"VInact"
          ~act:(Printf.sprintf "crash_p%d" i)
          ~updates:[ set0 (active i) ]
          ();
        dead_recv "VInact";
        dead_recv "NVInact";
      ]
    @
    if variant = Dynamic then
      [
        (* Departure is tracked by the Left location itself; a separate
           leave_i flag would be a write-only config cell (hblint
           TA-VAR-WRITE-ONLY). *)
        M.edge ~src:"Rcvd" ~dst:"Left" ~sync:(M.Send (snd1 i))
          ~act:(Printf.sprintf "leave%d" i)
          ~updates:[ assign (out1 i) (num 0); set0 (pbusy i) ]
          ();
        dead_recv "Left";
      ]
    else []
  in
  {
    M.auto_name = p_name i;
    locations;
    edges;
    init_loc = (if joining then "Init" else "Alive");
  }

(* Forward channel p[0] -> p[i]: picks up the broadcast [snd0] (when p[i]
   participates), then delivers within [tmin] — recording the spent
   forward delay — or loses the beat. *)
let ch0_automaton variant (p : Params.t) i =
  let tmin = p.Params.tmin in
  let participate =
    if has_join variant then eq (var (jnd i)) (num 1) else E.True
  in
  let locations =
    [ M.loc "Idle"; M.loc ~invariant:(le (clk (d0 i)) (num tmin)) "Busy" ]
  in
  let edges =
    [
      M.edge ~src:"Idle" ~dst:"Busy" ~sync:(M.Recv "snd0") ~guard:participate
        ~updates:[ M.Reset (d0 i); assign (spent i) (num 0); set1 (in0 i) ]
        ();
      M.edge ~src:"Busy" ~dst:"Idle" ~sync:(M.Send (dlv0 i))
        ~guard:(eq (var (pbusy i)) (num 0))
        ~act:(dlv0 i)
        ~updates:[ assign (spent i) (clk (d0 i)); set0 (in0 i) ]
        ();
      M.edge ~src:"Busy" ~dst:"Idle"
        ~act:(Printf.sprintf "lose0_%d" i)
        ~updates:[ set1 "lost"; set0 (in0 i) ]
        ();
      (* A beat broadcast while one is still in flight overruns the
         one-place channel; count it as a loss. *)
      M.edge ~src:"Busy" ~dst:"Busy" ~sync:(M.Recv "snd0") ~guard:participate
        ~updates:[ set1 "lost" ]
        ();
    ]
  in
  { M.auto_name = ch0 i; locations; edges; init_loc = "Idle" }

(* Reverse channel p[i] -> p[0].  A reply's in-flight time is bounded by
   the round-trip budget left over from the forward direction.  In the
   joining variants, a beat sent before p[i] has joined travels on the
   paper's "extra channel": it may take up to tmax (this is what makes the
   Figure-13 scenario — a join request arriving just after a round
   boundary, acknowledged only a full round later — possible), and a join
   request superseded by a newer one is dropped silently, since the
   pre-join request stream is redundant by design and its drops are not
   what the requirements count as message loss. *)
let ch1_automaton variant (p : Params.t) i =
  let tmin = p.Params.tmin and tmax = p.Params.tmax in
  let joining = has_join variant in
  let enter_updates =
    [ M.Reset (d1 i); set1 (in1 i) ]
    @ (if joining then [ assign (jmode i) (var (jnd i)) ] else [])
    @ if variant = Dynamic then [ assign (msg1 i) (var (out1 i)) ] else []
  in
  let reply_budget = E.Sub (num tmin, var (spent i)) in
  let busy_invariant =
    if joining then
      le (clk (d1 i))
        (E.Add
           ( E.Mul (var (jmode i), reply_budget),
             E.Mul (E.Sub (num 1, var (jmode i)), num tmax) ))
    else le (clk (d1 i)) reply_budget
  in
  let overrun_edges =
    if joining then
      [
        M.edge ~src:"Busy" ~dst:"Busy" ~sync:(M.Recv (snd1 i))
          ~guard:(eq (var (jnd i)) (num 1))
          ~updates:[ set1 "lost" ]
          ();
        M.edge ~src:"Busy" ~dst:"Busy" ~sync:(M.Recv (snd1 i))
          ~guard:(eq (var (jnd i)) (num 0))
          ();
      ]
    else
      [
        M.edge ~src:"Busy" ~dst:"Busy" ~sync:(M.Recv (snd1 i))
          ~updates:[ set1 "lost" ]
          ();
      ]
  in
  let locations = [ M.loc "Idle"; M.loc ~invariant:busy_invariant "Busy" ] in
  let edges =
    [
      M.edge ~src:"Idle" ~dst:"Busy" ~sync:(M.Recv (snd1 i))
        ~updates:enter_updates ();
      M.edge ~src:"Busy" ~dst:"Idle" ~sync:(M.Send (dlv1 i))
        ~guard:(eq (var "p0busy") (num 0))
        ~act:(dlv1 i)
        ~updates:[ set0 (in1 i) ]
        ();
      M.edge ~src:"Busy" ~dst:"Idle"
        ~act:(Printf.sprintf "lose1_%d" i)
        ~updates:[ set1 "lost"; set0 (in1 i) ]
        ();
    ]
    @ overrun_edges
  in
  { M.auto_name = ch1 i; locations; edges; init_loc = "Idle" }

(* Requirement-R1 watchdog (Figure 9): raises errorR1_i when more than the
   claimed detection bound passes after a beat of p[i] reached p[0] while
   p[0] is still alive. *)
let monitor_automaton variant ~r1_bound i =
  let armed_initially = not (has_join variant) in
  let watch_recv =
    match variant with
    | Dynamic ->
        [
          M.edge ~src:"Watch" ~dst:"Watch" ~sync:(M.Recv (dlv1 i))
            ~guard:(eq (var (msg1 i)) (num 1))
            ~updates:[ M.Reset (mclk i) ]
            ();
          M.edge ~src:"Watch" ~dst:"Done" ~sync:(M.Recv (dlv1 i))
            ~guard:(eq (var (msg1 i)) (num 0))
            ();
        ]
    | Binary | Revised | Two_phase | Static | Expanding ->
        [
          M.edge ~src:"Watch" ~dst:"Watch" ~sync:(M.Recv (dlv1 i))
            ~updates:[ M.Reset (mclk i) ]
            ();
        ]
  in
  let arm_edges =
    if armed_initially then []
    else
      match variant with
      | Dynamic ->
          [
            M.edge ~src:"Idle" ~dst:"Watch" ~sync:(M.Recv (dlv1 i))
              ~guard:(eq (var (msg1 i)) (num 1))
              ~updates:[ M.Reset (mclk i) ]
              ();
          ]
      | Binary | Revised | Two_phase | Static | Expanding ->
          [
            M.edge ~src:"Idle" ~dst:"Watch" ~sync:(M.Recv (dlv1 i))
              ~updates:[ M.Reset (mclk i) ]
              ();
          ]
  in
  let locations =
    (if armed_initially then [] else [ M.loc "Idle" ])
    @ [ M.loc "Watch"; M.loc "Error" ]
    @ (if variant = Dynamic then [ M.loc "Done" ] else [])
  in
  let edges =
    arm_edges @ watch_recv
    @ [
        M.edge ~src:"Watch" ~dst:"Error"
          ~guard:
            (band
               (ge (clk (mclk i)) (num (r1_bound + 1)))
               (eq (var "active0") (num 1)))
          ~act:(error_act i) ();
      ]
  in
  {
    M.auto_name = monitor_name i;
    locations;
    edges;
    init_loc = (if armed_initially then "Watch" else "Idle");
  }

let r1_bound variant ~fixed (p : Params.t) =
  if not fixed then 2 * p.Params.tmax
  else
    match variant with
    | Two_phase -> (2 * p.Params.tmax) + p.Params.tmin
    | Binary | Revised | Static | Expanding | Dynamic -> Bounds.p0_detection p

let build ?(fixed = false) ?(with_r1_monitors = false) ?r1_bound:r1_override
    variant (p : Params.t) =
  let tmin = p.Params.tmin and tmax = p.Params.tmax in
  let participants = participants variant p in
  let n = List.length participants in
  let joining = has_join variant in
  let r1b =
    match r1_override with
    | Some b -> b
    | None -> r1_bound variant ~fixed p
  in
  let wfb_cap = (3 * tmax) + tmin + 2 in
  (* The paper's specification initialises rcvd to true: the first round
     behaves as if a reply had arrived.  The revised variant instead sends
     its first beat at time 0, so its first round genuinely awaits one. *)
  let rcvd_init = if variant = Revised then 0 else 1 in
  let vars =
    [
      M.scalar "t" tmax;
      M.scalar "active0" 1;
      M.scalar "lost" 0;
      M.scalar "p0busy" 0;
    ]
    @ List.concat_map
        (fun i ->
          [
            M.scalar (active i) 1;
            M.scalar (rcvd i) rcvd_init;
            M.scalar (tm i) tmax;
            M.scalar (spent i) 0;
            M.scalar (pbusy i) 0;
            M.scalar (in0 i) 0;
            M.scalar (in1 i) 0;
          ]
          @ (if joining then [ M.scalar (jnd i) 0; M.scalar (jmode i) 0 ] else [])
          @
          if variant = Dynamic then
            [
              M.scalar (gone i) 0;
              M.scalar (msg1 i) 1; M.scalar (out1 i) 1;
            ]
          else [])
        participants
  in
  let clocks =
    [ { M.clock_name = "w0"; cap = tmax + 1 } ]
    @ List.concat_map
        (fun i ->
          [
            { M.clock_name = wfb i; cap = wfb_cap };
            { M.clock_name = d0 i; cap = tmin + 1 };
            { M.clock_name = d1 i; cap = (if joining then tmax else tmin) + 1 };
          ]
          @ (if joining then [ { M.clock_name = wtj i; cap = tmin + 1 } ]
             else [])
          @
          if with_r1_monitors then
            [ { M.clock_name = mclk i; cap = r1b + 2 } ]
          else [])
        participants
  in
  let chans =
    M.chan ~broadcast:true "snd0"
    :: List.concat_map
         (fun i ->
           [
             M.chan (snd1 i);
             M.chan ~broadcast:true (dlv0 i);
             M.chan ~broadcast:true (dlv1 i);
           ])
         participants
  in
  let automata =
    [ p0_automaton variant ~fixed p n ]
    @ List.map (fun i -> pi_automaton variant ~fixed p i) participants
    @ List.map (fun i -> ch0_automaton variant p i) participants
    @ List.map (fun i -> ch1_automaton variant p i) participants
    @
    if with_r1_monitors then
      List.map
        (fun i -> monitor_automaton variant ~r1_bound:r1b i)
        participants
    else []
  in
  { M.vars; clocks; chans; automata }
