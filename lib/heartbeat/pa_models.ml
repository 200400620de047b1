module T = Proc.Term
module P = Proc.Pexpr

type variant = Ta_models.variant =
  | Binary
  | Revised
  | Two_phase
  | Static
  | Expanding
  | Dynamic

let variant_name = Ta_models.variant_name
let has_join = Ta_models.has_join

(* Action names.  s_/r_ prefixes are the communication halves; the bare
   name is the synchronisation result. *)
let s_ name = "s_" ^ name
let r_ name = "r_" ^ name
let fly0 i = Printf.sprintf "fly0_%d" i
let dlv0 i = Printf.sprintf "dlv0_%d" i
let beat1 i = Printf.sprintf "beat1_%d" i
let beat1f i = Printf.sprintf "beat1f_%d" i
let fly1 i = Printf.sprintf "fly1_%d" i
let fly1f i = Printf.sprintf "fly1f_%d" i
let dlv1 i = Printf.sprintf "dlv1_%d" i
let dlv1f i = Printf.sprintf "dlv1f_%d" i
let reset1 i = Printf.sprintf "reset1_%d" i
let timeout1 i = Printf.sprintf "timeout1_%d" i
let crash1 i = Printf.sprintf "inactivate_v_p%d" i
let disarm i = Printf.sprintf "left_%d" i
let lose0 i = Printf.sprintf "lose0_%d" i
let lose1 i = Printf.sprintf "lose1_%d" i
let nv_pi i = Printf.sprintf "inactivate_nv_p%d" i
let join i = Printf.sprintf "join_%d" i
let jdlv i = Printf.sprintf "jdlv_%d" i
let jlose i = Printf.sprintf "jlose_%d" i
let beat0 i = Printf.sprintf "beat0_%d" i

let act_beat_delivered_to_p0 = dlv1
let act_join_delivered_to_p0 = jdlv
let act_leave_delivered_to_p0 = dlv1f
let act_beat_delivered_to_pi = dlv0
let act_inactivate_nv_p0 = "inactivate_nv_p0"
let act_inactivate_nv_pi = nv_pi
let act_crash_p0 = "inactivate_v_p0"
let act_crash_pi = crash1
let act_leave_pi = disarm

let act_lose variant i =
  [ lose0 i; lose1 i ] @ if has_join variant then [ jlose i ] else []

(* Term-building shorthands. *)
let tick p = T.Prefix (T.act Proc.Spec.tick_name [], p)
let emit name p = T.Prefix (T.act name [], p)
let emit1 name e p = T.Prefix (T.act name [ e ], p)
let recv name p = T.Prefix (T.act name [], p)
let rcvd i = Printf.sprintf "rcvd%d" i
let tmv i = Printf.sprintf "tm%d" i
let jnd i = Printf.sprintf "jnd%d" i
let gone i = Printf.sprintf "gone%d" i

(* ------------------------------------------------------------------ *)
(* p[0]                                                                 *)
(* ------------------------------------------------------------------ *)

let p0_def variant (p : Params.t) n =
  let tmin = p.Params.tmin and tmax = p.Params.tmax in
  let joining = has_join variant in
  let participants = List.init n (fun k -> k + 1) in
  let params =
    [ "active"; "t" ]
    @ List.concat_map
        (fun i ->
          [ rcvd i; tmv i ]
          @ (if joining then [ jnd i ] else [])
          @ if variant = Dynamic then [ gone i ] else [])
        participants
  in
  (* Recursive call with selected parameters overridden. *)
  let continue overrides =
    T.Call
      ( "P0",
        List.map
          (fun name ->
            match List.assoc_opt name overrides with
            | Some e -> e
            | None -> P.Var name)
          params )
  in
  let new_tm i =
    let joined_case =
      match variant with
      | Two_phase -> P.If (P.Var (rcvd i), P.int tmax, P.int tmin)
      | Binary | Revised | Static | Expanding | Dynamic ->
          P.If (P.Var (rcvd i), P.int tmax, P.Div (P.Var (tmv i), P.int 2))
    in
    if joining then P.If (P.Var (jnd i), joined_case, P.int tmax)
    else joined_case
  in
  let newt =
    match participants with
    | [] -> P.int tmax
    | first :: rest ->
        List.fold_left
          (fun acc i -> P.If (P.Lt (new_tm i, acc), new_tm i, acc))
          (new_tm first) rest
  in
  let proceed_guard =
    match variant with
    | Two_phase -> P.Or (P.Var (rcvd 1), P.Lt (P.int tmin, P.Var (tmv 1)))
    | Binary | Revised | Static | Expanding | Dynamic ->
        P.Le (P.int tmin, newt)
  in
  let send_and_rearm =
    let after =
      continue
        ((("t", newt) :: List.map (fun i -> (tmv i, new_tm i)) participants)
        @ List.map (fun i -> (rcvd i, P.ff)) participants)
    in
    if joining then
      (* Per-participant beats, only to the joined ones; then re-arm. *)
      let rec emit_beats = function
        | [] -> emit1 (s_ "arm") newt after
        | i :: rest ->
            T.cond (P.Var (jnd i))
              (emit (s_ (beat0 i)) (emit_beats rest))
              (emit_beats rest)
      in
      emit_beats participants
    else
      (* One broadcast beat through the Broadcaster channel. *)
      emit (s_ "beat0") (emit1 (s_ "arm") newt after)
  in
  let timeout_branch =
    T.cond proceed_guard send_and_rearm
      (emit act_inactivate_nv_p0 (continue [ ("active", P.ff) ]))
  in
  let set_if_active name value =
    (name, P.If (P.Var "active", value, P.Var name))
  in
  (* Dynamic: a participant that has left is gone for good — later beats
     and stale join requests are ignored. *)
  let set_if_live i name value =
    if variant = Dynamic then
      ( name,
        P.If
          (P.And (P.Var "active", P.Not (P.Var (gone i))), value, P.Var name)
      )
    else set_if_active name value
  in
  let receive_branches =
    List.concat_map
      (fun i ->
        match variant with
        | Expanding | Dynamic ->
            [
              (* join request received: mark joined *)
              recv (r_ (jdlv i))
                (continue
                   [ set_if_live i (jnd i) P.tt; set_if_live i (rcvd i) P.tt ]);
              (* regular (true) beat *)
              recv (r_ (dlv1 i))
                (continue
                   [ set_if_live i (jnd i) P.tt; set_if_live i (rcvd i) P.tt ]);
            ]
            @ (if variant = Dynamic then
                 [
                   (* leave (false) beat: drop from the joined set,
                      permanently *)
                   recv (r_ (dlv1f i))
                     (continue
                        [
                          set_if_active (jnd i) P.ff;
                          set_if_active (gone i) P.tt;
                        ]);
                 ]
               else [])
        | Binary | Revised | Two_phase | Static ->
            [ recv (r_ (dlv1 i)) (continue [ set_if_active (rcvd i) P.tt ]) ])
      participants
  in
  let body =
    T.choice
      ([
         tick (continue []);
         T.when_ (P.Var "active")
           (emit (s_ "crash0") (continue [ ("active", P.ff) ]));
         T.when_ (P.Var "active") (recv (r_ "timeout0") timeout_branch);
       ]
      @ receive_branches)
  in
  T.def "P0" params body

(* p[0]'s round stopwatch: armed with the waiting time at each beat; at
   the limit it refuses to tick, forcing the timeout. *)
let tick_dead_def = T.def "TickDead" [] (tick (T.call "TickDead" []))

let sw0_defs (p : Params.t) =
  let tmax = p.Params.tmax in
  [
    tick_dead_def;
    T.def "SW0Armed" [ "c"; "lim" ]
      (T.choice
         [
           recv (r_ "crash0") (T.call "TickDead" []);
           T.cond
             (P.Eq (P.Var "c", P.Var "lim"))
             (emit (s_ "timeout0") (T.call "SW0Idle" []))
             (tick
                (T.call "SW0Armed" [ P.Add (P.Var "c", P.int 1); P.Var "lim" ]));
         ]);
    T.def "SW0Idle" []
      (T.choice
         [
           tick (T.call "SW0Idle" []);
           T.Sum
             ( "x",
               1,
               tmax,
               T.Prefix
                 ( T.act (r_ "arm") [ P.Var "x" ],
                   T.call "SW0Armed" [ P.int 0; P.Var "x" ] ) );
           recv (r_ "crash0") (T.call "TickDead" []);
         ]);
  ]

(* ------------------------------------------------------------------ *)
(* participants                                                         *)
(* ------------------------------------------------------------------ *)

(* Joined participant: reply immediately to each received beat, crash at
   will, inactivate on the watchdog's timeout.  In the dynamic variant a
   reply may instead carry false, leaving the protocol and disarming the
   watchdog. *)
let p1_defs variant (p : Params.t) i =
  let limit = Params.p1_timeout p in
  let pname = Printf.sprintf "P1_%d" i in
  let swname = Printf.sprintf "SW1_%d" i in
  let reply_true k = emit (s_ (beat1 i)) (emit (s_ (reset1 i)) k) in
  let on_beat =
    let continue = T.call pname [ P.Var "active" ] in
    if variant = Dynamic then
      T.cond (P.Var "active")
        (T.choice
           [
             reply_true continue;
             emit (s_ (beat1f i)) (emit (s_ (disarm i)) (T.call pname [ P.ff ]));
           ])
        continue
    else T.cond (P.Var "active") (reply_true continue) continue
  in
  let sw_summands =
    [
      recv (r_ (reset1 i)) (T.call swname [ P.int 0 ]);
      recv (r_ (crash1 i)) (T.call "TickDead" []);
      T.cond
        (P.Eq (P.Var "c", P.int limit))
        (emit (s_ (timeout1 i)) (T.call "TickDead" []))
        (tick (T.call swname [ P.Add (P.Var "c", P.int 1) ]));
    ]
    @
    if variant = Dynamic then [ recv (r_ (disarm i)) (T.call "TickDead" []) ]
    else []
  in
  [
    T.def pname [ "active" ]
      (T.choice
         [
           tick (T.call pname [ P.Var "active" ]);
           T.when_ (P.Var "active")
             (emit (s_ (crash1 i)) (T.call pname [ P.ff ]));
           recv (r_ (dlv0 i)) on_beat;
           T.when_ (P.Var "active")
             (recv (r_ (timeout1 i)) (emit (nv_pi i) (T.call pname [ P.ff ])));
         ]);
    (* The reset summand stays enabled at the limit, so the paper's
       timeout/receive race is present in this encoding too. *)
    T.def swname [ "c" ] (T.choice sw_summands);
  ]

(* Joining phase (expanding/dynamic): send a join request immediately,
   then every tmin, until p[0]'s first beat arrives; the inactivation
   watchdog runs from start-up. *)
let joiner_defs (p : Params.t) i =
  let tmin = p.Params.tmin in
  let pname = Printf.sprintf "P1_%d" i in
  let init = Printf.sprintf "PJInit_%d" i in
  let wait = Printf.sprintf "PJWait_%d" i in
  let reply_and_join =
    (* the first beat from p[0] acknowledges the join; reply at once *)
    emit (s_ (beat1 i)) (emit (s_ (reset1 i)) (T.call pname [ P.tt ]))
  in
  [
    T.def init []
      (T.choice
         [
           emit (s_ (join i)) (T.call wait [ P.int 0 ]);
           emit (s_ (crash1 i)) (T.call pname [ P.ff ]);
         ]);
    T.def wait [ "w" ]
      (T.choice
         [
           T.cond
             (P.Eq (P.Var "w", P.int tmin))
             (emit (s_ (join i)) (T.call wait [ P.int 0 ]))
             (tick (T.call wait [ P.Add (P.Var "w", P.int 1) ]));
           recv (r_ (dlv0 i)) reply_and_join;
           emit (s_ (crash1 i)) (T.call pname [ P.ff ]);
           recv (r_ (timeout1 i)) (emit (nv_pi i) (T.call pname [ P.ff ]));
         ]);
  ]

(* ------------------------------------------------------------------ *)
(* channels                                                             *)
(* ------------------------------------------------------------------ *)

(* Forward channel.  Static/binary family: one channel that receives
   p[0]'s beat and runs the paper's Broadcaster loop.  Joining variants:
   one channel per participant (p[0] addresses the joined ones). *)
let ch0_broadcast_def n =
  let rec broadcast i =
    if i > n then T.call "Ch0" []
    else
      T.choice
        [
          emit (s_ (fly0 i)) (broadcast (i + 1));
          emit (lose0 i) (broadcast (i + 1));
        ]
  in
  T.def "Ch0" []
    (T.choice [ tick (T.call "Ch0" []); recv (r_ "beat0") (broadcast 1) ])

let ch0_single_def i =
  let name = Printf.sprintf "Ch0_%d" i in
  T.def name []
    (T.choice
       [
         tick (T.call name []);
         recv (r_ (beat0 i))
           (T.choice
              [
                emit (s_ (fly0 i)) (T.call name []);
                emit (lose0 i) (T.call name []);
              ]);
       ])

(* Reply channel: forward or lose.  Dynamic: true and false beats. *)
let ch1_def variant i =
  let name = Printf.sprintf "Ch1_%d" i in
  let true_branch =
    recv (r_ (beat1 i))
      (T.choice
         [ emit (s_ (fly1 i)) (T.call name []); emit (lose1 i) (T.call name []) ])
  in
  let branches =
    [ tick (T.call name []); true_branch ]
    @
    if variant = Dynamic then
      [
        recv (r_ (beat1f i))
          (T.choice
             [
               emit (s_ (fly1f i)) (T.call name []);
               emit (lose1 i) (T.call name []);
             ]);
      ]
    else []
  in
  T.def name [] (T.choice branches)

(* Pre-join channel (the paper's "extra channel", active before the
   process has joined): a join request may take up to tmax; a newer
   request overruns a pending one silently. *)
let join_channel_defs (p : Params.t) i =
  let tmax = p.Params.tmax in
  let idle = Printf.sprintf "JChIdle_%d" i in
  let fly = Printf.sprintf "JChFly_%d" i in
  [
    T.def idle []
      (T.choice
         [
           tick (T.call idle []);
           recv (r_ (join i))
             (T.choice
                [ T.call fly [ P.int 0 ]; emit (jlose i) (T.call idle []) ]);
         ]);
    T.def fly [ "c" ]
      (T.choice
         [
           emit (s_ (jdlv i)) (T.call idle []);
           T.when_
             (P.Lt (P.Var "c", P.int tmax))
             (tick (T.call fly [ P.Add (P.Var "c", P.int 1) ]));
           (* a superseding join request is absorbed silently *)
           recv (r_ (join i)) (T.call fly [ P.Var "c" ]);
         ]);
  ]

(* Channel stopwatch: carries in-flight beats and enforces the
   round-trip bound by refusing to tick at the deadline. *)
let swch_defs variant (p : Params.t) i =
  let tmin = p.Params.tmin in
  let idle = Printf.sprintf "SWCHIdle_%d" i in
  let f0 = Printf.sprintf "SWCHFly0_%d" i in
  let after = Printf.sprintf "SWCHAfter_%d" i in
  let f1 = Printf.sprintf "SWCHFly1_%d" i in
  let f1f = Printf.sprintf "SWCHFly1f_%d" i in
  [
    T.def idle []
      (T.choice
         ([ tick (T.call idle []); recv (r_ (fly0 i)) (T.call f0 [ P.int 0 ]) ]
         @
         (* a leave beat can also originate while no exchange is pending *)
         if variant = Dynamic then
           [ recv (r_ (fly1f i)) (T.call f1f [ P.int 0 ]) ]
         else []));
    T.def f0 [ "c" ]
      (T.choice
         [
           emit (s_ (dlv0 i)) (T.call after [ P.Var "c" ]);
           T.when_
             (P.Lt (P.Var "c", P.int tmin))
             (tick (T.call f0 [ P.Add (P.Var "c", P.int 1) ]));
         ]);
    T.def after [ "spent" ]
      (T.choice
         ([
            tick (T.call after [ P.Var "spent" ]);
            recv (r_ (fly0 i)) (T.call f0 [ P.int 0 ]);
            recv (r_ (fly1 i)) (T.call f1 [ P.Var "spent" ]);
          ]
         @
         if variant = Dynamic then
           [ recv (r_ (fly1f i)) (T.call f1f [ P.Var "spent" ]) ]
         else []));
    T.def f1 [ "c" ]
      (T.choice
         [
           emit (s_ (dlv1 i)) (T.call idle []);
           T.when_
             (P.Lt (P.Var "c", P.int tmin))
             (tick (T.call f1 [ P.Add (P.Var "c", P.int 1) ]));
         ]);
  ]
  @
  if variant = Dynamic then
    [
      T.def f1f [ "c" ]
        (T.choice
           [
             emit (s_ (dlv1f i)) (T.call idle []);
             T.when_
               (P.Lt (P.Var "c", P.int tmin))
               (tick (T.call f1f [ P.Add (P.Var "c", P.int 1) ]));
           ]);
    ]
  else []

(* The revised protocol's p[0] starts by sending its beat at time 0. *)
let p0_start_def (p : Params.t) n =
  let tmax = p.Params.tmax in
  let participants = List.init n (fun k -> k + 1) in
  let initial_args =
    [ P.tt; P.int tmax ]
    @ List.concat_map (fun _ -> [ P.ff; P.int tmax ]) participants
  in
  T.def "P0Start" []
    (emit (s_ "beat0")
       (emit1 (s_ "arm") (P.int tmax) (T.Call ("P0", initial_args))))

(* ------------------------------------------------------------------ *)
(* assembly                                                             *)
(* ------------------------------------------------------------------ *)

let build variant (p : Params.t) : Proc.Spec.t =
  let joining = has_join variant in
  let participants = Ta_models.participants variant p in
  let n = List.length participants in
  let tmax = p.Params.tmax in
  let defs =
    [ p0_def variant p n ]
    @ (if joining then List.map ch0_single_def participants
       else [ ch0_broadcast_def n ])
    @ sw0_defs p
    @ (if variant = Revised then [ p0_start_def p n ] else [])
    @ List.concat_map (fun i -> p1_defs variant p i) participants
    @ (if joining then
         List.concat_map (fun i -> joiner_defs p i) participants
         @ List.concat_map (fun i -> join_channel_defs p i) participants
       else [])
    @ List.map (fun i -> ch1_def variant i) participants
    @ List.concat_map (fun i -> swch_defs variant p i) participants
  in
  let comms =
    [
      (s_ "arm", r_ "arm", "arm");
      (s_ "timeout0", r_ "timeout0", "timeout0");
      (s_ "crash0", r_ "crash0", act_crash_p0);
    ]
    @ (if joining then
         List.map (fun i -> (s_ (beat0 i), r_ (beat0 i), beat0 i)) participants
       else [ (s_ "beat0", r_ "beat0", "beat0") ])
    @ List.concat_map
        (fun i ->
          [
            (s_ (fly0 i), r_ (fly0 i), fly0 i);
            (s_ (dlv0 i), r_ (dlv0 i), dlv0 i);
            (s_ (beat1 i), r_ (beat1 i), beat1 i);
            (s_ (fly1 i), r_ (fly1 i), fly1 i);
            (s_ (dlv1 i), r_ (dlv1 i), dlv1 i);
            (s_ (reset1 i), r_ (reset1 i), reset1 i);
            (s_ (timeout1 i), r_ (timeout1 i), timeout1 i);
            (s_ (crash1 i), r_ (crash1 i), crash1 i);
          ]
          @ (if joining then
               [
                 (s_ (join i), r_ (join i), join i);
                 (s_ (jdlv i), r_ (jdlv i), jdlv i);
               ]
             else [])
          @
          if variant = Dynamic then
            [
              (s_ (beat1f i), r_ (beat1f i), beat1f i);
              (s_ (fly1f i), r_ (fly1f i), fly1f i);
              (s_ (dlv1f i), r_ (dlv1f i), dlv1f i);
              (s_ (disarm i), r_ (disarm i), disarm i);
            ]
          else [])
        participants
  in
  let allow =
    [ "arm"; "timeout0"; act_crash_p0; act_inactivate_nv_p0 ]
    @ (if joining then List.map beat0 participants else [ "beat0" ])
    @ List.concat_map
        (fun i ->
          [
            fly0 i; dlv0 i; beat1 i; fly1 i; dlv1 i; reset1 i; timeout1 i;
            crash1 i; nv_pi i; lose0 i; lose1 i;
          ]
          @ (if joining then [ join i; jdlv i; jlose i ] else [])
          @
          if variant = Dynamic then [ beat1f i; fly1f i; dlv1f i; disarm i ]
          else [])
        participants
  in
  let rcvd_init =
    if variant = Revised then Proc.Value.Bool false else Proc.Value.Bool true
  in
  let p0_init_args =
    [ Proc.Value.Bool true; Proc.Value.Int tmax ]
    @ List.concat_map
        (fun _ ->
          [ rcvd_init; Proc.Value.Int tmax ]
          @ (if joining then [ Proc.Value.Bool false ] else [])
          @ if variant = Dynamic then [ Proc.Value.Bool false ] else [])
        participants
  in
  let init =
    (if variant = Revised then [ ("P0Start", []); ("SW0Idle", []) ]
     else
       [
         ("P0", p0_init_args);
         ("SW0Armed", [ Proc.Value.Int 0; Proc.Value.Int tmax ]);
       ])
    @ (if joining then
         List.map (fun i -> (Printf.sprintf "Ch0_%d" i, [])) participants
       else [ ("Ch0", []) ])
    @ List.concat_map
        (fun i ->
          (if joining then
             [
               (Printf.sprintf "PJInit_%d" i, []);
               (Printf.sprintf "JChIdle_%d" i, []);
             ]
           else [ (Printf.sprintf "P1_%d" i, [ Proc.Value.Bool true ]) ])
          @ [
              (Printf.sprintf "SW1_%d" i, [ Proc.Value.Int 0 ]);
              (Printf.sprintf "Ch1_%d" i, []);
              (Printf.sprintf "SWCHIdle_%d" i, []);
            ])
        participants
  in
  { Proc.Spec.defs; init; comms; allow; hide = [] }

module For_figures = struct
  let p0_def = p0_def
  let sw0_defs = sw0_defs
  let p1_defs = p1_defs Binary
  let tick_dead = [ tick_dead_def ]
end
