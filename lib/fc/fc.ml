(* The Fontana-Cleaveland benchmark workload: five classic timed
   verification benchmarks, each exercising a dense-time feature the
   discrete engine cannot express (strict guards, urgent locations,
   broadcast synchronisation), rebuilt inside the zone fragment. *)

module M = Ta.Model
module E = Ta.Expr
module S = Ta.Semantics

type spec = {
  fc_name : string;
  model : M.t;
  forbid : (string * string) list list;
  safe : bool;
}

let clk name cap = { M.clock_name = name; cap }

(* --- Fischer's protocol --------------------------------------------- *)

(* The textbook timing argument: a process may enter the critical
   section only after waiting *strictly* longer than any competitor
   could take to publish its claim.  The strict [x > k] is load-bearing:
   weaken it to [x >= k] and two processes can race through the
   boundary instant (the [fischer-broken] entry below).  The delay
   constant is [k = 2]. *)
let fischer_with ~strict ~n =
  let k = 2 in
  let proc pid =
    let x = Printf.sprintf "x%d" pid in
    let cs_guard =
      let age = if strict then E.(clk x > i k) else E.(clk x >= i k) in
      E.(age && v "id" = i pid)
    in
    {
      M.auto_name = Printf.sprintf "P%d" pid;
      locations =
        [
          M.loc "Idle";
          M.loc ~invariant:E.(clk x <= i k) "Try";
          M.loc "Wait";
          M.loc "CS";
        ];
      edges =
        [
          M.edge ~src:"Idle" ~dst:"Try"
            ~guard:E.(v "id" = i 0)
            ~updates:[ M.Reset x ] ~act:"try" ();
          M.edge ~src:"Try" ~dst:"Wait"
            ~guard:E.(clk x <= i k)
            ~updates:[ M.Assign (M.Scalar "id", E.i pid); M.Reset x ]
            ~act:"claim" ();
          M.edge ~src:"Wait" ~dst:"CS" ~guard:cs_guard ~act:"enter" ();
          M.edge ~src:"Wait" ~dst:"Idle"
            ~guard:E.(v "id" = i 0)
            ~act:"retry" ();
          M.edge ~src:"CS" ~dst:"Idle"
            ~updates:[ M.Assign (M.Scalar "id", E.i 0) ]
            ~act:"leave" ();
        ];
      init_loc = "Idle";
    }
  in
  {
    M.vars = [ M.scalar "id" 0 ];
    clocks = List.init n (fun i -> clk (Printf.sprintf "x%d" (i + 1)) (k + 2));
    chans = [];
    automata = List.init n (fun i -> proc (i + 1));
  }

let fischer ?(n = 2) () = fischer_with ~strict:true ~n

let mutex_pairs n =
  let cs = List.init n (fun i -> Printf.sprintf "P%d" (i + 1)) in
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a < b then Some [ (a, "CS"); (b, "CS") ] else None) cs)
    cs

let fischer_spec ?(n = 2) () =
  {
    fc_name = "fischer";
    model = fischer ~n ();
    forbid = mutex_pairs n;
    safe = true;
  }

let fischer_broken_spec =
  {
    fc_name = "fischer-broken";
    model = fischer_with ~strict:false ~n:2;
    forbid = mutex_pairs 2;
    safe = false;
  }

(* --- CSMA/CD -------------------------------------------------------- *)

(* Two stations on a shared bus; propagation delay sigma = 1, frame
   time lambda = 3.  A station beginning within sigma of another causes
   a collision, which the bus broadcasts ([cd]) to knock both back to
   retry.  The safety property is the bus's [Error] location: a frame
   completing within the propagation window ([end] with [y < 1]) is
   impossible because lambda > sigma. *)
let csma_model =
  let station i =
    let x = Printf.sprintf "x%d" i in
    {
      M.auto_name = Printf.sprintf "S%d" i;
      locations =
        [
          M.loc "Wait";
          M.loc ~invariant:E.(clk x <= i 3) "Transmit";
          M.loc "Retry";
        ];
      edges =
        [
          M.edge ~src:"Wait" ~dst:"Transmit" ~sync:(M.Send "begin")
            ~updates:[ M.Reset x ] ~act:"start" ();
          M.edge ~src:"Transmit" ~dst:"Wait"
            ~guard:E.(clk x >= i 3)
            ~sync:(M.Send "end") ~act:"finish" ();
          M.edge ~src:"Transmit" ~dst:"Retry" ~sync:(M.Recv "cd")
            ~updates:[ M.Reset x ] ~act:"backoff" ();
          M.edge ~src:"Wait" ~dst:"Wait" ~sync:(M.Recv "cd") ~act:"heard" ();
          M.edge ~src:"Retry" ~dst:"Transmit"
            ~guard:E.(clk x >= i 1)
            ~sync:(M.Send "begin") ~updates:[ M.Reset x ] ~act:"restart" ();
        ];
      init_loc = "Wait";
    }
  in
  let bus =
    {
      M.auto_name = "Bus";
      locations =
        [
          M.loc "Idle";
          M.loc "Active";
          M.loc ~invariant:E.(clk "y" < i 1) "Collision";
          M.loc "Error";
        ];
      edges =
        [
          M.edge ~src:"Idle" ~dst:"Active" ~sync:(M.Recv "begin")
            ~updates:[ M.Reset "y" ] ~act:"carrier" ();
          M.edge ~src:"Active" ~dst:"Idle"
            ~guard:E.(clk "y" >= i 1)
            ~sync:(M.Recv "end") ~act:"clear" ();
          M.edge ~src:"Active" ~dst:"Error"
            ~guard:E.(clk "y" < i 1)
            ~sync:(M.Recv "end") ~act:"impossible" ();
          M.edge ~src:"Active" ~dst:"Collision"
            ~guard:E.(clk "y" < i 1)
            ~sync:(M.Recv "begin") ~updates:[ M.Reset "y" ] ~act:"clash" ();
          M.edge ~src:"Collision" ~dst:"Idle"
            ~guard:E.(clk "y" < i 1)
            ~sync:(M.Send "cd") ~act:"jam" ();
        ];
      init_loc = "Idle";
    }
  in
  {
    M.vars = [];
    clocks = [ clk "x1" 5; clk "x2" 5; clk "y" 5 ];
    chans = [ M.chan "begin"; M.chan "end"; M.chan ~broadcast:true "cd" ];
    automata = [ station 1; station 2; bus ];
  }

let csma_spec =
  { fc_name = "csma"; model = csma_model; forbid = [ [ ("Bus", "Error") ] ]; safe = true }

(* --- FDDI token ring ------------------------------------------------ *)

(* Two stations passing a token; each holds it for synchronous traffic
   between 2 (strict) and 4 time units.  Single-token integrity: the
   stations are never both in [Sync]. *)
let fddi_model =
  let station i ~tin ~tout ~init =
    let x = Printf.sprintf "x%d" i in
    {
      M.auto_name = Printf.sprintf "S%d" i;
      locations = [ M.loc "Idle"; M.loc ~invariant:E.(clk x <= i 4) "Sync" ];
      edges =
        [
          M.edge ~src:"Idle" ~dst:"Sync" ~sync:(M.Recv tin)
            ~updates:[ M.Reset x ] ~act:"take" ();
          M.edge ~src:"Sync" ~dst:"Idle"
            ~guard:E.(clk x > i 2)
            ~sync:(M.Send tout) ~act:"pass" ();
        ];
      init_loc = init;
    }
  in
  {
    M.vars = [];
    clocks = [ clk "x1" 6; clk "x2" 6 ];
    chans = [ M.chan "tok1"; M.chan "tok2" ];
    automata =
      [
        station 1 ~tin:"tok1" ~tout:"tok2" ~init:"Sync";
        station 2 ~tin:"tok2" ~tout:"tok1" ~init:"Idle";
      ];
  }

let fddi_spec =
  {
    fc_name = "fddi";
    model = fddi_model;
    forbid = [ [ ("S1", "Sync"); ("S2", "Sync") ] ];
    safe = true;
  }

(* --- generalized railroad crossing ---------------------------------- *)

(* Two trains, a gate, and a counting controller.  A train reaches the
   crossing strictly more than 2 time units after announcing itself;
   the controller commands the gate down within 1, and the gate
   completes within 1 more — so the gate is always [Down] before any
   train is [In].  The controller's decision locations are urgent:
   command latency is queueing, never idling. *)
let grc_model =
  let train i =
    let x = Printf.sprintf "x%d" i in
    {
      M.auto_name = Printf.sprintf "Train%d" i;
      locations =
        [
          M.loc "Far";
          M.loc ~invariant:E.(clk x <= i 5) "Near";
          M.loc ~invariant:E.(clk x <= i 5) "In";
        ];
      edges =
        [
          M.edge ~src:"Far" ~dst:"Near" ~sync:(M.Send "approach")
            ~updates:[ M.Reset x ] ~act:"approach" ();
          M.edge ~src:"Near" ~dst:"In"
            ~guard:E.(clk x > i 2)
            ~act:"enter" ();
          M.edge ~src:"In" ~dst:"Far"
            ~guard:E.(clk x >= i 3)
            ~sync:(M.Send "exit") ~act:"exit" ();
        ];
      init_loc = "Far";
    }
  in
  let gate =
    {
      M.auto_name = "Gate";
      locations =
        [
          M.loc "Up";
          M.loc ~invariant:E.(clk "y" <= i 1) "Lowering";
          M.loc "Down";
          M.loc ~invariant:E.(clk "y" <= i 2) "Raising";
        ];
      edges =
        [
          M.edge ~src:"Up" ~dst:"Lowering" ~sync:(M.Recv "lower")
            ~updates:[ M.Reset "y" ] ~act:"lowering" ();
          M.edge ~src:"Lowering" ~dst:"Down" ~act:"down" ();
          M.edge ~src:"Down" ~dst:"Raising" ~sync:(M.Recv "raise")
            ~updates:[ M.Reset "y" ] ~act:"raising" ();
          M.edge ~src:"Raising" ~dst:"Up"
            ~guard:E.(clk "y" >= i 1)
            ~act:"up" ();
          M.edge ~src:"Raising" ~dst:"Lowering" ~sync:(M.Recv "lower")
            ~updates:[ M.Reset "y" ] ~act:"relower" ();
          M.edge ~src:"Lowering" ~dst:"Raising" ~sync:(M.Recv "raise")
            ~updates:[ M.Reset "y" ] ~act:"reraise" ();
        ];
      init_loc = "Up";
    }
  in
  let controller =
    {
      M.auto_name = "Ctl";
      locations =
        [
          M.loc "C0";
          M.loc ~kind:M.Urgent "CLower";
          M.loc "CDown";
          M.loc ~kind:M.Urgent "CCheck";
        ];
      edges =
        [
          M.edge ~src:"C0" ~dst:"CLower" ~sync:(M.Recv "approach")
            ~updates:[ M.Assign (M.Scalar "cnt", E.(v "cnt" + i 1)) ]
            ~act:"count" ();
          M.edge ~src:"CLower" ~dst:"CDown" ~sync:(M.Send "lower")
            ~act:"lower" ();
          M.edge ~src:"CDown" ~dst:"CDown" ~sync:(M.Recv "approach")
            ~updates:[ M.Assign (M.Scalar "cnt", E.(v "cnt" + i 1)) ]
            ~act:"count" ();
          M.edge ~src:"CDown" ~dst:"CCheck" ~sync:(M.Recv "exit")
            ~updates:[ M.Assign (M.Scalar "cnt", E.(v "cnt" - i 1)) ]
            ~act:"uncount" ();
          M.edge ~src:"CCheck" ~dst:"C0"
            ~guard:E.(v "cnt" = i 0)
            ~sync:(M.Send "raise") ~act:"raise" ();
          M.edge ~src:"CCheck" ~dst:"CDown"
            ~guard:E.(v "cnt" > i 0)
            ~act:"stay" ();
        ];
      init_loc = "C0";
    }
  in
  {
    M.vars = [ M.scalar "cnt" 0 ];
    clocks = [ clk "x1" 7; clk "x2" 7; clk "y" 7 ];
    chans = [ M.chan "approach"; M.chan "exit"; M.chan "lower"; M.chan "raise" ];
    automata = [ train 1; train 2; gate; controller ];
  }

let grc_spec =
  {
    fc_name = "grc";
    model = grc_model;
    forbid =
      List.concat_map
        (fun t ->
          [
            [ (t, "In"); ("Gate", "Up") ];
            [ (t, "In"); ("Gate", "Lowering") ];
            [ (t, "In"); ("Gate", "Raising") ];
          ])
        [ "Train1"; "Train2" ];
    safe = true;
  }

(* --- leader election ------------------------------------------------ *)

(* Timeout-based election: the candidate with the shortest timeout
   claims leadership over a broadcast channel; everyone still waiting
   follows.  Uniqueness rests on the invariant forcing the fast
   candidate to claim before the slow one's timeout can fire. *)
let leader_model =
  let cand i ~timeout =
    let x = Printf.sprintf "x%d" i in
    {
      M.auto_name = Printf.sprintf "C%d" i;
      locations =
        [
          M.loc ~invariant:E.(clk x <= i timeout) "Start";
          M.loc "Leader";
          M.loc "Follower";
        ];
      edges =
        [
          M.edge ~src:"Start" ~dst:"Leader"
            ~guard:E.(clk x >= i timeout)
            ~sync:(M.Send "claim") ~act:"claim" ();
          M.edge ~src:"Start" ~dst:"Follower" ~sync:(M.Recv "claim")
            ~act:"follow" ();
        ];
      init_loc = "Start";
    }
  in
  {
    M.vars = [];
    clocks = [ clk "x1" 5; clk "x2" 5 ];
    chans = [ M.chan ~broadcast:true "claim" ];
    automata = [ cand 1 ~timeout:1; cand 2 ~timeout:3 ];
  }

let leader_spec =
  {
    fc_name = "leader";
    model = leader_model;
    forbid = [ [ ("C1", "Leader"); ("C2", "Leader") ] ];
    safe = true;
  }

(* --- registry ------------------------------------------------------- *)

let all =
  [
    fischer_spec ();
    fischer_broken_spec;
    csma_spec;
    fddi_spec;
    grc_spec;
    leader_spec;
  ]

let find name = List.find_opt (fun s -> s.fc_name = name) all

let bad_predicate spec t =
  let conj pairs =
    let tests =
      List.map (fun (a, l) -> S.loc_is t ~auto:a ~loc:l) pairs
    in
    fun c -> List.for_all (fun f -> f c) tests
  in
  let disj = List.map conj spec.forbid in
  fun c -> List.exists (fun f -> f c) disj
