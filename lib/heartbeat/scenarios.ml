type event = { time : int; action : string }

type t = {
  figure : string;
  description : string;
  variant : Ta_models.variant;
  params : Params.t;
  requirement : Requirements.requirement;
  events : event list;
}

let timeline labels =
  let time = ref 0 in
  List.filter_map
    (fun (l : Ta.Semantics.label) ->
      match l with
      | Ta.Semantics.Delay ->
          incr time;
          None
      | Ta.Semantics.Act name -> Some { time = !time; action = name })
    labels

let make ~figure ~description ~variant ~tmin ~tmax requirement =
  let params = Params.make ~tmin ~tmax () in
  let outcome = Verify.check_discrete ~fixed:false variant params requirement in
  match outcome.Verify.counterexample with
  | None ->
      Format.kasprintf failwith
        "Scenarios.%s: expected a counterexample for %s at (%d,%d)" figure
        (Requirements.name requirement)
        tmin tmax
  | Some trace ->
      {
        figure;
        description;
        variant;
        params;
        requirement;
        events = timeline trace;
      }

let fig10a () =
  make ~figure:"Fig10a"
    ~description:
      "R1 violation, 2*tmin < tmax: p[1] replies then crashes; p[0]'s \
       halving keeps it alive past 2*tmax after the last received beat"
    ~variant:Ta_models.Binary ~tmin:4 ~tmax:10 Requirements.R1

let fig10b () =
  make ~figure:"Fig10b"
    ~description:
      "R1 violation, 2*tmin <= tmax: the halving schedule reaches \
       3*tmax - tmin in the worst case"
    ~variant:Ta_models.Binary ~tmin:5 ~tmax:10 Requirements.R1

let fig11 () =
  make ~figure:"Fig11"
    ~description:
      "R2 violation, tmin = tmax: the beat reaches p[1] exactly at its \
       timeout 3*tmax - tmin and the timeout is processed first"
    ~variant:Ta_models.Binary ~tmin:10 ~tmax:10 Requirements.R2

let fig12 () =
  make ~figure:"Fig12"
    ~description:
      "R3 violation, tmin = tmax: the reply reaches p[0] exactly at its \
       round boundary and the timeout is processed first"
    ~variant:Ta_models.Binary ~tmin:10 ~tmax:10 Requirements.R3

let fig13 () =
  make ~figure:"Fig13"
    ~description:
      "R2 violation for the expanding protocol, 2*tmin >= tmax: the join \
       acknowledgement arrives only after 2*tmax + tmin, past the joining \
       timeout 3*tmax - tmin"
    ~variant:Ta_models.Expanding ~tmin:5 ~tmax:10 Requirements.R2

let all () = [ fig10a (); fig10b (); fig11 (); fig12 (); fig13 () ]

let last_event s =
  match List.rev s.events with
  | [] -> invalid_arg "Scenarios.last_event: empty trace"
  | e :: _ -> e

let pp ppf s =
  Format.fprintf ppf "@[<v>%s (%s, %a, %s):@,%s@,@," s.figure
    (Ta_models.variant_name s.variant)
    Params.pp s.params
    (Requirements.name s.requirement)
    s.description;
  List.iter
    (fun e -> Format.fprintf ppf "  t=%-3d %s@," e.time e.action)
    s.events;
  Format.fprintf ppf "@]"
