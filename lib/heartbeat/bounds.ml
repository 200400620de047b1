let p0_detection (p : Params.t) =
  if 2 * p.Params.tmin <= p.Params.tmax then (3 * p.Params.tmax) - p.Params.tmin
  else 2 * p.Params.tmax

let halving_schedule (p : Params.t) =
  let rec go t acc =
    if t < p.Params.tmin then List.rev acc else go (t / 2) (t :: acc)
  in
  go p.Params.tmax []

(* Worst case of the halving schedule: p[1]'s last reply arrives at p[0]
   just after a round of length tmax has started.  That round completes
   (tmax), the reply causes one more full round (tmax), and then the
   waiting time halves every round until it would drop below tmin, at which
   point p[0] inactivates at the timeout. *)
let p0_detection_exhaustive (p : Params.t) =
  let halvings =
    List.filter (fun t -> t < p.Params.tmax) (halving_schedule p)
  in
  (2 * p.Params.tmax) + List.fold_left ( + ) 0 halvings

let pi_waiting (p : Params.t) = 2 * p.Params.tmax

let pi_join_waiting (p : Params.t) = (2 * p.Params.tmax) + p.Params.tmin

let original_p0_claim (p : Params.t) = 2 * p.Params.tmax
