type t =
  | Bernoulli of float
  | Gilbert of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
    }

let bernoulli p = Bernoulli p

let gilbert ~p_gb ~p_bg () =
  Gilbert { p_gb; p_bg; loss_good = 0.0; loss_bad = 1.0 }

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Sim.Loss: %s outside [0,1]" name)

let validate = function
  | Bernoulli p -> check_prob "loss" p
  | Gilbert { p_gb; p_bg; loss_good; loss_bad } ->
      check_prob "p_gb" p_gb;
      check_prob "p_bg" p_bg;
      check_prob "loss_good" loss_good;
      check_prob "loss_bad" loss_bad

let expected_loss = function
  | Bernoulli p -> p
  | Gilbert { p_gb; p_bg; loss_good; loss_bad } ->
      (* stationary distribution of the two-state chain *)
      if p_gb = 0.0 && p_bg = 0.0 then loss_good
      else
        let pi_bad = p_gb /. (p_gb +. p_bg) in
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)

type state = { mutable bad : bool }

let start (_ : t) = { bad = false }

let drops model state rng =
  match model with
  | Bernoulli p -> Rng.bool rng p
  | Gilbert { p_gb; p_bg; loss_good; loss_bad } ->
      (* transition first, then draw the loss from the new state *)
      if state.bad then begin
        if Rng.bool rng p_bg then state.bad <- false
      end
      else if Rng.bool rng p_gb then state.bad <- true;
      Rng.bool rng (if state.bad then loss_bad else loss_good)
