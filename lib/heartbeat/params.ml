type t = { tmin : int; tmax : int; n : int }

let make ?(n = 1) ~tmin ~tmax () =
  if tmin <= 0 then invalid_arg "Heartbeat.Params: tmin must be positive";
  if tmax < tmin then invalid_arg "Heartbeat.Params: tmax must be >= tmin";
  if n < 1 then invalid_arg "Heartbeat.Params: n must be >= 1";
  { tmin; tmax; n }

let usual p = p.tmax > 2 * p.tmin
let p1_timeout p = (3 * p.tmax) - p.tmin

let pp ppf p =
  Format.fprintf ppf "tmin=%d tmax=%d n=%d" p.tmin p.tmax p.n

let table_datasets = [ (1, 10); (4, 10); (5, 10); (9, 10); (10, 10) ]
