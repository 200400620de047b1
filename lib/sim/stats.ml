type t = { mutable n : int; mutable mean : float; mutable max_v : float }

let create () = { n = 0; mean = 0.0; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean
let max_value t = t.max_v
