type t = int array

let width = 62

let create size =
  if size <= width then [| 0 |] else Array.make ((size + width - 1) / width) 0

let add m b =
  let w = b / width in
  m.(w) <- m.(w) lor (1 lsl (b - (w * width)))

let mem m b =
  let w = b / width in
  m.(w) land (1 lsl (b - (w * width))) <> 0

(* The word loops run from the last word down, as top-level functions:
   a local recursive function would allocate a closure per call. *)
let rec zero_from m w = w < 0 || (m.(w) = 0 && zero_from m (w - 1))
let is_empty m = zero_from m (Array.length m - 1)

let rec meets_from a b w =
  w >= 0 && (a.(w) land b.(w) <> 0 || meets_from a b (w - 1))
let meets a b = meets_from a b (Array.length a - 1)

let rec subset_from a b w =
  w < 0 || (a.(w) land lnot b.(w) = 0 && subset_from a b (w - 1))
let subset a b = subset_from a b (Array.length a - 1)

let union_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done
