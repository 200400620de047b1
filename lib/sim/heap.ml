type 'a t = Empty | Node of float * 'a * 'a t list

let empty = Empty

let merge a b =
  match (a, b) with
  | Empty, h | h, Empty -> h
  | Node (ka, va, ca), Node (kb, vb, cb) ->
      if ka <= kb then Node (ka, va, b :: ca) else Node (kb, vb, a :: cb)

let insert k v h = merge (Node (k, v, [])) h

(* Two-pass pairing merge of the children list. *)
let rec merge_pairs = function
  | [] -> Empty
  | [ h ] -> h
  | a :: b :: rest -> merge (merge a b) (merge_pairs rest)

let pop = function
  | Empty -> None
  | Node (k, v, children) -> Some ((k, v), merge_pairs children)
