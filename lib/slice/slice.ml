(* Namespaced entry point for the (unwrapped) slice library.

   [Slice.Ta] slices timed-automata networks against a property seed
   (cone-of-influence, dead-write elimination, constant folding,
   Daws-Yovine clock activity).  The slice is an exact label-preserving
   projection, so counterexamples found in a sliced system replay in
   the full one by guided replay of their label trace — [replay] below
   is the certificate check. *)

module Ta = Slice_ta

(* [replay sys trace] — does the label trace embed in [sys] from its
   initial state?  Because slicing preserves label traces exactly, a
   sliced counterexample must replay in the full system; this is the
   run-time validation of the slicing certificate. *)
let replay (type s l) (sys : (s, l) Mc.System.t) (trace : l list) : bool =
  let module S = (val sys) in
  let rec go s = function
    | [] -> true
    | l :: rest ->
        List.exists (fun (l', s') -> l' = l && go s' rest) (S.successors s)
  in
  go S.initial trace
