(* The exports that only tests reach.  A value declared by [val] in
   some lib/D/M.mli counts as called when its name occurs as a word in
   an .ml file under one of the directories given on the command line
   (lib, bin, examples, perfbench), other than lib/D/M.ml itself.  Every
   uncalled value is printed as "lib/D/M.mli: name", in file order.  A
   name that occurs anywhere counts, so the list is a lower bound.

   Usage: exports.exe DIR... (run from the directory that holds them). *)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' then []
         else if Sys.is_directory path then files_under path
         else [ path ])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_word_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
  | _ -> false

(* The maximal runs of word characters in [src]. *)
let words src =
  let set = Hashtbl.create 1024 in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if is_word_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_word_char src.[!j] do incr j done;
      Hashtbl.replace set (String.sub src !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  set

let val_decl = Str.regexp "^[ \t]*val[ \t]+\\([a-z_][A-Za-z0-9_']*\\)"

let vals mli =
  String.split_on_char '\n' (read mli)
  |> List.filter_map (fun line ->
         if Str.string_match val_decl line 0 then
           Some (Str.matched_group 1 line)
         else None)

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  let all = List.concat_map files_under dirs in
  let mls =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".ml" then Some (f, words (read f))
        else None)
      all
  in
  let mlis =
    List.filter
      (fun f ->
        Filename.check_suffix f ".mli"
        && List.length (String.split_on_char '/' f) = 3
        && String.starts_with ~prefix:"lib/" f)
      all
  in
  List.iter
    (fun mli ->
      let own = Filename.chop_suffix mli "i" in
      List.iter
        (fun name ->
          let called =
            List.exists
              (fun (f, ws) -> f <> own && Hashtbl.mem ws name)
              mls
          in
          if not called then Printf.printf "%s: %s\n" mli name)
        (vals mli))
    mlis
