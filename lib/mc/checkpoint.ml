let magic = "HBCKPT01"
let version = 2

let save ~file ~kind payload =
  let data = Marshal.to_string payload [] in
  let digest = Digest.string data in
  let tmp = file ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc version;
      output_binary_int oc (String.length kind);
      output_string oc kind;
      output_string oc digest;
      output_binary_int oc (String.length data);
      output_string oc data);
  Sys.rename tmp file

let load ~file ~kind =
  match open_in_bin file with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let m = really_input_string ic (String.length magic) in
            if m <> magic then Error "not a checkpoint file (bad magic)"
            else
              let v = input_binary_int ic in
              if v <> version then
                Error
                  (Printf.sprintf
                     "checkpoint version %d not supported (expected %d)" v
                     version)
              else
                let klen = input_binary_int ic in
                if klen < 0 || klen > 65536 then
                  Error "corrupt checkpoint (kind length)"
                else
                  let k = really_input_string ic klen in
                  if k <> kind then
                    Error
                      (Printf.sprintf
                         "checkpoint kind mismatch: file was written by %S, \
                          this run is %S"
                         k kind)
                  else
                    let digest = really_input_string ic 16 in
                    let len = input_binary_int ic in
                    if len < 0 then Error "corrupt checkpoint (payload length)"
                    else
                      let data = really_input_string ic len in
                      if Digest.string data <> digest then
                        Error "corrupt checkpoint (digest mismatch)"
                      else Ok (Marshal.from_string data 0)
          with End_of_file -> Error "truncated checkpoint"))
