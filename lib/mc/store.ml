(* State-storage modes for the exploration engines.  See store.mli for
   the contract; the concurrency story is the same lock-striping used by
   the explorer table: a state is owned by exactly one stripe (selected
   from its key hash, or from its fingerprint in the compressed modes so
   that colliding states are serialised through the same lock), and all
   per-state mutation happens under that stripe's mutex.  The
   provisional-id counter is a plain [Atomic.t] fetched while holding
   the stripe lock, which makes ids dense and insertion atomic.

   The representation is additionally *mutable*: when a memory budget
   trips, [degrade] swaps the whole table one rung down the compression
   ladder (Exact -> Hash_compaction -> Bitstate) while holding every
   stripe lock.  Readers therefore re-check the representation after
   acquiring their stripe lock and retry against the new one if a swap
   raced them. *)

type mode =
  | Exact
  | Hash_compaction of { bits : int }
  | Bitstate of { log2_bits : int; hashes : int }

let exact = Exact
let hash_compaction = Hash_compaction { bits = 62 }
let bitstate = Bitstate { log2_bits = 25; hashes = 3 }

let clamp lo hi v = max lo (min hi v)

let mode_name = function
  | Exact -> "exact"
  | Hash_compaction _ -> "hashcompact"
  | Bitstate _ -> "bitstate"

let of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "exact" ] -> Ok Exact
  | [ "hashcompact" ] -> Ok hash_compaction
  | [ "hashcompact"; b ] -> (
      match int_of_string_opt b with
      | Some b when b >= 1 -> Ok (Hash_compaction { bits = clamp 1 62 b })
      | _ -> Error (Printf.sprintf "invalid fingerprint width %S" b))
  | [ "bitstate" ] -> Ok bitstate
  | [ "bitstate"; m ] | [ "bitstate"; m; "" ] -> (
      match int_of_string_opt m with
      | Some m when m >= 1 ->
          Ok (Bitstate { log2_bits = clamp 10 40 m; hashes = 3 })
      | _ -> Error (Printf.sprintf "invalid bitstate size %S" m))
  | [ "bitstate"; m; k ] -> (
      match (int_of_string_opt m, int_of_string_opt k) with
      | Some m, Some k when m >= 1 && k >= 1 ->
          Ok (Bitstate { log2_bits = clamp 10 40 m; hashes = clamp 1 8 k })
      | _ -> Error (Printf.sprintf "invalid bitstate spec %S" s))
  | _ ->
      Error
        (Printf.sprintf
           "unknown store %S (expected exact, hashcompact[:BITS] or \
            bitstate[:LOG2BITS[:HASHES]])"
           s)

type coverage = {
  mode : string;
  stored : int;
  bits : int;
  hash_factor : float;
  omission_prob : float;
  est_coverage : float;
  exact : bool;
}

let pp_coverage ppf c =
  if c.exact then Format.fprintf ppf "%s (no omissions possible)" c.mode
  else
    Format.fprintf ppf
      "%s: %d states in %d bits, P(omission) ~ %.2e, est. coverage %.4f"
      c.mode c.stored c.bits c.omission_prob c.est_coverage

(* 64-bit FNV-1a over the marshalled bytes, folded to OCaml's 62 usable
   positive-int bits.  Int64 arithmetic keeps the constants exact.  The
   accumulator is a local ref no closure captures, so ocamlopt keeps it
   unboxed: the only allocation is the marshalled string (a boxed Int64
   per byte would cost three words per byte hashed). *)
let fingerprint (type a) (x : a) =
  let s = Marshal.to_string x [ Marshal.No_sharing ] in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Int64.to_int !h land max_int

(* splitmix64 finaliser: derives the second bitstate probe stream from a
   fingerprint so that the k probe positions are pairwise independent in
   practice (double hashing). *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let coverage_of ~mode ~stored =
  let n = float_of_int stored in
  match mode with
  | Exact ->
      {
        mode = "exact";
        stored;
        bits = 0;
        hash_factor = 0.;
        omission_prob = 0.;
        est_coverage = 1.;
        exact = true;
      }
  | Hash_compaction { bits } ->
      (* Birthday bound: expected fingerprint collisions among n states
         drawn into 2^bits slots is ~ n(n-1)/2^(bits+1); each collision
         omits (at least) the colliding state.  P(>=1 omission) is the
         Poisson complement of zero collisions. *)
      let expected_collisions =
        n *. (n -. 1.) /. Float.of_int 2 ** float_of_int (bits + 1)
      in
      let omission_prob = 1. -. exp (-.expected_collisions) in
      let est_coverage =
        if stored = 0 then 1.
        else max 0. (1. -. (expected_collisions /. n))
      in
      {
        mode = "hashcompact";
        stored;
        bits;
        hash_factor = 0.;
        omission_prob;
        est_coverage;
        exact = false;
      }
  | Bitstate { log2_bits; hashes } ->
      (* SPIN-style estimate: after i insertions into an m-bit array
         with k probes each, a fresh state is a false positive with
         probability p(i) = (1 - e^(-ki/m))^k.  The expected number of
         omitted states is the sum of p(i) over the insertion sequence;
         the reported omission_prob is the final-fill rate p(n). *)
      let m = Float.of_int 2 ** float_of_int log2_bits in
      let k = float_of_int hashes in
      let p i = (1. -. exp (-.(k *. i /. m))) ** k in
      let expected_omitted = ref 0. in
      for i = 1 to stored do
        expected_omitted := !expected_omitted +. p (float_of_int i)
      done;
      {
        mode = "bitstate";
        stored;
        bits = 1 lsl log2_bits;
        hash_factor = (if stored = 0 then infinity else m /. n);
        omission_prob = p n;
        est_coverage =
          (if stored = 0 then 1. else n /. (n +. !expected_omitted));
        exact = false;
      }

let round_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r lsl 1
  done;
  !r

module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) =
struct
  module T = Hashtbl.Make (struct
    type t = K.t

    let equal = K.equal
    let hash = K.hash
  end)

  type entry = { pid : int; mutable depth : int }

  type repr =
    | Rexact of entry T.t array
    | Rfp of { bits : int; shards : (int, entry) Hashtbl.t array }
    | Rbit of { log2_bits : int; hashes : int; words : int Atomic.t array }

  type t = {
    mutable mode : mode;
    mutable repr : repr; (* swapped under ALL stripe locks by [degrade] *)
    locks : Mutex.t array;
    mask : int;
    next : int Atomic.t;
    filled : int array; (* insertions per stripe, under the stripe lock *)
    fp : K.t -> int;
  }

  type intern_result = Fresh of int | Known of int | Relaxed of int * int

  let create ?(expected = 1024) ?(fingerprint = fingerprint) ~shards mode =
    let nshards = round_pow2 (max 1 shards) in
    let per_shard = max 64 (expected / nshards) in
    let repr =
      match mode with
      | Exact -> Rexact (Array.init nshards (fun _ -> T.create per_shard))
      | Hash_compaction { bits } ->
          Rfp
            {
              bits = clamp 1 62 bits;
              shards = Array.init nshards (fun _ -> Hashtbl.create per_shard);
            }
      | Bitstate { log2_bits; hashes } ->
          let log2_bits = clamp 10 40 log2_bits in
          let nwords = ((1 lsl log2_bits) + 62) / 63 in
          Rbit
            {
              log2_bits;
              hashes = clamp 1 8 hashes;
              words = Array.init nwords (fun _ -> Atomic.make 0);
            }
    in
    {
      mode;
      repr;
      locks = Array.init nshards (fun _ -> Mutex.create ());
      mask = nshards - 1;
      next = Atomic.make 0;
      filled = Array.make nshards 0;
      fp = fingerprint;
    }

  let total t = Atomic.get t.next
  let current_mode t = t.mode
  let tracks_pids t = match t.repr with Rbit _ -> false | _ -> true
  let occupancy t = Array.copy t.filled
  let coverage t = coverage_of ~mode:t.mode ~stored:(Atomic.get t.next)

  let fresh_id t shard =
    t.filled.(shard) <- t.filled.(shard) + 1;
    Atomic.fetch_and_add t.next 1

  (* Run [f] under the stripe lock — via [Fun.protect], so a raising
     user [hash]/[equal] can never leave the mutex held — but only if
     the representation was not swapped by [degrade] between computing
     the shard and acquiring the lock.  [None] means "stale repr, pick
     the shard again". *)
  let with_stripe t shard repr f =
    let lock = t.locks.(shard) in
    Mutex.lock lock;
    if t.repr != repr then (
      Mutex.unlock lock;
      None)
    else Some (Fun.protect ~finally:(fun () -> Mutex.unlock lock) f)

  (* Exact and fingerprint shards share the same intern shape: find the
     entry (already under the stripe lock), insert with a fresh dense id
     when absent, relax the depth stamp when the new path is shorter. *)
  let intern_slot find add t shard ~depth =
    match find () with
    | Some e ->
        if depth < e.depth then (
          let old = e.depth in
          e.depth <- depth;
          Relaxed (e.pid, old))
        else Known e.pid
    | None ->
        let pid = fresh_id t shard in
        add { pid; depth };
        Fresh pid

  (* k probe positions in the bit array via double hashing over the
     64-bit fingerprint.  Returns true iff the bit was already set. *)
  let bit_test_set words pos =
    let w = pos / 63 and b = pos mod 63 in
    let bit = 1 lsl b in
    let rec go () =
      let cur = Atomic.get words.(w) in
      if cur land bit <> 0 then true
      else if Atomic.compare_and_set words.(w) cur (cur lor bit) then false
      else go ()
    in
    go ()

  let bit_intern t ~log2_bits ~hashes ~words f shard =
    let m1 = (1 lsl log2_bits) - 1 in
    let h1 = f land m1 in
    let h2 = (Int64.to_int (mix64 (Int64.of_int f)) land m1) lor 1 in
    let seen = ref true in
    let pos = ref h1 in
    for _ = 1 to hashes do
      if not (bit_test_set words !pos) then seen := false;
      pos := (!pos + h2) land m1
    done;
    if !seen then Known (-1) else Fresh (fresh_id t shard)

  let rec intern t s ~depth =
    let repr = t.repr in
    let res =
      match repr with
      | Rexact shards ->
          let shard = K.hash s land max_int land t.mask in
          let tbl = shards.(shard) in
          with_stripe t shard repr (fun () ->
              intern_slot
                (fun () -> T.find_opt tbl s)
                (fun e -> T.add tbl s e)
                t shard ~depth)
      | Rfp { bits; shards } ->
          (* [(1 lsl 62) - 1 = max_int] on 64-bit OCaml, so the
             full-width default masks to all usable bits *)
          let f = t.fp s land ((1 lsl bits) - 1) in
          (* shard by fingerprint so equal fingerprints serialise through
             the same stripe and are deterministically conflated *)
          let shard = f land t.mask in
          let tbl = shards.(shard) in
          with_stripe t shard repr (fun () ->
              intern_slot
                (fun () -> Hashtbl.find_opt tbl f)
                (fun e -> Hashtbl.add tbl f e)
                t shard ~depth)
      | Rbit { log2_bits; hashes; words } ->
          let f = t.fp s in
          let shard = f land t.mask in
          with_stripe t shard repr (fun () ->
              bit_intern t ~log2_bits ~hashes ~words f shard)
    in
    match res with None -> intern t s ~depth | Some r -> r

  let rec find_pid t s =
    let repr = t.repr in
    let res =
      match repr with
      | Rexact shards ->
          let shard = K.hash s land max_int land t.mask in
          with_stripe t shard repr (fun () ->
              match T.find_opt shards.(shard) s with
              | Some e -> e.pid
              | None -> -1)
      | Rfp { bits; shards } ->
          let f = t.fp s land ((1 lsl bits) - 1) in
          let shard = f land t.mask in
          with_stripe t shard repr (fun () ->
              match Hashtbl.find_opt shards.(shard) f with
              | Some e -> e.pid
              | None -> -1)
      | Rbit _ -> Some (-1)
    in
    match res with None -> find_pid t s | Some r -> r

  let lock_all t = Array.iter Mutex.lock t.locks
  let unlock_all t = Array.iter Mutex.unlock t.locks

  (* One rung down the compression ladder, in place.  Holding every
     stripe lock serialises us against all in-flight interns: each is
     either already inside its stripe (we wait for it) or will notice
     the swapped representation and retry.  Provisional ids are
     preserved, so adjacency/state vectors built by the engines stay
     valid; colliding fingerprints are conflated to the smaller pid and
     depth, exactly as if the run had started in the compressed mode. *)
  let degrade t =
    lock_all t;
    Fun.protect ~finally:(fun () -> unlock_all t) @@ fun () ->
    match t.repr with
    | Rexact shards ->
        let bits = 62 in
        let nsh = Array.length shards in
        let fresh = Array.init nsh (fun _ -> Hashtbl.create 1024) in
        Array.iter
          (fun tbl ->
            T.iter
              (fun key e ->
                let f = t.fp key land ((1 lsl bits) - 1) in
                let sh = f land t.mask in
                match Hashtbl.find_opt fresh.(sh) f with
                | Some e0 ->
                    Hashtbl.replace fresh.(sh) f
                      {
                        pid = min e.pid e0.pid;
                        depth = min e.depth e0.depth;
                      }
                | None ->
                    Hashtbl.add fresh.(sh) f { pid = e.pid; depth = e.depth })
              tbl)
          shards;
        Array.iteri (fun i tb -> t.filled.(i) <- Hashtbl.length tb) fresh;
        t.mode <- Hash_compaction { bits };
        t.repr <- Rfp { bits; shards = fresh };
        Some t.mode
    | Rfp { bits = _; shards } ->
        let log2_bits = 25 and hashes = 3 in
        let m1 = (1 lsl log2_bits) - 1 in
        let nwords = ((1 lsl log2_bits) + 62) / 63 in
        let words = Array.init nwords (fun _ -> Atomic.make 0) in
        Array.iter
          (fun tbl ->
            Hashtbl.iter
              (fun f _ ->
                let h2 =
                  (Int64.to_int (mix64 (Int64.of_int f)) land m1) lor 1
                in
                let pos = ref (f land m1) in
                for _ = 1 to hashes do
                  ignore (bit_test_set words !pos);
                  pos := (!pos + h2) land m1
                done)
              tbl)
          shards;
        t.mode <- Bitstate { log2_bits; hashes };
        t.repr <- Rbit { log2_bits; hashes; words };
        Some t.mode
    | Rbit _ -> None

  (* Depth stamp per provisional id, for checkpointing.  Ids conflated
     away by a fingerprint collision (or untracked by bitstate) keep the
     default stamp 0. *)
  let depths t =
    lock_all t;
    Fun.protect ~finally:(fun () -> unlock_all t) @@ fun () ->
    let a = Array.make (Atomic.get t.next) 0 in
    let put _ e =
      if e.pid >= 0 && e.pid < Array.length a then a.(e.pid) <- e.depth
    in
    (match t.repr with
    | Rexact shards -> Array.iter (T.iter put) shards
    | Rfp { shards; _ } -> Array.iter (Hashtbl.iter put) shards
    | Rbit _ -> ());
    a
end
