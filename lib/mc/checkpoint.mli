(** Versioned checkpoint files.

    A checkpoint is a small self-describing container around a
    [Marshal] payload:

    {v magic "HBCKPT01" | version | kind | MD5(payload) | payload v}

    The [kind] string encodes everything that must match for a resume
    to be meaningful — tool, subcommand, model identity, exploration
    parameters — so resuming with different flags is rejected with a
    clear error instead of a segfault inside [Marshal.from_string].
    The digest catches truncated or corrupted files.  Writes go
    through a temp file and [Sys.rename] so a signal arriving
    mid-checkpoint never destroys the previous good one. *)

val version : int
(** The container format version.  It is bumped whenever a payload type
    changes shape, so files written by an older build are rejected
    instead of unmarshalled into the wrong layout: 2 when process-algebra
    states gained a configuration key per component, 3 when an
    {!Explore.cursor} lost its depth stamps and named its frontier by
    its first id, 4 since it carries its transitions as compressed rows
    (and the frontier starts after the last row). *)

val save : file:string -> kind:string -> 'a -> unit
(** Atomically (re)write [file].  Raises [Sys_error] on IO failure. *)

val load : file:string -> kind:string -> ('a, string) result
(** Validate magic, version, kind and digest, then unmarshal.  The
    caller must ask for the same ['a] it saved — the [kind] string is
    the guard for that. *)
