(** Whole-file I/O for evidence files (audit logs, sealed caches,
    forensics documents).

    {!write_atomic} never leaves a reader a partial file: a process killed
    at any point leaves either the old bytes or the new ones under [path].
    It does not fsync, so it guards against a killed process, not against
    a power loss. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] as [open_in_bin] does. *)

val write_atomic : string -> string -> unit
(** [write_atomic path data] writes [data] to [path ^ ".tmp"], then
    renames it over [path] in one step. Raises [Sys_error] when the
    temporary file cannot be written or renamed; [path] is then
    unchanged. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode 0o755). An existing
    directory is left as it is. *)
