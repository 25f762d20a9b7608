(** File snapshots for the analysis daemon.

    The daemon analyses a fixed set of files. Each one is either
    {e disk-backed} (contents re-read and re-hashed before every run, so
    an on-disk edit is never silently ignored) or carries an
    {e overlay} (contents supplied by [didChange], authoritative until
    dropped — the editor-buffer model). *)

type file = {
  w_path : string;
  mutable w_src : string;  (** contents the next run will analyse *)
  mutable w_fp : Fingerprint.t;  (** fingerprint of [w_src] *)
  mutable w_overlay : bool;  (** true: [w_src] came from [didChange] *)
  mutable w_error : string option;
      (** [Some msg]: the file could not be read when the snapshot was
          taken (the [Sys_error] message), and has had no contents since *)
}

type t

val create : string list -> t
(** Read and fingerprint every file. An unreadable one is recorded in
    its [w_error], not fatal: batch [check] skips it with a warning, and
    [Server.create] refuses to start (a daemon serving a partial tree
    would lie to every request). *)

val files : t -> file list
(** In the order given to {!create} — the analysis input order, which
    fixes report order and therefore byte-identity with a batch run. *)

val find : t -> string -> file option

val set_overlay : t -> path:string -> text:string option -> (bool, string) result
(** Install ([Some text]) or drop ([None], re-reading disk) the overlay
    for [path]. [Ok changed] says whether the contents actually differ —
    the caller skips re-checking when they don't. Unknown paths and
    unreadable re-reads are [Error] (the previous snapshot stays). *)

val note_deps : t -> (string * string option) list -> unit
(** Record the files a unit was just parsed against besides its own
    (the headers the preprocessor looked for, {!Loader.unit_id}), with
    the contents it read ([None]: absent), as their snapshot. *)

val deps_hold : t -> (string * string option) list -> bool
(** Whether every such file's snapshot still has the given contents: a
    unit parsed against them need not be parsed again. A file with no
    snapshot yet is read now. *)

val revalidate : t -> string list * string list
(** Re-read and re-hash every disk-backed file, updating changed
    snapshots in place, and re-read every file {!note_deps} recorded.
    Returns [(changed, missing)] paths, [changed] including the recorded
    files whose contents changed (a unit that depends on one is parsed
    again by the next pass); missing inputs keep their last good
    snapshot so the daemon keeps serving. *)

val drifted : t -> string list
(** Disk-backed files whose on-disk contents no longer match the
    snapshot just analysed (read-only check, run {e after} an analysis
    to detect mid-run edits). A file that cannot be read counts as
    drifted, unless it could not be read at the snapshot either. *)

val stale_roots : Supergraph.t -> string list -> string list
(** Callgraph roots whose transitive closure defines a function in one
    of the given files — the results to degrade when those files changed
    mid-run instead of mixing AST generations. *)
