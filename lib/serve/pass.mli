(** The one analysis pass behind both front doors.

    Batch [xgcc check] runs it once over a fresh snapshot; the [serve]
    daemon runs it on every re-check over the snapshot it keeps, so the
    two report identically by construction. A pass parses the {!Watch}
    snapshot (re-parsing only files whose contents changed since the
    last pass), builds the supergraph over the last pass's (so unchanged
    definitions keep their CFGs, body hashes and annotation positions;
    {!Supergraph.build}), runs the engine (over a store that keeps its
    entries, with what the last run decided, so it probes only what the
    edit can reach; {!Engine.carry}), warns about degraded roots and
    about files that changed on disk while it ran, and ranks the reports.
    A batch run is one pass with nothing carried in memory; over a disk
    store it reads the carry file the last run left beside the packs and
    writes the one it leaves ({!Engine.read_carry}). *)

type config = {
  c_files : string list;  (** analysis inputs, in batch-run order *)
  c_parse : path:string -> source:string -> (Cast.tunit, string) result;
      (** pass-1 front end (preprocessing included, {!Loader.parse}),
          fault-contained: an [Error] skips the file with a warning *)
  c_exts : Sm.t list;
  c_options : Engine.options;
  c_jobs : int;
  c_store : Summary_store.t option;  (** {!open_store} *)
  c_rank : string;  (** ["generic"] (default ranking), ["stat"], ["none"] *)
}

type t

val create : ?loader:Loader.t -> config -> t
(** Snapshot the inputs ({!Watch.create}). An unreadable input is
    recorded, not fatal: each pass skips it with a warning.

    With [loader] (the one whose {!Loader.parse} is [c_parse]) the passes
    parse through {!Loader.parse_unit}: a unit is parsed again when a
    header it included changed ({!Watch.revalidate} re-reads them), and
    with an AST cache every unit has the identity a disk store's carry
    file needs. Without it, a run over a disk store carries nothing. *)

val watch : t -> Watch.t
(** The snapshot the passes analyse: the daemon revalidates it and
    applies [didChange] overlays to it between passes. *)

type out = {
  sg : Supergraph.t;
  result : Engine.result;
  ranked : Report.t list;  (** [result]'s reports in [c_rank] order *)
  skipped_files : int;  (** unreadable or unloadable inputs *)
  skipped_defs : int;  (** unparseable definitions *)
  drifted : string list;  (** files that changed on disk during the pass *)
  stale_roots : string list;  (** the roots those files' results degrade *)
  load_s : float;  (** preprocessing and parsing *)
  graph_s : float;  (** CFGs and supergraph *)
  analysis_s : float;  (** the engine *)
  analysis_alloc : float;
      (** bytes the engine allocated on the calling domain (worker
          domains report theirs in [result]'s stats) *)
}

val run : t -> out
(** One pass. Every warning goes through {!Diag.warnf}, in this order:
    skipped files (input order), skipped definitions and duplicates
    ({!Supergraph.build}), degraded roots, then one line per drifted
    file and one per root it makes stale. *)

val open_store :
  memory:bool ->
  cache:(string * bool) option ->
  options:Engine.options ->
  string list ->
  Summary_store.t option
(** The summary store for extensions with the given defining sources.
    [cache] is the [--cache-dir] directory and whether to write entries
    back. Without one, batch runs ([memory:false]) have no store, and the
    daemon ([memory:true]) gets an in-process store that never touches
    the disk. *)
