(** The analysis daemon behind [xgcc serve].

    A server loads the corpus once and keeps everything a batch run
    rebuilds from scratch hot in memory: pass-1 ASTs, what the
    supergraph derives from each unchanged definition (its CFG, body
    hash and annotation positions; the callgraph and the [Exprid]/[Flat]
    tables are rebuilt per re-check from the held ASTs), compiled
    dispatch, and the two-level summary store (opened with
    [memory:true], so warm probes never touch disk, and an unchanged
    entry key is compared by its inputs without a digest). Each re-check
    is the analysis pass batch [check] runs ({!Pass.run}): a one-file
    edit re-fingerprints and re-parses only that file and drives
    [Engine.run] through the early-cutoff machinery, probing only the
    functions the edit can reach ({!Engine.carry}; the [stats] reply's
    [fns_probed] and [roots_reused]). So the diagnostics
    and warnings a re-check replies with are, by construction, what a
    cold [xgcc check --format json] of the same tree prints on stdout
    and stderr; the test suite and CI assert it.

    Requests arrive as newline-delimited JSON ({!Proto}) on stdin or a
    Unix socket. Rapid successive edits coalesce: while another complete
    request line is already readable, a [didChange] only applies its
    overlay and replies [queued]; the single re-check happens when the
    storm drains. Nothing waits for a line that has not arrived. *)

(** The daemon's analysis pass ({!Pass.config}). Open [c_store] with
    [memory:true] ({!Pass.open_store}); [persist] additionally writes
    entries back so a later batch run or daemon restart starts warm. *)
type config = Pass.config = {
  c_files : string list;
  c_parse : path:string -> source:string -> (Cast.tunit, string) result;
  c_exts : Sm.t list;
  c_options : Engine.options;
  c_jobs : int;
  c_store : Summary_store.t option;
  c_rank : string;
}

type t

type check_out = {
  o_diagnostics : string;
      (** the full ranked report set, exactly the bytes a cold
          [xgcc check --format json] prints *)
  o_reports : int;
  o_rechecked : bool;  (** false: served from the last clean result *)
  o_recheck_s : float;
  o_load_s : float;  (** the re-check's preprocessing and parsing *)
  o_graph_s : float;  (** its CFGs and supergraph *)
  o_analysis_s : float;
      (** its engine run; these three, like [o_recheck_s], are 0 in a reply
          served from the last clean result *)
  o_warnings : string list;
      (** the captured Diag lines of the re-check this reply reports: a
          reply served from the last clean result repeats that result's
          warnings and [o_degraded] *)
  o_degraded : int;
  o_drifted : string list;
      (** files that changed on disk while the engine ran; their roots
          are degraded with a warning and the server stays dirty *)
}

val create : ?loader:Loader.t -> config -> (t, string) result
(** Read and fingerprint the corpus. Fails if any input is unreadable: a
    daemon serving a partial tree would lie to every request. [loader]
    is {!Pass.create}'s: with it, an edit of a header a unit included is
    seen by the next [check]. *)

val check : t -> check_out
(** Re-check if anything changed since the last clean result, else
    return that result. Used directly for warm-up and benchmarks; the
    request loop goes through {!handle_request}. *)

val handle_request : t -> more_pending:bool -> Proto.request -> Json_out.t * bool
(** Process one request, returning the reply and whether to shut down.
    [more_pending] is the edit-storm coalescing signal — the transport
    passes whether another complete request line is already waiting.
    Exposed for in-process tests, which drive the protocol
    deterministically without pipes or timing. *)

val handle_line : t -> more_pending:bool -> string -> Json_out.t * bool
(** {!Proto.request_of_line} + {!handle_request}; protocol errors become
    [{"ok":false}] replies. *)

val serve_stdio : t -> unit
(** Run the request loop over stdin/stdout until EOF or [shutdown]. A
    [didChange] is coalesced when another complete request line is
    already readable (see the header). *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix socket, serving one client at a time, until a
    client sends [shutdown]. The socket file is removed on exit. *)
