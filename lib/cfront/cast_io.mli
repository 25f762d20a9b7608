(** AST (de)serialisation — the paper's two-pass architecture (Section 6).

    Pass 1 parses each translation unit in isolation and emits its AST to a
    temporary file; pass 2 reads the emitted files back, "reassembles their
    ASTs, and constructs the CFG and call graph". The emitted form is a
    textual s-expression; the paper notes its AST files are "typically four
    or five times larger than the text representation", and ours land in
    the same ballpark (see the tests).

    Node ids are not serialised: decoding allocates fresh ids, which is all
    the engine needs (ids only key per-run caches). *)

val expr_to_sexp : Cast.expr -> Sexp.t
val expr_of_sexp : Sexp.t -> Cast.expr
val stmt_to_sexp : Cast.stmt -> Sexp.t
val stmt_of_sexp : Sexp.t -> Cast.stmt
val ctyp_to_sexp : Ctyp.t -> Sexp.t
val ctyp_of_sexp : Sexp.t -> Ctyp.t
val global_to_sexp : Cast.global -> Sexp.t
val global_of_sexp : Sexp.t -> Cast.global
val tunit_to_sexp : Cast.tunit -> Sexp.t
val tunit_of_sexp : Sexp.t -> Cast.tunit

val emit_file : string -> Cast.tunit -> unit
(** Pass 1: write the AST file. *)

val read_file : string -> Cast.tunit
(** Pass 2: read it back. Raises {!Sexp.Parse_error} / {!Sexp.Decode_error}
    on malformed input. *)

val read_file_result : string -> (Cast.tunit, string) result
(** Fault-contained {!read_file}: a truncated or corrupt [.mcast] file
    yields [Error description] instead of raising, so a driver can skip
    just that unit with a diagnostic. I/O errors ([Sys_error]) are
    folded in too. *)

val emit_string : Cast.tunit -> string
val read_string : string -> Cast.tunit

(** {1 Binary codec}

    The cache hot path: a length-prefixed binary form of the same AST,
    decoded by a single forward scan (no tokenising). The sexp form
    above remains the interchange format — [.mcast] emit/read, body
    hashing, and [xgcc cache dump] all speak sexp. Malformed binary
    input raises {!Wire.Corrupt}; cache readers degrade it to a miss. *)

val expr_to_bin : Wire.writer -> Cast.expr -> unit
val expr_of_bin : Wire.reader -> Cast.expr
val stmt_to_bin : Wire.writer -> Cast.stmt -> unit
val stmt_of_bin : Wire.reader -> Cast.stmt
val ctyp_to_bin : Wire.writer -> Ctyp.t -> unit
val ctyp_of_bin : Wire.reader -> Ctyp.t
val global_to_bin : Wire.writer -> Cast.global -> unit
val global_of_bin : Wire.reader -> Cast.global
val tunit_to_bin : Wire.writer -> Cast.tunit -> unit
val tunit_of_bin : Wire.reader -> Cast.tunit

(** {1 Content-addressed AST object cache}

    Pass 1 results keyed by post-preprocess content: a warm run whose
    fingerprint matches reuses the emitted object instead of re-lexing
    and re-parsing the translation unit. Objects are stored in the
    binary form with an {!ast_magic} header. *)

val format_version : string
(** Semantic version of the AST encoding; salts {!ast_fingerprint}. Bump
    on any sexp-encoding change, or a parser change that can give the same
    text a different AST. *)

val cache_version : string
(** Version of the binary cache-object layout; also salted into
    {!ast_fingerprint} so a layout change orphans on-disk objects, and
    into the engine's body and declaration hashes, which digest this
    layout. *)

val ast_magic : string
(** Magic prefix of every binary cache object. *)

val ast_fingerprint : file:string -> source:string -> Fingerprint.t
(** Key for one translation unit: the input file name plus its
    post-preprocess text (locations are baked into the AST, so the name
    is part of the content). *)

val cached_path : cache_dir:string -> Fingerprint.t -> string
(** Where the object for [fp] lives: [<cache_dir>/ast/<fp>.mcast]. *)

val read_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit option
(** [None] on a miss or an unreadable (torn / stale-format) object. *)

val read_cached_file : string -> (Cast.tunit, string) result
(** Decode one binary cache object by path — the [cache dump] entry
    point. [Error description] on corrupt or unreadable input. *)

val write_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit -> unit
(** Atomic (tmp + rename) write; creates the directory as needed. *)

val emit_targets : string list -> (string * string) list
(** Map each input file to a unique [.mcast] output basename: the plain
    basename when unique among the inputs, otherwise a path-derived name
    (separators folded to ['_']). Raises [Invalid_argument] if names
    still collide (e.g. a duplicated input path). *)
