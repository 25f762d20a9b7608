(** AST (de)serialisation — the paper's two-pass architecture (Section 6).

    Pass 1 parses each translation unit in isolation and emits its AST to a
    file; pass 2 reads the emitted files back, "reassembles their ASTs, and
    constructs the CFG and call graph". The emitted file is an AST object:
    {!ast_magic} followed by the length-prefixed binary frame of
    {!tunit_to_bin}, the same bytes the content-addressed AST cache stores.
    The paper notes its AST files are "typically four or five times larger
    than the text representation"; ours are two to three times the source
    (see the tests and EXPERIMENTS.md P9).

    Node ids are not serialised: decoding allocates fresh ids, which is all
    the engine needs (ids only key per-run caches). Malformed input raises
    {!Wire.Corrupt} in the [*_of_bin] decoders; the object readers below
    return it as an [Error]. *)

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

(** {1 AST objects} *)

val format_version : string
(** Version of the parser's semantics; salts {!ast_fingerprint}. Bump on
    a parser change that can give the same text a different AST. *)

val cache_version : string
(** Version of the binary object layout; also salted into
    {!ast_fingerprint} so a layout change orphans on-disk objects, and
    into the engine's body and declaration hashes, which digest this
    layout. *)

val ast_magic : string
(** Magic prefix of every AST object. *)

val emit_string : Cast.tunit -> string
(** The AST object of one translation unit. *)

val read_string : string -> (Cast.tunit, string) result
(** Decode an AST object. Corrupt or truncated input, trailing bytes, and
    anything else that lacks {!ast_magic} (such as the s-expression
    [.mcast] files of older builds) yield [Error description]. *)

val emit_file : string -> Cast.tunit -> unit
(** Pass 1: write the AST object atomically ({!Wire.write_file}). *)

val read_file : string -> (Cast.tunit, string) result
(** Pass 2: {!read_string} on a file's contents; an I/O error is an
    [Error] too, so a driver can skip just that unit with a diagnostic. *)

(** {1 Content-addressed AST object cache}

    Pass 1 results keyed by post-preprocess content: a warm run whose
    fingerprint matches reuses the object instead of re-lexing and
    re-parsing the translation unit. *)

val ast_fingerprint : file:string -> source:string -> Fingerprint.t
(** Key for one translation unit: the input file name plus its
    post-preprocess text (locations are baked into the AST, so the name
    is part of the content). *)

val cached_path : cache_dir:string -> Fingerprint.t -> string
(** Where the object for [fp] lives: [<cache_dir>/ast/<fp>.mcast]. *)

val read_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit option
(** [None] on a miss or an unreadable (torn / stale-format) object. *)

val write_cached : cache_dir:string -> Fingerprint.t -> Cast.tunit -> unit
(** {!emit_file} to {!cached_path}; creates the directory as needed. *)

val emit_targets : string list -> (string * string) list
(** Map each input file to a unique [.mcast] output basename: the plain
    basename when unique among the inputs, otherwise a path-derived name
    (separators folded to ['_']). Raises [Invalid_argument] if names
    still collide (e.g. a duplicated input path). *)
