(** Persistent, content-addressed store for pass-2 analysis results.

    Two kinds of entries, both keyed by an {e extension key} (a digest of
    the store format version, the engine options, and the chain of
    extension sources up to and including this one — earlier extensions'
    annotations feed later ones, so an edit to any earlier extension must
    invalidate everything downstream):

    - {e function-summary entries} ([sum/]): one per defined function,
      carrying the block and suffix summaries plus returned-state keys.
      Each entry holds two fingerprints: the {e key}, a digest of the
      function's own body, the file-scope declarations, its callees'
      summary {e content} hashes, and the relevant annotation state; and
      the {e content} hash, a digest of the summaries the entry actually
      records. The two levels are what give early cutoff: when an edit
      changes a function's body but recomputation produces the same
      content hash, callers' keys (which fold content, not body) still
      validate and their entries survive.
    - {e root replay entries} ([root/]): the complete result of analysing
      one callgraph root (reports, counter deltas, annotation deltas,
      traversed set, stat counters), keyed by the content hashes of the
      root's transitive closure. A warm run replays valid roots verbatim
      and recomputes only invalid ones, which is what makes warm output
      byte-identical to a cold run: seeding summaries into a live
      traversal would take summary hits that suppress exactly the
      re-traversals that emit reports.

    Each kind keeps one {e pack} file per extension ([sum/<ext-key>.pack],
    [root/<ext-key>.pack]): a magic string, then one or more {e segments},
    each a payload length, the payload's MD5 digest and the payload: every
    entry it holds sorted by name as a header (name, key, content hash)
    and a length-prefixed {!Wire} body. A later segment's record of a name
    replaces an earlier one. Reading a pack decodes headers only; a
    function entry's summaries are decoded when the engine seeds a
    recomputed caller from them, a root entry when it replays. Entries
    live in one in-memory index per (kind, extension), and {!flush} writes
    the packs whose entries changed: it appends a segment of the changed
    entries, truncates a pack back to its first segment when an edit is
    reverted, and otherwise rewrites the whole pack (tmp + rename),
    copying unchanged bodies as raw bytes. A write only ever appends to
    or truncates the file it read; a pack another run replaced is
    rewritten. A pack whose first segment is short, fails its digest or
    does not parse (or whose magic is wrong) makes every entry of that
    pack a miss; a later bad segment ends the pack there. Neither is an
    error, and since a hit needs its key to match, any mix of segments
    costs recomputes but never yields a wrong entry. *)

type t

type stats = {
  mutable ast_hits : int;  (** pass-1 object-cache hits (driver-maintained) *)
  mutable ast_misses : int;
  mutable fn_hits : int;  (** function-summary entries still valid *)
  mutable fn_stale : int;  (** present but key changed *)
  mutable fn_absent : int;
      (** these three count the probes made: a daemon pass probes only
          the functions its edit can reach ([Engine.carry]), so their sum
          is the number of functions it probed *)
  mutable roots_replayed : int;
  mutable roots_reused : int;
      (** replayed roots a daemon pass merged from what its last pass
          decided, without a probe or a load ([Engine.carry]); they count
          in [roots_replayed] too *)
  mutable roots_recomputed : int;
  mutable fns_recomputed : int;
      (** functions whose summary the cutoff pass had to recompute *)
  mutable sums_unchanged : int;
      (** recomputed functions whose content hash matched the stale entry
          — the early-cutoff wins *)
  mutable roots_salvaged : int;
      (** replayed roots whose closure intersects the recomputed set —
          roots that only replay because cutoff fired *)
  mutable packs_read : int;  (** pack files read whose first segment held *)
  mutable packs_written : int;
      (** pack files written by {!flush}: appended to, truncated or
          rewritten *)
  mutable keys_computed : int;
      (** entry keys digested ({!digest}); a probe that compares inputs
          by value digests nothing *)
}

val store_version : string
(** Salted into every extension key: bumping it orphans all existing
    entries (they become unreachable, never misdecoded) and is recorded
    in the store directory's [VERSION] stamp. *)

val create :
  dir:string -> ?persist:bool -> ?memory:bool -> ext_keys:Fingerprint.t list -> unit -> t
(** [persist] (default true): when false nothing is written to disk —
    warm hits still replay but on-disk entries are never updated.
    [memory] (default false): keep the in-memory indexes (and every body
    decoded into them) across runs, so repeat probes skip both the disk
    read and the binary decode; without it {!flush} drops them and the
    next run reads the packs again. A long-lived daemon opens its store
    with [memory:true]; combined with [persist:false] this yields a fully
    in-memory incremental store that never touches disk and never encodes
    an entry (the first probe of each extension still reads its packs
    under [dir], so an existing on-disk store warms the indexes).
    [ext_keys] must align positionally with the extension list handed to
    [Engine.run]. When persisting, stamps [dir/VERSION] with
    {!store_version}. *)

val ext_keys_of : options_digest:string -> sources:string list -> Fingerprint.t list
(** The chain-prefix keys: the key for extension [i] digests the store
    version, [options_digest], and [sources.(0..i)]. *)

val ext_key : t -> int -> Fingerprint.t

val ext_keys : t -> Fingerprint.t list
(** Every extension key, in extension order. *)

val dir : t -> string

val persist : t -> bool
(** Whether the store accepts writes — true when it writes disk entries
    {e or} captures them in memory; the engine skips building entries
    entirely for a store that does neither. *)

val disk_persist : t -> bool
(** Whether entries also flow to disk — distinguishes a memory-only
    daemon store from one layered over a persistent [--cache-dir]. *)

val in_memory : t -> bool

val mem_entries : t -> int
(** Entries the in-memory indexes hold between runs (0 for a store opened
    without [memory]) — observability for the daemon's [stats] reply. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero all counters. The daemon calls this before each warm re-check so
    [stats] describes exactly one request instead of the process
    lifetime. *)

val pp_stats : Format.formatter -> t -> unit
(** One [--stats] line: AST, function-summary, root, cutoff and pack
    counters, then the keys digested and the roots reused. *)

(** {1 Entry keys} *)

type key
(** The key of an entry: the inputs it is digested from, and the digest,
    computed on first use. *)

val key :
  prefix:string ->
  misc:Fingerprint.t ->
  groups:(string * Fingerprint.t) list ->
  contents:(string * Fingerprint.t) list ->
  key
(** The key of a function-summary or root entry: one digest over
    [prefix], the misc annotation-group hash, the [(name, group hash)]
    pair of each closure member that has an annotation group
    ({!Annot_pos.group_hash}) and the [(name, content hash)] pairs of
    [contents], each field length-prefixed, so no bytes can shift from
    one field into the next. A function key's [prefix] is its body hash
    followed by the declarations hash, and its [contents] are its
    callees; a root key's [prefix] is the declarations hash alone, and
    its [contents] are its whole closure. The lengths differ, so the two
    kinds never share a key. *)

val key_of_digest : Fingerprint.t -> key
(** A key known only by its digest (one read back from a pack). *)

val digest : t -> key -> Fingerprint.t
(** The key's digest. Building it counts in [keys_computed]; a key
    digests at most once. *)

val flush : t -> unit
(** Write every pack one of whose entries was stored since it was read or
    last written (nothing when the store does not persist), then — unless
    the store was opened with [memory] — drop the in-memory indexes.
    [Engine.run] calls it at the end of each extension's merge, so a run
    whose entries all replayed writes no file. Each such pack is written
    by exactly one of three rules: truncated to its first segment when
    every entry's record (key, content hash, body bytes) is again the
    one recorded there; else, when the file still has the inode and
    length this store read or wrote and the append keeps its superseded
    bytes at most its live bytes, appended one segment of the entries
    stored since (one [write] on an [O_APPEND] descriptor); else
    rewritten whole, as one segment, through a temp file and a rename.
    A pack it writes is therefore at most twice the size a rewrite
    would give it. *)

(** {1 Pack stamps}

    A pack's stamp digests the MD5 digests of its valid segments (stored
    in it and checked on every read) and its length; a file that cannot
    be read has a stamp of its own. Two packs with one stamp hold the
    same live records. The engine's carry file records the stamps its
    run left, and a later run trusts a slot it does not probe only when
    the pack's stamp is still the recorded one. *)

val stamp : t -> ext:Fingerprint.t -> sums:bool -> string
(** The stamp of the extension's function-summary pack ([sums]) or root
    pack as this store read or last wrote it, reading the pack when the
    store holds no index of it. *)

val flushed_stamp : t -> ext:Fingerprint.t -> sums:bool -> string option
(** The stamp the last {!flush} left that pack with, when the store held
    an index of it then (it read or wrote the pack since the flush
    before); [None] otherwise, and always for a store opened with
    [memory], which keeps its indexes. *)

(** {1 Function-summary entries} *)

type fn_entry = {
  f_name : string;
  f_key : Fingerprint.t;
  f_content : Fingerprint.t;
  f_bs : Summary.t array;
  f_sfx : Summary.t array;
  f_rets : string list;
}

type fn_hit
(** A valid entry whose header alone has been decoded. *)

type probe = Hit of fn_hit | Stale of Fingerprint.t | Absent
(** [Stale] carries the {e old} content hash, so after recomputation the
    engine can detect that the content did not actually change and count
    the cutoff. *)

val probe_fn : t -> ext:Fingerprint.t -> fname:string -> key:key -> probe
(** Validate [fname]'s stored key against [key] (bumps [fn_*] stats),
    decoding no summaries. Entries of an unreadable pack are [Absent].
    An entry this process stored, or one whose key a probe already
    matched, remembers its key's inputs: it is compared with [key]'s by
    value, and no digest is built. Any other entry is compared by
    {!digest}. Both comparisons decide alike, since the digest's input
    encoding is injective. *)

val find_fn : t -> ext:Fingerprint.t -> fname:string -> fn_hit option
(** The slot [fname] holds, whatever its key, decoding no summaries and
    counting nothing: what a carried function that is not probed reads
    its content hash and canonical tables from. *)

val hit_content : fn_hit -> Fingerprint.t

val hit_entry : fn_hit -> fn_entry option
(** The full entry, decoded on first use and kept in the index. [None]
    when the body does not decode. Not domain-safe: call it from the
    domain that runs the store's probes. *)

val store_fn :
  t ->
  ext:Fingerprint.t ->
  fname:string ->
  key:key ->
  content:Fingerprint.t ->
  bs:Summary.t array ->
  sfx:Summary.t array ->
  rets:string list ->
  unit

(** {1 Root replay entries} *)

type root_entry = {
  r_root : string;
  r_key : Fingerprint.t;
  r_reports : Report.t list;  (** in emission order *)
  r_counters : (string * int * int) list;
  r_annots : (Srcloc.t * string * string * int * string list) list;
      (** annotation delta: (location, printed expression, enclosing
          global definition, occurrence rank, tags oldest-first) — node
          ids are not stable across runs, so deltas are stored
          positionally and re-resolved against the current ASTs at replay
          time; the definition name and occurrence rank disambiguate
          positional twins (the same header parsed into two translation
          units, one file built in two configurations) so replay targets
          exactly the node the worker annotated; see {!Annot_pos} *)
  r_traversed : string list;
  r_stats : int list;  (** engine stat counters, in [Engine]'s field order *)
}

val counter_to_bin : Wire.writer -> string * int * int -> unit
(** The encoding of one [r_counters] element. *)

val annot_to_bin : Wire.writer -> Srcloc.t * string * string * int * string list -> unit
(** The encoding of one [r_annots] element. The engine's canonical
    content hash folds counters and annotation deltas in these same
    encodings, so a change here moves persisted content hashes too. *)

val load_root :
  ?valid:(root_entry -> bool) ->
  t ->
  ext:Fingerprint.t ->
  root:string ->
  key:key ->
  root_entry option
(** Bumps [roots_replayed] on a hit, [roots_recomputed] otherwise. An
    entry that [valid] (default: always) rejects is a miss. Keys compare
    as in {!probe_fn}. *)

val find_root : t -> ext:Fingerprint.t -> root:string -> root_entry option
(** The entry [root]'s slot holds, whatever its key, decoded; [None]
    when there is none or it does not decode. Counts nothing. *)

val store_root : t -> ext:Fingerprint.t -> key:key -> root_entry -> unit
(** The entry's [r_key] must be [digest t key]. [store_fn] and
    [store_root] update the in-memory index; {!flush} writes the pack. *)

(** {1 The carry file}

    [DIR/carry] holds what a [--cache-dir] run decided, for the next run
    ({!Engine.read_carry}): a magic, the MD5 digest of the payload, and
    the payload, whose encoding is the engine's. *)

val carry_path : dir:string -> string

val read_carry : dir:string -> (string, string) result
(** The payload, its digest checked; [Error] says why there is none
    (["absent"], ["not a carry file"], ["truncated"], ["bad digest"]). *)

val write_carry : t -> string -> unit
(** Replace the carry file with this payload atomically
    ({!Wire.write_file}); nothing when the store does not persist. A
    write that fails leaves the last file in place: its stamps describe
    the packs it was written with, so it stays sound. *)

(** {1 Inspection (the [cache stats] / [cache dump] CLI)} *)

val save_last_run : t -> unit
(** Persist the run's counters to [dir/last-run] (plain ["name value"]
    lines) so a later [cache stats] can report them. No-op when
    [persist:false]. [Engine.run] does not call it: a caller saves once,
    after it has recorded its own counters ([Loader.record_ast_counts]
    does both). *)

val load_last_run : dir:string -> (string * int) list option

type disk_kind = {
  dk_files : int;  (** pack files ([sum], [root]) or AST objects ([ast]) *)
  dk_bytes : int;  (** their total size *)
  dk_entries : int;
      (** live entries inside them: distinct names in the valid segments
          (none for a pack whose first segment fails) *)
  dk_segments : int;  (** valid segments of the packs (0 for [ast]) *)
  dk_superseded : int;
      (** bytes the next rewrite of each pack would reclaim: superseded
          records, extra segment headers and any torn tail (0 for [ast]);
          [dk_bytes - dk_superseded] is what rewrites would leave *)
  dk_tmp : int;  (** [*.tmp] files a killed writer left behind *)
  dk_legacy : int;  (** per-entry [*.bin] files of sumstore-3, never read *)
}

type disk = {
  d_version : string option;  (** the [VERSION] stamp, if readable *)
  d_ast : disk_kind;
  d_sum : disk_kind;
  d_root : disk_kind;
}

val disk_stats : dir:string -> disk
(** Count files, bytes, live entries, segments and superseded bytes per
    kind, checking digests and decoding no entry body. *)

type dump = Fn_entries of fn_entry list | Root_entries of root_entry list

val dump_pack : string -> (dump, string) result
(** Decode the live record of every name in one pack file's valid
    segments (kind recognised by magic, digests checked), in name order.
    An [Error] when the first segment fails. *)

val pp_dump : Format.formatter -> dump -> unit
(** The [cache dump] rendering, one line per entry, in the given order:
    [fn NAME KEY content HASH rets [...]] and then each block's and
    suffix's summary edges ({!Summary.pp_edge}, kind [t] or [a]) and
    source keys; or [root NAME KEY reports [...]] with each report's
    {!Report.pp} text, then counters, annotation delta, traversed
    functions and stats. *)
