(** The xgcc analysis engine (Sections 5, 6, 8).

    Applies metal extensions to a program's supergraph with:

    - a depth-first, execution-order traversal of each function's CFG, one
      path at a time, with per-path (clone-on-branch) extension state;
    - block-level state-tuple caching: a path is aborted as soon as every
      tuple of the current extension state has already been seen at the
      block (Section 5.2–5.3);
    - block summaries (transition + add edges), suffix summaries computed by
      the backward [relax] pass (Figure 6), and function summaries (the
      entry block's suffix summary) that memoise whole-function effects
      (Section 6.2);
    - a top-down interprocedural traversal from callgraph roots with
      refine/restore at call boundaries (Section 6.1, Table 2) and
      summary-driven continuation after calls (Section 6.3);
    - transparent false-positive suppression: kill-on-redefinition,
      synonyms, and false-path pruning via {!Store} (Section 8). *)

type options = {
  caching : bool;  (** block-level state caching (Section 5.2) *)
  pruning : bool;  (** false-path pruning (Section 8) *)
  interproc : bool;  (** follow calls to defined functions (Section 6) *)
  auto_kill : bool;  (** kill-on-redefinition (Section 8) *)
  synonyms : bool;  (** synonym tracking (Section 8) *)
  max_call_depth : int;
  max_instances : int;  (** cap on simultaneously tracked objects per SM *)
  max_nodes_per_root : int;
      (** per-root fuel: nodes visited plus instances created before the
          root is abandoned as {!degraded}. [0] (the default) means
          unlimited. Part of {!options_digest} — a budget changes what
          the analysis can report. *)
  timeout_per_root : float;
      (** per-root wall-clock deadline in seconds; [0.] (the default)
          means none. Inherently nondeterministic — meant as a production
          backstop, while [max_nodes_per_root] gives reproducible
          containment. Part of {!options_digest}. *)
}
(** Every field can change what the analysis reports, so every field is
    part of {!options_digest}. How the engine executes — flat block
    tables ({!Flat}), hash-consed state identity ({!Exprid}), compiled
    dispatch ({!Dispatch}) — is not an option: there is one traversal. *)

val default_options : options

type stats = {
  mutable blocks_visited : int;
  mutable nodes_visited : int;
  mutable cache_hits : int;
  mutable paths_explored : int;
  mutable calls_followed : int;
  mutable summary_hits : int;
  mutable pruned_branches : int;
  mutable transitions_fired : int;
  mutable instances_created : int;
  mutable functions_traversed : int;
      (** distinct functions the traversal entered (coverage) *)
  mutable cache_probes : int;
      (** block-cache and summary-cache membership tests, each an interned
          integer lookup; [cache_hits / cache_probes] is the hit rate *)
  mutable intern_atoms : int;
  mutable intern_tuples : int;
      (** final intern-table sizes ({!Intern}), summed over root contexts.
          The three counters above are process-local observability: they
          are not persisted in the summary store, so roots replayed from a
          warm cache contribute 0. *)
  mutable match_attempts : int;
      (** [Pattern.match_event] calls made by the transition loops — the
          quantity the dispatch index exists to reduce *)
  mutable index_hits : int;
      (** node events whose head-index candidate list was strictly
          narrower than the extension's full node-matching list *)
  mutable blocks_skipped : int;
      (** block visits proven dead by the skip set, so the transition
          loops never ran for their nodes. Like the intern counters,
          these three are process-local: not persisted in the summary
          store, 0 for cache-replayed roots. *)
  mutable shared_published : int;
  mutable shared_replayed : int;
  mutable shared_recomputed : int;
      (** Always 0. These three, and [sched_waits] below, counted the
          shared summary units that [jobs > 1] once published to a
          fleet-wide store and replayed into every demanding root; that
          store is gone, so nothing writes them and [--stats] no longer
          prints them. They remain only because the benchmark harness
          still reads them, and go with its next change. *)
  mutable sched_steals : int;
      (** root tasks a worker stole from another worker's deque; timing
          noise, may differ between runs *)
  mutable sched_waits : int;  (** always 0, like the three above *)
  mutable worker_alloc_bytes : int;
      (** bytes allocated by pool tasks that ran on domains other than
          the one that called {!run}. [Gc.allocated_bytes] counts only the
          calling domain, so the run's total allocation is the caller's
          own [Gc.allocated_bytes] delta plus this. Process-local: not
          persisted in the summary store. *)
}

type degraded = { d_root : string; d_reason : string }
(** A callgraph root the engine abandoned: it exhausted its analysis
    budget ({!options.max_nodes_per_root} / {!options.timeout_per_root})
    or its traversal raised. Containment is per root: a degraded root
    contributes {e nothing} but this note — no reports, counters,
    annotations, traversed functions, traversal stats, cached entries or
    function summaries (a truncated summary would be trusted as complete,
    suppressing the re-traversals that report) — and every other root's
    output is byte-identical to a run without it, at any [jobs], cached
    or not: its reports, its rule counters and its traversal stats (the
    process-local intern and allocation counts aside). *)

type result = {
  reports : Report.t list;
  counters : (string * int * int) list;
      (** rule -> (examples, counterexamples), from [a_count] actions *)
  stats : stats;
  degraded : degraded list;
      (** roots abandoned by fault containment, in root order; empty on a
          healthy run *)
}

val analysis_version : string
(** Semantic version stamp of the engine and builtin checkers, bumped on
    any change that can alter analysis output. {!options_digest} folds it
    into every persistent cache key so results computed by an older build
    are orphaned rather than silently replayed (the store's format
    version only guards the entry encoding, not the semantics). *)

val options_digest : options -> string
(** Stable textual digest of the options, prefixed with
    {!analysis_version} and folded into persistent cache keys (an option
    or engine-semantics change must invalidate cached results). *)

type carry
(** What a cached run decided, for the next run over an edit of the same
    program on the same store. Per extension it holds the
    annotation-group hashes at the boundary, every function's content
    hash and canonical tables, and what every root left: its output in
    replay form (what a load hands the merge), or no valid slot. A
    daemon keeps one in memory across its passes ({!carry}); a
    [--cache-dir] run reads one from the file beside the packs
    ({!read_carry}), which keeps only what the packs do not hold, and
    writes the one it leaves ({!write_carry}). Every cached run decides
    these as it goes; a run given no carry drops each extension's as
    soon as that extension ends. *)

val carry : unit -> carry
(** An empty in-memory carry: the first run that uses it is a first
    pass, with every function dirty. *)

val read_carry : Summary_store.t -> units:(string * Fingerprint.t) list -> carry
(** The carry the last run over [store]'s directory left beside the packs
    ({!Summary_store.read_carry}), for a run over a program whose units
    have these identities (path and {!Cast_io.ast_fingerprint} of the text
    the parser read), in the supergraph's unit order. The run tells
    changed definitions by their defining unit's identity, reads a clean
    function's content hash and canonical tables, and a clean root's
    output, from their pack slots, and trusts a pack only while its stamp
    is the one recorded. A missing, torn or foreign file, or one written
    for other extension keys, gives an empty carry: a first pass. *)

val write_carry : Summary_store.t -> carry -> unit
(** Write what the last run given [carry] (one from {!read_carry}) left,
    beside the packs: only when the store writes to disk, that run
    completed, and the file would change. A run whose store does not
    persist never writes it: the packs would not hold the entries the
    file vouches for. *)

type carry_file = { cf_units : int; cf_functions : int; cf_extensions : int }

val carry_file : dir:string -> (carry_file, string) Stdlib.result
(** What the carry file in [dir] names, checked for its digest and shape
    only ([cache stats]); [Error] says why it is unusable. *)

val run :
  ?options:options ->
  ?jobs:int ->
  ?cache:Summary_store.t ->
  ?carry:carry ->
  Supergraph.t ->
  Sm.t list ->
  result
(** Apply each extension in turn (composition order: earlier extensions'
    AST annotations are visible to later ones), starting from every
    callgraph root.

    Every root runs in a context whose output tables are its own, and
    one merge folds what it produced into the run, in root order
    (reports re-deduplicated by their identity key, counters and stats
    summed, tags laid). There are two drivers. Uncached with [jobs = 1]
    (the default), each root runs in a frame over one run context and is
    merged before the next root starts, so it reads the tags and reuses
    the summaries of every root before it; a function's summaries are
    kept until the last root that can reach the function
    ({!Callgraph.release_schedule}) has run, then dropped. Every other
    run is the per-root driver: each callgraph root the store cannot
    replay is an individual task on a work-stealing scheduler
    ({!Pool.sched}), in root order, analysed in a fresh root context
    over the shared supergraph, and the run opens one {!Pool.t} whose
    [jobs - 1] helper domains serve every extension and are joined when
    the run returns. Replayed and computed roots are merged alike, so
    the reports are byte-identical to the sequential run and independent
    of scheduling, and uncached [jobs > 1] does exactly the work of a
    cold [cache] run at any [jobs]: every counter and every [stats]
    field but [sched_steals] and [worker_alloc_bytes] agrees.
    The two drivers differ only in where a root's caches come from and
    when it merges, which no report can see: a frame takes summary hits
    on earlier roots' summaries, so its [stats] traversal counts and
    some rule counters can differ (a callee that bumps a counter is
    traversed once per root in a per-root run, but only on a
    summary-cache miss at [jobs = 1]).
    Annotations compose across extensions (merged between extension
    runs); annotations made during one root's traversal are not visible
    to {e other roots of the same extension} in a per-root run.

    [cache] makes the per-root driver incremental: roots whose
    transitive-callee closure hash matches a stored entry are replayed
    verbatim from the store, the rest are computed on the pool ([jobs]
    applies to them) and written back (unless the store is read-only) —
    except roots degraded by fault containment, which store nothing.
    Reports stay byte-identical to an uncached run at any [jobs].
    Per-function summaries are persisted as the invalidation ledger — a
    leaf edit flips exactly the leaf and its transitive callers to stale
    — with hit/stale/absent counts in the store's stats.

    [carry] (ignored without [cache]) makes a run over an edit of the
    last run's program probe only what the edit can reach. A run without
    a usable last run (no carry, an empty one, one for another store or
    number of extensions, or a changed declarations hash) is a first pass:
    every function and every root is dirty, and the run goes through the
    same code. A function is {e dirty} when its definition is new or
    changed (not physically the last run's in memory; defined by a unit
    whose identity is not the recorded one for a carry file), when its
    callee list changed, or when every function is (the declarations
    hash changed); at one extension also when its annotation-group hash
    at the boundary differs from the last run's at the same boundary,
    when its canonical run raised there, when the misc group hash changed
    (then all are), or, for a carry file, when a pack's stamp is not the
    recorded one (then all are); and every transitive caller of a dirty
    function is dirty. Only dirty functions are probed, in the usual
    order; a clean function's content hash and canonical tables are the
    last run's. A clean root merges its last output without a key or a
    load, and counts as replayed (and in [roots_reused]); a root the
    last run degraded, or that was no root then, is loaded as usual, and
    so is a carry file's root whose stored delta no longer resolves.
    Every key a skipped probe or load would have built equals the one it
    built last time, so the result, the store and its [roots_replayed],
    [roots_recomputed], [fns_recomputed], [sums_unchanged] and
    [roots_salvaged] counts equal those of a run that probes everything,
    and so does [keys_computed] over a memory store; [fn_hits],
    [fn_stale] and [fn_absent] count the probes made. The carry is
    updated in place, and emptied if the run raises. *)

val run_function :
  ?options:options -> Supergraph.t -> Sm.sm_inst -> fname:string -> result
(** Analyse a single function starting from the given extension state — the
    entry point the exhaustive bottom-up baseline ({!Baseline}) uses to
    charge one run per possible entry state. *)

val check_source : ?options:options -> file:string -> string -> Sm.t list -> result
(** Convenience: parse one translation unit from text, build the supergraph,
    run. *)

val check_files : ?options:options -> string list -> Sm.t list -> result
(** Parse the given C files into one program and run. *)

(** {1 Introspection} (used by the Figure 5 reproduction and the CLI) *)

type summaries := (string, Summary.t array * Summary.t array) Hashtbl.t
(** function name -> (block summaries, suffix summaries), indexed by block
    id. *)

val run_observing_groups :
  ?options:options ->
  ?jobs:int ->
  cache:Summary_store.t ->
  observe:(Annot_pos.hashes -> (int, string list) Hashtbl.t -> unit) ->
  Supergraph.t ->
  Sm.t list ->
  result
(** {!run} with [cache], calling [observe] at the start of every extension
    with the annotation-group hashes that extension's cache keys fold and
    the run's annotation table (node id -> tags, newest first; read it,
    never write it). The hashes are kept incrementally across extensions;
    tests check them against {!Annot_pos.group_hashes} of the table. *)

val run_with_summaries :
  ?options:options -> Supergraph.t -> Sm.t list -> result * (string * summaries) list
(** Like {!run} (sequential), also returning each extension's summary
    tables, keyed by extension name in run order (Figure 5 material).
    Summaries are per-extension: running two extensions returns two
    entries, not just the last extension's tables. The run is {!run}'s own
    sequential driver: each function's tables are collected when that
    driver releases them, after the last root that can reach the function
    (a table's iteration order therefore follows that schedule). *)

val pp_summaries :
  Supergraph.t -> Format.formatter -> (string * summaries) list -> unit
(** Print {!run_with_summaries} tables: per function, in name order, each
    block's summary, suffix summary, elements and terminator; with more
    than one extension, each extension's functions under its own banner
    ([dump-summaries], [demo fig2]). *)
