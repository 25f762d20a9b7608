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
  dispatch : bool;
      (** head-constructor transition indexing and block skip sets
          ({!Dispatch}). Purely an execution strategy: reports are
          byte-identical either way, so the flag is deliberately {e not}
          part of {!options_digest}. Default on; [--no-dispatch-index]
          turns it off for A/B comparison. *)
  flatten : bool;
      (** serve block events from the supergraph's prebuilt flat tables
          ({!Flat}) instead of rebuilding per-context event lists. Like
          [dispatch], purely an execution strategy — reports are
          byte-identical either way and the flag is {e not} part of
          {!options_digest}, so warm caches replay across modes. Default
          on; [--no-flat] turns it off for A/B comparison. *)
  state_ids : bool;
      (** resolve tracked-object identity through the supergraph's
          hash-cons table ({!Exprid}): instance lookups, seen-tuple probes
          and summary keys compare dense int ids and keys render at most
          once per distinct expression per root. Off, every probe renders
          the key string and resolves it through the same id space — the
          A/B allocation baseline. Like [flatten]/[dispatch], purely a
          representation switch: reports are byte-identical either way and
          the flag is {e not} part of {!options_digest}, so warm caches
          replay across modes. Default on; [--no-state-ids] turns it off. *)
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
      (** parallel scheduler only ([jobs > 1]): shared summary units —
          pure-entry callees — computed once in a scratch context and
          published to the fleet-wide store *)
  mutable shared_replayed : int;
      (** publications replayed into demanding roots' contexts (each
          replay stands in for a traversal the old chunked mode would
          have re-run) *)
  mutable shared_recomputed : int;
      (** duplicate publications dropped first-writer-wins — the "a
          shared unit was computed more than once" tripwire. Structurally
          0: the store's claim protocol prevents double computation. *)
  mutable sched_steals : int;
      (** root tasks a worker stole from another worker's deque *)
  mutable sched_waits : int;
      (** unit acquisitions that blocked on a claim another worker held.
          Steals and waits are timing noise and may differ between runs;
          [shared_published]/[shared_replayed]/[shared_recomputed] are
          deterministic for a given program, extension and option set. *)
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
    contributes {e nothing} — no reports, counters, annotations, cached
    entries or function summaries (a truncated summary would be trusted
    as complete, suppressing the re-traversals that report) — and every
    other root's output is byte-identical to a run without it, at any
    [jobs]. *)

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

val run :
  ?options:options ->
  ?jobs:int ->
  ?cache:Summary_store.t ->
  Supergraph.t ->
  Sm.t list ->
  result
(** Apply each extension in turn (composition order: earlier extensions'
    AST annotations are visible to later ones), starting from every
    callgraph root.

    [jobs] (default 1) is the number of worker domains. With [jobs = 1]
    the engine runs exactly as before — one root context shared by every
    root, function summaries reused across roots. With [jobs > 1] each
    callgraph root is an individual task on a work-stealing scheduler
    ({!Pool.run_sched}), dispatched bottom-up by acyclic callgraph height
    and analysed in a private root context over the shared supergraph.
    Callees entered with no active instances (characterized by name and
    inbound global state alone) are {e shared summary units}: computed
    exactly once fleet-wide in a scratch context, published to a
    publish-once store, and replayed into every demanding root — the hot
    shared callee that static chunking re-analysed once per chunk is paid
    for once, at any [-j] ([stats.shared_recomputed] asserts this).
    Results are merged deterministically in root order (reports
    re-deduplicated by their identity key, counters and stats summed,
    each shared unit's accounting folded in exactly once), so the reports
    are byte-identical to the sequential run and independent of
    scheduling. Unit sharing requires [caching] on and per-root timeouts
    off ([timeout_per_root = 0.], wall-clock deadlines being inherently
    timing-dependent); node budgets compose with sharing — a replayed
    unit (plus its not-yet-demanded transitive deps) is charged to the
    demanding root's fuel exactly as a private traversal of the callee
    would have been, so [max_nodes_per_root] no longer disables the
    shared store and [shared_recomputed] stays 0 under budgets.
    Annotations still compose across extensions (merged between extension
    runs); annotations made during one root's traversal are not visible to
    {e other roots of the same extension} in parallel mode.

    [cache] switches to persistent incremental execution on top of the
    same per-root model: roots whose transitive-callee closure hash
    matches a stored entry are replayed verbatim from the store, the rest
    are recomputed on the pool ([jobs] applies to them) and written back
    (unless the store is read-only). Reports stay byte-identical to an
    uncached run at any [jobs]. Per-function summaries are persisted as
    the invalidation ledger — a leaf edit flips exactly the leaf and its
    transitive callers to stale — with hit/stale/absent counts in the
    store's stats. *)

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

val run_with_summaries :
  ?options:options -> Supergraph.t -> Sm.t list -> result * (string * summaries) list
(** Like {!run} (sequential), also returning each extension's summary
    tables, keyed by extension name in run order (Figure 5 material).
    Summaries are per-extension: running two extensions returns two
    entries, not just the last extension's tables. *)
