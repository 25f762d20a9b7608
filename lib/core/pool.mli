(** A fixed-size domain pool over shared work (OCaml 5 [Domain]s, stdlib
    only).

    The engine's unit of parallelism is one callgraph root (or, in pass 1,
    one input file): tasks are independent, so the primitives here are a
    plain atomic work queue ({!run}, {!run_results}) and a work-stealing
    scheduler over a caller-supplied priority order ({!run_sched}).
    Results come back in index order regardless of which domain ran which
    task, which is what makes the engine's merge step deterministic.

    All entry points degrade rather than crash when [Domain.spawn] itself
    fails (thread or fd exhaustion): the work still completes on the
    domains that did spawn — worst case the calling domain alone — and a
    single warning is emitted through {!Diag.warnf}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1 — the
    default worker count for [-j 0]. *)

val run_results :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  int ->
  (int -> 'a) ->
  ('a, exn) result array
(** Fault-isolating [run]: each task's outcome is recorded individually
    as [Ok] or [Error] and every task runs — one crashing task never
    aborts the queue or discards another task's result. This is the
    worker-isolation primitive: the engine converts a task's [Error]
    into a degraded root and keeps going. Same inline guarantee for
    [jobs <= 1] / [n <= 1] as {!run}. [?spawn] substitutes for
    [Domain.spawn] in tests of spawn-failure degradation. *)

val run :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  int ->
  (int -> 'a) ->
  'a array
(** [run ~jobs n f] evaluates [f 0 .. f (n-1)] on up to [jobs] domains
    (the calling domain included) and returns the results in index order.

    [jobs <= 1] or [n <= 1] runs everything inline in the calling domain —
    no domain is spawned, so the sequential path is byte-for-byte the old
    behavior. Tasks must not raise for flow control: the first exception
    raised by any task aborts the queue (no new tasks start), is captured,
    and is re-raised in the calling domain after all workers join. *)

(** {1 Work-stealing scheduler} *)

type sched_stats = {
  workers : int;  (** domains that ran tasks, the calling domain included *)
  stolen : int;  (** tasks a worker took from another worker's deque *)
  spawn_failures : int;  (** worker domains that failed to spawn *)
}

val run_sched :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  ?order:int array ->
  int ->
  (worker:int -> int -> 'a) ->
  ('a, exn) result array * sched_stats
(** [run_sched ~jobs ~order n f] evaluates task indices [0 .. n-1] on up
    to [jobs] domains with per-task fault isolation (as {!run_results})
    and returns results in index order plus scheduling statistics.

    [order] is a permutation of [0 .. n-1] giving global task priority
    (default: index order). It is striped round-robin across per-worker
    deques, so every worker starts near the front of the order; an owner
    pops its own deque front-first, and a worker whose deque runs dry
    steals from the back of another's — the furthest-out work. The engine
    passes a bottom-up callgraph order here so that short, shared callees
    are analyzed (and their summaries published) before the tall callers
    that demand them.

    The scheduler never reorders results — byte-determinism of the merge
    is the caller's concern and holds as long as the merge reads the
    returned array in index order. [jobs <= 1] or [n <= 1] runs every
    task inline in the calling domain in [order] sequence, with [worker]
    = 0. [?spawn] substitutes for [Domain.spawn] in tests; spawn failure
    degrades to the domains already running (the seeded deques of missing
    workers are drained by stealing) and counts in [spawn_failures]. *)
