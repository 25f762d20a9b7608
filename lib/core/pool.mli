(** A fixed-size domain pool over shared work (OCaml 5 [Domain]s, stdlib
    only).

    The engine's unit of parallelism is one callgraph root (or, in pass 1,
    one input file): tasks are independent, so there is one primitive, a
    work-stealing scheduler over task indices ({!sched}), run on a pool
    whose helper domains outlive a single job ({!t}); {!run},
    {!run_results} and {!run_sched} are one-shot wrappers over it. Results come back in index order regardless of which domain
    ran which task, which is what makes the engine's merge step
    deterministic.

    All entry points degrade rather than crash when [Domain.spawn] itself
    fails (thread or fd exhaustion): the work still completes on the
    domains that did spawn — worst case the calling domain alone — and a
    single warning is emitted through {!Diag.warnf}. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1 — the
    default worker count for [-j 0]. *)

(** {1 The pool} *)

type t
(** A pool of [jobs - 1] helper domains that live from {!create} to
    {!close} and block between jobs; the calling domain is the [jobs]-th
    worker. The engine opens one per run, so every extension's computed
    roots reuse the same domains instead of spawning and joining their
    own. A pool runs one job at a
    time and is driven from the domain that created it; a task must not
    start a job on its own pool. *)

val create : ?spawn:((unit -> unit) -> unit Domain.t) -> jobs:int -> unit -> t
(** Spawns the helpers ([jobs <= 1]: none). [?spawn] substitutes for
    [Domain.spawn] in tests; the first spawn that raises ends spawning
    with one {!Diag.warnf} warning, and the pool runs its jobs on the
    domains it has. *)

val close : t -> unit
(** Wakes the helpers, lets them exit and joins them. Idempotent. *)

val with_pool :
  ?spawn:((unit -> unit) -> unit Domain.t) -> jobs:int -> (t -> 'a) -> 'a
(** [create], run the function, then [close] even if it raised. *)

val jobs : t -> int

(** {1 Work-stealing scheduler} *)

type sched_stats = {
  workers : int;  (** domains that ran tasks, the calling domain included *)
  stolen : int;  (** tasks a worker took from another worker's deque *)
  spawn_failures : int;
      (** deques of this job with no live domain behind them (their
          helpers failed to spawn) *)
}

val sched :
  t -> int -> (worker:int -> int -> 'a) -> ('a, exn) result array * sched_stats
(** [sched p n f] evaluates task indices [0 .. n-1] on up to [jobs p]
    domains with per-task fault isolation — each task's outcome is
    recorded individually as [Ok] or [Error], and one crashing task never
    aborts the others or the helpers, which go on serving the next job —
    and returns results in index order plus scheduling statistics.

    The indices are striped round-robin across [min (jobs p) n]
    per-worker deques, so every worker starts near the front of the index
    order; an owner pops its own deque front-first, and a worker whose
    deque runs dry steals from the back of another's — the furthest-out
    work.

    The scheduler never reorders results — byte-determinism of the merge
    is the caller's concern and holds as long as the merge reads the
    returned array in index order. [jobs p <= 1] or [n <= 1] runs every
    task inline in the calling domain in index order, with [worker] = 0,
    and wakes no helper. The seeded deques of helpers that failed to
    spawn are drained by stealing and count in [spawn_failures]. *)

(** {1 One-shot entry points}

    Each opens a pool of [min jobs n] domains (the calling domain
    included), runs one job on it with {!sched} and closes it. [jobs <= 1]
    or [n <= 1] spawns no domain and runs everything inline in the
    calling domain. *)

val run_sched :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  int ->
  (worker:int -> int -> 'a) ->
  ('a, exn) result array * sched_stats

val run_results :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  int ->
  (int -> 'a) ->
  ('a, exn) result array
(** {!run_sched} without the worker index or the statistics:
    fault-isolating, each task's outcome recorded as [Ok] or [Error]. *)

val run :
  ?spawn:((unit -> unit) -> unit Domain.t) ->
  jobs:int ->
  int ->
  (int -> 'a) ->
  'a array
(** [run ~jobs n f] evaluates [f 0 .. f (n-1)] and returns the results
    in index order. Tasks must not raise for flow control: the first
    exception raised by any task stops every task not yet started, and is
    re-raised in the calling domain once the job is over. *)
