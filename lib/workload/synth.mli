(** Parametric synthetic programs for the benchmark harness.

    Each generator returns C source text exercising one scaling dimension of
    the engine:

    - {!diamond_chain}: [n] sequential if/else diamonds — [2^n] paths, so it
      separates caching (linear) from naive path DFS (exponential)
      (Section 5.2, claim P2);
    - {!many_tracked}: [n] pointers freed then used — cost must scale
      linearly in the number of tracked instances thanks to SM independence
      (Section 5.2, claim P1);
    - {!call_chain} / {!call_tree}: deep and wide callgraphs with a shared
      helper called from every leaf — function summaries must collapse the
      re-analysis (Section 6.2, claim P3);
    - {!correlated_branches}: [n] pairs of contradictory conditions in the
      style of Figure 2 — false-path pruning kills the false positives
      (Section 8, claim P4). *)

val diamond_chain : n:int -> string
(** One function: a freed pointer flows through [n] diamonds, then is
    dereferenced (one true error). *)

val many_tracked : n:int -> string
(** One function with [n] pointers, each freed then dereferenced
    ([n] true errors). *)

val call_chain : depth:int -> string
(** [f0] calls [f1] calls ... [f_depth]; the leaf frees its argument; the
    root dereferences after the call (one interprocedural error). *)

val call_tree : depth:int -> fanout:int -> string
(** A complete call tree; every leaf calls one shared helper that frees its
    argument. Summary reuse makes this linear in the number of functions. *)

val sched_corpus : n_roots:int -> light:int -> heavy:int -> string
(** The parallel scheduler's stress shape: [n_roots] independent roots,
    each reaching one hot shared leaf ([hub], which frees its argument)
    through a private two-arm diamond, so every root ends in one
    use-after-free report. Private cost is uneven — the mid-list root
    carries [heavy] if/else diamonds, the others [light] — which defeats
    static contiguous chunking (one chunk inherits the whole imbalance);
    a work-stealing schedule moves the heavy root to a free domain. *)

val correlated_branches : n:int -> string
(** [n] Figure-2-style pairs [if (x) { kfree(p_i); } ... if (!x) *p_i]
    — all uses are on infeasible paths (zero true errors; a path-insensitive
    analysis reports [n] false positives). *)

val kill_workload : n:int -> string
(** [n] functions that free a pointer, {e reassign it}, then use it — the
    idiom kill-on-redefinition exists for ("the single most important
    technique for suppressing false positives", Section 8). Zero true
    errors; without the kill analysis every function reports one. *)

val no_match_heavy : n_funcs:int -> stmts:int -> string
(** [n_funcs] functions of [stmts] statements of pure arithmetic, field,
    array and branch traffic — no calls, no pointers any checker tracks,
    zero reports. Every node event is a non-match, so this corpus isolates
    the per-node cost of transition dispatch: the head index and block
    skip sets should make it near-free, while the naive scan pays a full
    pattern walk per transition per node. *)

val lock_workload : n_funcs:int -> bug_every:int -> string
(** Functions acquiring and releasing a lock; every [bug_every]-th function
    forgets the release on an error path. *)
