(** Callgraph over defined functions (Section 6, preprocessing pass 2).

    "Functions with no callers are considered roots. When computing roots,
    recursive call chains are broken arbitrarily": after taking all
    caller-less functions as roots, any function still unreachable (because
    it only appears in call cycles) donates one representative per cycle as
    an extra root. *)

type t

val build : Cast.fundef list -> t

val callees : t -> string -> string list
(** Distinct names of defined functions called from the body (call order,
    deduplicated). *)

val callers : t -> string -> string list
val roots : t -> string list
val is_defined : t -> string -> bool
val functions : t -> string list

val in_cycle : t -> string -> bool
(** Whether the function participates in a recursive call chain. *)

val acyclic_heights : t -> string -> int option
(** [acyclic_heights t] precomputes, for every defined function, the
    longest chain of calls below it: [Some 0] for a function that calls
    no defined function, [Some (1 + max over callees)] otherwise, and
    [None] when the function's transitive callee closure touches a
    recursive cycle (no finite height exists). Heights order the
    callgraph bottom-up: the persistent cache's cutoff pass computes
    every callee's canonical summary before any caller's key needs it.
    Returns [None] for undefined names. *)

val closures : t -> string -> string list
(** [closures t] precomputes, for every defined function, its transitive
    callee closure (itself included) in sorted name order — the set of
    functions whose behaviour a traversal entered at it can observe.
    The persistent summary cache folds a fingerprint per closure member
    into each cache key, so editing a member invalidates exactly the
    member and its transitive callers. The returned lookup falls back to
    the singleton [[f]] for undefined names. *)

val release_schedule : t -> string list array
(** [release_schedule t] assigns every defined function to the last root,
    in {!roots} order, whose transitive callee closure contains it: slot
    [i] lists the functions that no traversal entered at a root after the
    [i]-th can reach, so a driver that runs the roots in order can drop
    their per-function state as soon as root [i] finishes. One walk over
    the graph, linear in its functions and call edges. *)

val pp : Format.formatter -> t -> unit
