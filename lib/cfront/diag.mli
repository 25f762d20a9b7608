(** User-facing warning channel for fault-containment diagnostics.

    Reports on stdout must stay machine-parseable, so every degradation
    notice — skipped definitions, unparseable files, exhausted analysis
    budgets, duplicate definitions — goes through this one function, which
    writes a single [xgcc: warning: ...] line to stderr. Libraries call it
    directly instead of each inventing a logging convention. *)

val warnf : ('a, unit, string, unit) format4 -> 'a
(** [warnf fmt ...] emits one warning line, prefixed with
    [xgcc: warning: ], through the current {!sink}. *)

val sink : (string -> unit) ref
(** Where finished warning lines go. Defaults to stderr
    ([prerr_endline]); tests swap it to capture diagnostics, the CLI
    leaves it alone. The line passed in already carries the prefix.
    Every emission holds an internal mutex across the sink call, so
    warnings from worker domains cannot interleave mid-line and a sink
    swap never catches a warning in flight. *)

val with_sink : (string -> unit) -> (unit -> 'a) -> 'a
(** [with_sink s body] routes every warning emitted during [body] —
    including warnings raised on worker domains — to [s], restoring the
    previous sink afterwards even on exception. The swap happens under
    the emission mutex, so no in-flight warning can land on the old sink
    mid-swap. The serve daemon uses this to give each request its own
    diagnostic buffer instead of leaking warnings into a concurrent
    request's reply. *)
