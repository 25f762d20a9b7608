(** Intern tables: dense integer ids for state-tuple components.

    The traversal hot path ({!Engine}'s block-cache probes, edge dedup,
    and suffix-summary relaxation) used to render every state tuple to a
    string ([Printf.sprintf]) and hash it on each probe. This module maps
    the components — gstates, instance values, expression keys — to dense
    ints ({e atoms}) and full tuples to the atom id of their rendered key,
    so each distinct tuple is rendered at most once and every subsequent
    probe is an integer hash lookup.

    A tuple id equals the atom id of its rendered key, so id equality is
    exactly rendered-key equality — the identity the string-keyed
    representation used, which is what keeps reports, counters and
    serialised summaries byte-identical.

    One interner lives per analysis context ({!Engine}) and is never
    shared across domains. At [-j 1] the run's single context covers every
    root of every extension; at [-j N] and in cached runs each worker's
    root context, and each shared-unit or canonical scratch context, has
    its own.

    {!atom} remembers the last two strings it resolved (by physical
    identity) and {!tuple} the last packed triple, so the traversal's
    repeated probes of the same components skip the hash tables. A memo
    hit returns exactly the table's id, because an interner is used by
    one context on one domain, OCaml strings are immutable, and ids are
    never reassigned. *)

type t

val create : ?n_exprs:int -> unit -> t
(** [n_exprs] sizes the dense expression-id cache behind {!eatom} (pass
    the supergraph's [Exprid.n]; overflow ids hash into a side table). *)

val atom : t -> string -> int
(** Intern a string, returning its dense id (stable for the life of the
    interner). A string physically equal to one of the last two resolved
    is answered from the memo; an equal copy resolves through the table
    to the same id. *)

val name : t -> int -> string
(** The string behind an atom id (array read). *)

val eatom : t -> int -> (unit -> string) -> int
(** [eatom t id render] is the atom of the expression with hash-consed id
    [id], calling [render] (the key rendering) only on the first probe of
    that id under this interner. This replaced the per-instance
    stamp-validated cache: the mapping lives with the interner, so
    instances carry only their int id. *)

val no_var : int
(** Pseudo-atom for the [<>] placeholder component of a tuple. *)

val tuple : t -> g:int -> vkey:int -> vval:int -> int
(** Id of the state tuple [(g, vkey->vval)] — or [(g, <>)] when [vkey] is
    {!no_var}. Renders the tuple key (exactly as [Summary.tuple_key] does)
    on first sight only; later probes pack the component ids into one
    immediate int and allocate nothing (components beyond 2^20-1 spill to
    a boxed-triple table with identical semantics). *)

val n_atoms : t -> int
val n_tuples : t -> int
(** Table sizes, for [--stats]. *)
