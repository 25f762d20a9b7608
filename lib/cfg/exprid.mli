(** Hash-consed expression identity.

    Every distinct expression key ({!Cast.key_of_expr}) gets a dense
    integer id. The base table is built once in {!Supergraph.build} over
    every subexpression of every CFG event plus an identifier node per
    declared name, then shared read-only across engine worker domains
    (like {!Flat.t}). Per-traversal {!ctx} views layer a private overflow
    table on top for synthesized trees (refine/restore substitutions).

    Identity is key identity: [id ctx a = id ctx b] iff
    [Cast.key_of_expr a = Cast.key_of_expr b]. Ids are
    equality tokens only — never compare them for order (overflow minting
    order is scheduling-dependent); order observable output by rendered
    {!key} instead. *)

type t
(** The frozen base table (safe to share across domains). *)

type ctx
(** A single-traversal view: base + private overflow. Not thread-safe;
    overflow ids are private to the minting context (an id minted by one
    context is unknown to {!key} in another, though never equal to any id
    that other context mints). *)

val build : tunits:Cast.tunit list -> cfgs:Cfg.t list -> t
val empty : unit -> t

val n : t -> int
(** Number of base ids; base ids are dense in [\[0, n)]. *)

val table_bytes : t -> int
(** Approximate live size of the base table, for the --stats memory line. *)

val make_ctx : t -> ctx
(** A fresh view over a frozen base table, with an empty overflow. *)

val id : ctx -> Cast.expr -> int
(** The id of an expression: one integer hash lookup for program nodes
    (eid memo), at most one key rendering per distinct synthesized tree.
    [test/test_state_ids.ml] checks id equality against
    {!Cast.key_of_expr} equality directly, over both kinds. *)

val key : ctx -> int -> string
(** Rendered key of an id known to this context (base or own overflow).
    The returned string is shared, not rebuilt, per distinct id.
    @raise Not_found on another context's overflow id. *)

val find_key : ctx -> int -> string option
