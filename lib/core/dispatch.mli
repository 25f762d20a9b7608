(** Compiled transition dispatch (head-constructor indexing).

    [compile] turns an extension's transition list into a form the engine
    can probe in O(candidates) per node instead of O(transitions):
    per-transition metadata precomputed once, a discrimination index from
    the subject node's root constructor to the transitions whose pattern
    root could possibly match it, and per-block skip sets derived from
    {!Block_heads} summaries.

    The index is sound because {!Pattern.match_expr} compares a non-hole
    pattern root literally against the subject's root constructor (subject
    casts are stripped only at hole positions): a call pattern [f(...)]
    with a concrete callee matches only calls to [f], a deref pattern only
    deref nodes, and so on. Hole-rooted and callout-only patterns can
    match anything and live in a wildcard fallback list appended to every
    bucket. Candidate lists preserve declaration order, so
    first-match-wins semantics — and therefore reports — are identical to
    a scan of the full transition list. [test/test_dispatch.ml] checks
    the soundness half of that claim directly on every test corpus:
    every transition whose pattern matches a node is among the node's
    {!candidates}, and the node's block is {!block_live_flat}. *)

type ctr = {
  c_tr : Sm.transition;
  c_src_var : string option;  (** [Src_var v] source value *)
  c_src_global : string option;  (** [Src_global g] source value *)
  c_src_global_code : int;
      (** interned {!state_code} of [c_src_global]; -1 when the source is
          not global *)
  c_call_model : Pattern.t option;
      (** the sub-pattern matched at nodes for callsite modelling
          (Section 6); [None] when the pattern cannot model a call *)
  c_holes : (string * Holes.t) list;
      (** the extension's hole environment restricted to holes the
          pattern mentions *)
  c_mentions_svar : bool;  (** pattern mentions the state variable *)
  c_matches_node : bool;  (** {!Pattern.can_match_node} *)
  c_matches_eop : bool;  (** {!Pattern.can_match_end_of_path} *)
}

type bucket = {
  b_trs : int array;
      (** candidate transition indices, declaration order *)
  b_any_model : bool;  (** some candidate has a callsite model *)
  b_has_var : bool;  (** some candidate has a [Src_var] source *)
  b_globals : string array;
      (** distinct [Src_global] source states of the candidates *)
  b_global_codes : int array;
      (** the same states as interned {!state_code}s, index-aligned with
          [b_globals] — the engine's prescan compares ints *)
}
(** A candidate list plus the prescan facts the engine needs before
    touching any transition, precomputed so the per-node no-match check
    is field reads instead of a per-transition loop. *)

type t

val compile : sg:Supergraph.t -> Sm.t -> t
(** Compile an extension against a supergraph: per-transition metadata,
    the head index and the block skip set. The skip set is computed
    eagerly over the supergraph's flat block table, so the returned value
    is immutable and safe to share read-only across engine worker
    domains — the parallel scheduler compiles each extension once and
    hands every worker the same [t]. *)

val transitions : t -> ctr array

val states : t -> string array
(** The extension's statically known state values, coded densely in
    declaration order: code 0 is reserved for {!Sm.stop_value}, then the
    start state, then every source and destination value of the
    transition list. Runtime [set_global] actions can write strings
    outside this set, so [Sm.sm_inst] keeps gstates as strings and codes
    are resolved by content at comparison boundaries. *)

val state_code : t -> string -> int
(** The dense code of a state value, or -1 when the string is outside the
    static state table (a runtime-synthesised gstate that matches no
    static source). Two states compare equal iff their codes do and
    neither is -1. *)

val all_node : t -> int array
(** Indices (in declaration order) of transitions that can match node
    events at all. The engine counts an [index hits] event whenever a
    node's candidate list is strictly shorter. *)

val candidates : t -> Cast.expr -> bucket
(** The bucket whose [b_trs] holds indices of transitions whose pattern
    root could match this node, sorted in declaration order; a superset
    of the transitions that actually match, a subset of [all_node]. *)

val eop_var : t -> int array
(** Variable-source transitions that can match end-of-path events. *)

val eop_global : t -> int array
(** Global-source transitions that can match end-of-path events. *)

val block_live_flat : t -> int -> bool
(** Could any transition of this extension match any node of the block
    with this flat id ({!Supergraph}[.flat])? [false] lets the engine
    skip [apply_transitions] for the whole block; end-of-path and write
    handling are unaffected. The id must be in range: every function the
    engine traverses has a flat base.
    @raise Invalid_argument on an out-of-range id. *)

(** {1 Callsite modelling} *)

val expr_shape_is_call : Cast.expr -> bool
(** Does the expression's value come from a call? Looks through
    assignment and cast chains, comma right-hand sides and both
    conditional arms. *)

val pattern_models_call : Pattern.t -> bool

val call_model : Pattern.t -> Pattern.t option
(** The sub-pattern to match at nodes for callsite modelling: call-shaped
    disjuncts and callouts survive, other disjuncts are dropped (a bare
    hole must not suppress following a call it incidentally matches);
    conjunctions are kept whole. [None] when nothing call-shaped
    remains. *)

(** {1 Classification (exposed for tests)} *)

type classified =
  | Wildcard
      (** matches via the fallback list: hole-rooted or callout-only *)
  | Rooted of {
      shapes : Block_heads.shape list;
      calls : string list;
      any_call : bool;
    }

val classify : holes:(string * Holes.t) list -> Pattern.t -> classified
(** How the index classifies a pattern's root. [Rooted] with all fields
    empty means the pattern can never match a node event. *)
