(** The supergraph: whole-program view combining every function's CFG with
    the callgraph (Section 6).

    The paper builds the supergraph by adding entry/exit nodes per routine
    and splitting callsites into call/return-site node pairs. Our CFGs
    already carry a distinguished entry and exit node; callsite/return-site
    splitting is realised operationally by the engine, which suspends block
    traversal at a call tree and resumes just after it, so the "only
    intraprocedural successor of [cp] is [rp]" invariant holds by
    construction. *)

type t = {
  cfgs : (string, Cfg.t) Hashtbl.t;
  callgraph : Callgraph.t;
  typing : Ctyping.env;
  tunits : Cast.tunit list;
  flat : Flat.t;
      (** flat int-indexed tables over every block of every function —
          dense flat block ids, CSR successors, head masks and
          precomputed per-block event sequences; see {!Flat} *)
  ids : Exprid.t;
      (** hash-consed expression identity: a dense integer id per
          distinct expression key of the program, built eagerly and
          shared read-only across domains; see {!Exprid} *)
  body_hashes : (string, Fingerprint.t Lazy.t) Hashtbl.t;
      (** read through {!body_hash} *)
  positions : Annot_pos.t Lazy.t;  (** read through {!positions} *)
}

val build : ?prev:t -> Cast.tunit list -> t
(** Pass 2 of Section 6: collect every function definition, build CFGs, the
    callgraph, and a global typing environment.

    If the same function name is defined more than once across the input
    units, the first definition (in input order) wins everywhere — CFG
    table and callgraph alike — and a warning naming both locations goes
    to the uniform stderr diagnostics channel ({!Diag.warnf});
    previously later definitions silently replaced earlier ones in the
    CFG table while the callgraph still saw every body.

    {!Cast.Gskipped} stubs left by parser error recovery contribute no
    CFG and no callgraph node — calls to a skipped name are unknown
    calls, the conservative model — and each stub is reported through
    {!Diag.warnf} here, the chokepoint every driver path shares.

    [prev] is the supergraph of the previous pass over an edit of the same
    program (the daemon's last re-check). Each definition that is
    physically [prev]'s keeps [prev]'s CFG and body hash, and the position
    index of {!positions} is [prev]'s, updated in place for the
    definitions that changed ({!Annot_pos.build}). [prev] must not be used
    afterwards. The callgraph, typing environment, {!Flat} and {!Exprid}
    tables are always rebuilt: their dense ids span the whole program. *)

val body_hash : t -> string -> Fingerprint.t option
(** The digest of a defined function's binary AST ({!Cast_io.global_to_bin},
    salted with {!Cast_io.cache_version}), the own-body part of its cache
    keys. Computed on first use and carried by {!build}'s [prev]; an
    uncached run never computes one. Call it from the calling domain
    only. *)

val positions : t -> Annot_pos.t
(** The position index of the program's expression nodes, built on first
    use (only cached runs use it) and carried by {!build}'s [prev]. Call
    it from the calling domain only. *)

val cfg_of : t -> string -> Cfg.t option

val fundef_of : t -> string -> Cast.fundef option
val roots : t -> string list

val file_of_function : t -> string -> string option
(** Which translation unit defines the function (for the file-scope
    refine/restore rules of Section 6.1). *)

val pp : Format.formatter -> t -> unit
