(** Per-block head-constructor summaries for transition dispatch.

    Every node event a block can produce is statically known (the engine
    visits block elements' subexpressions in execution order), so each
    block gets a compact summary of the root constructors that appear in
    it: a bitmask over non-call shapes plus the set of known callee names.
    The dispatch layer ({!module:Dispatch} in the engine library) compares
    an extension's pattern-root requirements against these summaries to
    skip blocks that cannot fire any transition.

    The summary must stay in lockstep with the engine's event generation:
    a declaration with an initialiser is visited as a synthesised
    assignment [x = init] (contributing an identifier and an assignment
    head on top of the initialiser's own nodes), and branch conditions,
    switch scrutinees and returned expressions are visited like any block
    element. *)

type shape =
  | Sassign
  | Sderef  (** unary [*] — kept apart from other unaries because
                dereference patterns ([{ *v }]) are common in checkers *)
  | Sunary
  | Sbinary
  | Scast
  | Scond
  | Scomma
  | Sfield
  | Sarrow
  | Sindex
  | Sident
  | Slit  (** int/float/char/string literals *)
  | Ssizeof
  | Sinit  (** brace initialiser *)
  | Scall_other  (** call through a computed callee expression *)

val n_shapes : int

val all_shapes : shape list
(** Every shape, in [shape_code] order. *)

val shape_code : shape -> int
(** Dense code in [0, n_shapes): bit position in summary masks. *)

val shape_name : shape -> string

(** The root constructor of a subject node, as dispatch discriminates it:
    calls to a known name are keyed by callee, everything else by shape. *)
type head = Named_call of string | Shape of shape

val head_of : Cast.expr -> head

val shape_code_of : Cast.expr -> int
(** Allocation-free [head_of] for per-node hot paths: the shape code
    directly, with every call (named or computed) mapping to
    [Scall_other]. Callers that key on callee names match
    [Ecall (Eident f, _)] themselves first. *)

type t = {
  mask : int;  (** bit [shape_code s] set iff some node has shape [s] *)
  calls : string list;  (** sorted, distinct callee names of named calls *)
}

val empty : t
val has_shape : t -> shape -> bool

val of_block : Block.t -> t
val of_cfg : Cfg.t -> t array
