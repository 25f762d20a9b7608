(** Callout registry (Section 4).

    "Callouts let programmers extend the matching language ... by writing
    boolean expressions in C code that determine whether a match occurs."
    Our callout bodies are parsed as C expressions whose function calls
    dispatch into this registry of OCaml predicates — the same role the
    paper's "extensive library of functions useful as callouts" plays.

    Callouts can refer to the current program point ([mc_stmt]) and, when
    conjoined with other patterns, to those patterns' hole variables. *)

type value =
  | Vbool of bool
  | Vint of int64
  | Vstr of string
  | Vast of Cast.expr
  | Vargs of Cast.expr list
  | Vunit

type ctx = {
  typing : Ctyping.env;
  node : Cast.expr option;  (** the current program point, [mc_stmt] *)
  annots : int -> string list option;
      (** AST annotations by node id (newest tag first), for composition *)
}

type fn = ctx -> value list -> value

val register : string -> fn -> unit
(** Later registrations shadow earlier ones. *)

val lookup : string -> fn option

val truthy : value -> bool

val names : unit -> string list
(** All registered callout names, sorted. *)

(** The builtin library is registered at module initialisation:
    - [mc_is_call_to(fn, "name")] — is [fn] a call to (or the name of) the
      given function;
    - [mc_identifier(v)] — printed source of the AST bound to [v];
    - [mc_is_constant(e)] / [mc_constant_value(e)];
    - [mc_is_pointer(e)], [mc_is_scalar(e)];
    - [mc_nth_arg(args, n)] — n-th argument of an argument-list hole;
    - [mc_num_args(args)];
    - [mc_contains(haystack, needle)] — AST containment;
    - [mc_annotated(e, "tag")] — was this node annotated by a previously-run
      extension (composition, Section 3.2);
    - [mc_derefs(node, v)] — does [node] read through the pointer [v]
      ([*v], [v->f], [v[i]]) — the full meaning of the paper's [{*v}];
    - [mc_is_ident(e)] — is the bound AST a bare identifier (e.g. to
      restrict tracking to simple locals);
    - [mc_name_contains(e, "substr")] — identifier text test. *)

val install_builtins : unit -> unit
(** Idempotent; called on first use automatically. *)
