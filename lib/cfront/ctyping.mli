(** Light type inference for the C subset.

    metal's typed holes (Table 1: [any_pointer], [any_scalar], a concrete C
    type, ...) need to know the type of candidate expressions. This module
    provides a best-effort, scope-insensitive environment: all of a
    function's locals are visible at once. That is enough for pattern
    matching — shadowing across inner scopes is rare in the systems code the
    paper targets and only affects hole typing, never correctness of the
    engine itself. *)

type env

val empty : env

val of_program : Cast.tunit list -> env
(** Collect typedefs, struct/union fields, enum constants, global variables
    and function signatures from every translation unit. *)

val add_tunit : env -> Cast.tunit -> env

val enter_function : env -> Cast.fundef -> env
(** Extend with the function's parameters and every local declared anywhere
    in its body. *)

val resolve : env -> Ctyp.t -> Ctyp.t
(** Unfold typedef names to their definitions (cycle-safe). *)

val lookup_var : env -> string -> Ctyp.t option

val lookup_global_info : env -> string -> (string * bool) option
(** For file-scope rules (Section 6.1): [(defining_file, is_static)] for a
    global variable, [None] for locals/unknowns. *)

val lookup_function : env -> string -> Ctyp.t option
(** Type of a named function ([Ctyp.Func _]), if declared or defined. *)

val fundefs : env -> Cast.fundef list

val type_of_expr : env -> Cast.expr -> Ctyp.t
(** Best-effort type of an expression; [Ctyp.Unknown] when undetermined. *)

val is_pointer_expr : env -> Cast.expr -> bool
(** After resolving typedefs; string literals and [&e] count as pointers, and
    expressions of [Unknown] type conservatively do {e not} count. *)

val is_scalar_expr : env -> Cast.expr -> bool
