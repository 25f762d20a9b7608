(** Recursive-descent parser for the C subset.

    The parser keeps a typedef environment so that [T *x;] parses as a
    declaration when [T] is a known typedef, and an enum-constant environment
    for constant folding of [case] labels. metal pattern fragments reuse
    [expr_of_tokens]/[stmt_of_tokens] with the pattern's hole variables
    pre-registered as ordinary identifiers. *)

exception Parse_error of Srcloc.t * string

val parse_tunit : file:string -> string -> Cast.tunit
(** Parse a whole translation unit from source text, with error recovery:
    a parse error inside one top-level definition does not abort the unit.
    The parser resynchronizes at the next top-level boundary (a [;] or the
    closing [}] at brace depth 0, scanning from the failed definition's
    first token) and records a {!Cast.Gskipped} stub carrying the skipped
    source range and the error message, then keeps parsing. Only lexer
    errors ({!Clex.Lex_error}) still abort the whole unit — there is no
    token stream to resynchronize on.

    The single-fragment entry points below ({!expr_of_string},
    {!expr_of_tokens}) deliberately stay strict and raise {!Parse_error}:
    metal pattern compilation must reject bad patterns, and the
    preprocessor warns about a bad [#if] condition, instead of silently
    skipping them. *)

val parse_tunit_file : string -> Cast.tunit
(** Read a file from disk and parse it (same error recovery). *)

val expr_of_string : ?typedefs:(string * Ctyp.t) list -> file:string -> string -> Cast.expr
(** Parse a single expression (comma allowed). Used by tests, by the metal
    pattern compiler and by {!Cpp} for [#if]/[#elif] conditions. *)

val expr_of_tokens :
  ?typedefs:(string * Ctyp.t) list -> Clex.token list -> Cast.expr * Clex.token list
(** Parse one expression from a token stream, returning unconsumed tokens
    (the terminating [EOF] token always remains). *)

val const_eval : Cast.expr -> int64 option
(** Best-effort constant folding over integer expressions. *)

val unop_value : Cast.unop -> int64 -> int64 option
(** The value of [-], [!] or [~] applied to a constant; [None] for the
    other operators. *)

val binop_value : Cast.binop -> int64 -> int64 -> int64 option
(** The value of a binary operator applied to two constants (shift
    counts taken modulo 64); [None] for division or modulo by zero. *)
