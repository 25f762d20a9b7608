(** A miniature C preprocessor.

    The original xgcc sat behind gcc's cpp, so every checker matched
    {e post-expansion} code — kernel idioms like
    [#define KFREE(p) do { kfree(p); } while (0)] still triggered the free
    checker. This module provides the subset of cpp that systems-code
    idioms need:

    - object-like and function-like [#define] (textual substitution with
      balanced-parenthesis argument parsing, recursive expansion with a
      self-reference guard), [#undef];
    - [#ifdef] / [#ifndef] / [#else] / [#endif], plus [#if] / [#elif]
      over integer constant expressions. [defined(X)] / [defined X] are
      resolved and macros expanded first; the text is then parsed by the
      C expression grammar ({!Cparse.expr_of_string}, so literals and
      escapes read exactly as in code) and folded: integer and character
      literals, the unary and binary operators and [?:], with [&&] and
      [||] short-circuiting. Identifiers that survive expansion evaluate
      to 0, as in C. Expressions inside inactive regions are not
      evaluated. A condition that cannot be evaluated — a lex or parse
      error, division or modulo by zero, any other construct — degrades
      to false with one {!Diag.warnf} warning at the directive's line
      instead of raising, so one bad [#if] cannot kill the translation
      unit;
    - [#include "file"] through a caller-supplied resolver;
    - line continuations, and comment/string protection (no expansion
      inside string or character literals, or comments).

    Not supported (and silently skipped as directives): [#pragma],
    [#error], token pasting [##], stringising [#], variadic macros. *)

type macro = {
  m_params : string list option;  (** [None] for object-like macros *)
  m_body : string;
}

type env

val env_of_defines : (string * string) list -> env
(** [("NAME", "body")] pairs become object-like macros; a name containing
    ["("] such as ["MAX(a,b)"] defines a function-like macro. *)

exception Cpp_error of Srcloc.t * string

val preprocess :
  ?defines:(string * string) list ->
  ?resolve_include:(string -> string option) ->
  file:string ->
  string ->
  string
(** Expand the source text. Unresolvable includes are replaced by a comment
    (the paper's engine likewise "silently continues" past missing
    definitions). Line counts are preserved for directive lines so source
    locations stay meaningful. *)

val expand_line : env -> string -> string
(** Macro-expand one logical line (exposed for tests). *)
