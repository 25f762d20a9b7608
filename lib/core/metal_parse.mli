(** Parser for metal source text (see {!Metal_ast} for the grammar). *)

exception Metal_error of Srcloc.t * string

val parse : file:string -> string -> Metal_ast.t list
(** Parse every [sm] definition in the text. Raises {!Metal_error}, also
    for a malformed embedded C fragment, or {!Clex.Lex_error}. *)
