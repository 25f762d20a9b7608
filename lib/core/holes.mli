(** Typed pattern holes (Section 4, Table 1).

    A hole variable declared with [decl] (or [state decl]) can be "filled" by
    any source construct of the appropriate type:

    {v
    Hole Type       Matches
    any C type      any expression of that type
    any_expr        any legal expression
    any_scalar      any scalar value (int, float, etc.)
    any_pointer     any pointer of any type
    any_arguments   any argument list
    any_fn_call     any function call
    v} *)

type t =
  | Concrete of Ctyp.t
  | Any_expr
  | Any_scalar
  | Any_pointer
  | Any_arguments
  | Any_fn_call

val of_name : string -> t option
(** Recognise the meta-type keywords ("any_pointer", "any expr" spelled with
    an underscore, ...). Returns [None] for ordinary type names. *)

val name : t -> string

val matches : Ctyping.env -> t -> Cast.expr -> bool
(** Can this expression fill the hole? [Any_arguments] always answers
    [false] here — argument-list holes are handled structurally by the
    pattern matcher, not per-expression. *)
