type t =
  | Concrete of Ctyp.t
  | Any_expr
  | Any_scalar
  | Any_pointer
  | Any_arguments
  | Any_fn_call

let of_name = function
  | "any_expr" -> Some Any_expr
  | "any_scalar" -> Some Any_scalar
  | "any_pointer" -> Some Any_pointer
  | "any_arguments" -> Some Any_arguments
  | "any_fn_call" -> Some Any_fn_call
  | _ -> None

let name = function
  | Concrete t -> Ctyp.to_string t
  | Any_expr -> "any_expr"
  | Any_scalar -> "any_scalar"
  | Any_pointer -> "any_pointer"
  | Any_arguments -> "any_arguments"
  | Any_fn_call -> "any_fn_call"

let matches env t (e : Cast.expr) =
  match t with
  | Any_expr -> true
  | Any_scalar -> Ctyping.is_scalar_expr env e
  | Any_pointer -> Ctyping.is_pointer_expr env e
  | Any_fn_call -> ( match e.enode with Cast.Ecall _ -> true | _ -> false)
  | Any_arguments -> false
  | Concrete want -> (
      let got = Ctyping.type_of_expr env e in
      Ctyp.equal got want
      ||
      (* tolerate unknown inferred types: a concrete-typed hole should not
         refuse expressions the light typer cannot classify *)
      match got with Ctyp.Unknown -> true | _ -> false)

