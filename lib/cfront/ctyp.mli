(** C types for the subset front end.

    Types are deliberately coarse: the analyses in the paper only need to
    distinguish pointers from scalars and to know struct field layouts, so we
    keep a structural representation with no qualifiers. *)

type int_size = Ichar | Ishort | Iint | Ilong | Ilonglong
type float_size = Ffloat | Fdouble

type t =
  | Void
  | Int of { signed : bool; size : int_size }
  | Float of float_size
  | Ptr of t
  | Array of t * int option
  | Func of t * t list * bool  (** return, params, variadic *)
  | Struct of string
  | Union of string
  | Enum of string
  | Named of string  (** typedef name, resolved through a {!Ctyping.env} *)
  | Unknown  (** escape hatch: undeclared identifiers, unsupported forms *)

val int_ : t
(** Plain signed [int]. *)

val char_ : t
val unsigned_int : t
val long_ : t
val void_ptr : t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val is_pointer : t -> bool
(** Structural test; arrays also count as pointers (they decay). [Named]
    types must be resolved first (see {!Ctyping.resolve}). *)

val is_scalar : t -> bool
(** Integers, floats, enums, and pointers. *)


val pointee : t -> t
(** [pointee (Ptr t)] is [t]; [Unknown] otherwise. *)
