type int_size = Ichar | Ishort | Iint | Ilong | Ilonglong
type float_size = Ffloat | Fdouble

type t =
  | Void
  | Int of { signed : bool; size : int_size }
  | Float of float_size
  | Ptr of t
  | Array of t * int option
  | Func of t * t list * bool
  | Struct of string
  | Union of string
  | Enum of string
  | Named of string
  | Unknown

let int_ = Int { signed = true; size = Iint }
let char_ = Int { signed = true; size = Ichar }
let unsigned_int = Int { signed = false; size = Iint }
let long_ = Int { signed = true; size = Ilong }
let void_ptr = Ptr Void

let rec equal a b =
  match (a, b) with
  | Void, Void | Unknown, Unknown -> true
  | Int a, Int b -> Bool.equal a.signed b.signed && a.size = b.size
  | Float a, Float b -> a = b
  | Ptr a, Ptr b -> equal a b
  | Array (a, na), Array (b, nb) -> equal a b && Option.equal Int.equal na nb
  | Func (ra, pa, va), Func (rb, pb, vb) ->
      equal ra rb && List.length pa = List.length pb && List.for_all2 equal pa pb
      && Bool.equal va vb
  | Struct a, Struct b | Union a, Union b | Enum a, Enum b | Named a, Named b ->
      String.equal a b
  | ( ( Void | Int _ | Float _ | Ptr _ | Array _ | Func _ | Struct _ | Union _ | Enum _
      | Named _ | Unknown ),
      _ ) ->
      false

let int_size_to_string = function
  | Ichar -> "char"
  | Ishort -> "short"
  | Iint -> "int"
  | Ilong -> "long"
  | Ilonglong -> "long long"

let rec pp ppf = function
  | Void -> Format.pp_print_string ppf "void"
  | Int { signed; size } ->
      if not signed then Format.pp_print_string ppf "unsigned ";
      Format.pp_print_string ppf (int_size_to_string size)
  | Float Ffloat -> Format.pp_print_string ppf "float"
  | Float Fdouble -> Format.pp_print_string ppf "double"
  | Ptr t -> Format.fprintf ppf "%a *" pp t
  | Array (t, None) -> Format.fprintf ppf "%a []" pp t
  | Array (t, Some n) -> Format.fprintf ppf "%a [%d]" pp t n
  | Func (r, ps, variadic) ->
      let pp_params ppf = function
        | [] -> Format.pp_print_string ppf "void"
        | ps ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
              pp ppf ps
      in
      Format.fprintf ppf "%a (%a%s)" pp r pp_params ps (if variadic then ", ..." else "")
  | Struct s -> Format.fprintf ppf "struct %s" s
  | Union s -> Format.fprintf ppf "union %s" s
  | Enum s -> Format.fprintf ppf "enum %s" s
  | Named s -> Format.pp_print_string ppf s
  | Unknown -> Format.pp_print_string ppf "?"

let to_string t = Format.asprintf "%a" pp t

let is_pointer = function Ptr _ | Array _ -> true | _ -> false

let is_scalar = function
  | Int _ | Float _ | Enum _ | Ptr _ | Array _ -> true
  | Void | Func _ | Struct _ | Union _ | Named _ | Unknown -> false

let pointee = function Ptr t -> t | Array (t, _) -> t | _ -> Unknown
