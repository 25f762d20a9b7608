type elem =
  | Tree of Cast.expr
  | Decl of Cast.decl
  | End_of_scope of string list

type terminator =
  | Jump of int
  | Branch of Cast.expr * int * int
  | Switch of Cast.expr * (int64 option * int) list
  | Return of Cast.expr option
  | Exit

type t = {
  bid : int;
  mutable elems : elem list;
  mutable term : terminator;
  mutable havoc : string list;
  mutable bloc : Srcloc.t;
}

let pp_elem ppf = function
  | Tree e -> Format.fprintf ppf "%a;" Cprint.pp_expr e
  | Decl d -> (
      Format.fprintf ppf "%a %s" Ctyp.pp d.Cast.dtyp d.Cast.dname;
      match d.Cast.dinit with
      | None -> Format.fprintf ppf ";"
      | Some e -> Format.fprintf ppf " = %a;" Cprint.pp_expr e)
  | End_of_scope vars ->
      Format.fprintf ppf "/* end of scope: %s */" (String.concat ", " vars)

let pp_terminator ppf = function
  | Jump b -> Format.fprintf ppf "goto B%d" b
  | Branch (c, t, f) -> Format.fprintf ppf "if (%a) B%d else B%d" Cprint.pp_expr c t f
  | Switch (e, arms) ->
      Format.fprintf ppf "switch (%a):" Cprint.pp_expr e;
      List.iter
        (fun (g, b) ->
          match g with
          | None -> Format.fprintf ppf " default->B%d" b
          | Some v -> Format.fprintf ppf " %Ld->B%d" v b)
        arms
  | Return None -> Format.fprintf ppf "return"
  | Return (Some e) -> Format.fprintf ppf "return %a" Cprint.pp_expr e
  | Exit -> Format.fprintf ppf "exit"

let pp ppf b =
  Format.fprintf ppf "@[<v 2>B%d:" b.bid;
  if b.havoc <> [] then
    Format.fprintf ppf "@ /* havoc: %s */" (String.concat ", " b.havoc);
  List.iter (fun e -> Format.fprintf ppf "@ %a" pp_elem e) b.elems;
  Format.fprintf ppf "@ %a@]" pp_terminator b.term
