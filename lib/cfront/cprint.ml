open Cast

(* Precedence levels, higher binds tighter. *)
let binop_prec = function
  | Mul | Div | Mod -> 12
  | Add | Sub -> 11
  | Shl | Shr -> 10
  | Lt | Gt | Le | Ge -> 9
  | Eq | Ne -> 8
  | Band -> 7
  | Bxor -> 6
  | Bor -> 5
  | Land -> 4
  | Lor -> 3

let prec e =
  match e.enode with
  | Eint _ | Efloat _ | Echar _ | Estr _ | Eident _ -> 16
  | Ecall _ | Efield _ | Earrow _ | Eindex _ -> 15
  | Eunary ((Postinc | Postdec), _) -> 15
  | Eunary (_, _) | Ecast _ | Esizeof_expr _ | Esizeof_type _ -> 14
  | Ebinary (o, _, _) -> binop_prec o
  | Econd _ -> 2
  | Eassign _ -> 1
  | Ecomma _ -> 0
  | Einit_list _ -> 16

(* Render the base type and the declarator suffix for C's inside-out
   declaration syntax: [int *x], [int x[10]], [int ( * f)(int)]. We only
   handle the shapes our parser produces. *)
let rec pp_decl_like ppf (t, name) =
  match t with
  | Ctyp.Ptr (Ctyp.Func (r, ps, v)) ->
      let inner = Format.asprintf "(*%s)" name in
      pp_decl_like ppf (Ctyp.Func (r, ps, v), inner)
  | Ctyp.Ptr t -> pp_decl_like ppf (t, "*" ^ name)
  | Ctyp.Array (t, n) ->
      let suffix = match n with None -> "[]" | Some n -> Printf.sprintf "[%d]" n in
      pp_decl_like ppf (t, name ^ suffix)
  | Ctyp.Func (r, ps, variadic) ->
      let params =
        match ps with
        | [] -> "void"
        | ps -> String.concat ", " (List.map Ctyp.to_string ps)
      in
      let params = if variadic then params ^ ", ..." else params in
      pp_decl_like ppf (r, Printf.sprintf "%s(%s)" name params)
  | t -> Format.fprintf ppf "%a %s" Ctyp.pp t name

(* A char or string literal as C spells it: the named escapes C shares
   with OCaml, and a 3-digit octal escape for any other byte outside
   printable ASCII (OCaml's own [\ddd] is decimal, which C reads as
   octal), so printing and reparsing gives back the same bytes. *)
let c_literal quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b quote;
  String.iter
    (function
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.equal c quote ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | ' ' .. '~' as c -> Buffer.add_char b c
      | c -> Printf.bprintf b "\\%03o" (Char.code c))
    s;
  Buffer.add_char b quote;
  Buffer.contents b

let rec pp_expr_prec min_prec ppf e =
  let p = prec e in
  let parens = p < min_prec in
  if parens then Format.pp_print_string ppf "(";
  (match e.enode with
  | Eint n -> Format.pp_print_string ppf (Int64.to_string n)
  | Efloat f -> Format.fprintf ppf "%g" f
  | Echar c -> Format.pp_print_string ppf (c_literal '\'' (String.make 1 c))
  | Estr s -> Format.pp_print_string ppf (c_literal '"' s)
  | Eident x -> Format.pp_print_string ppf x
  | Eunary (Postinc, e1) -> Format.fprintf ppf "%a++" (pp_expr_prec 15) e1
  | Eunary (Postdec, e1) -> Format.fprintf ppf "%a--" (pp_expr_prec 15) e1
  | Eunary (u, e1) -> Format.fprintf ppf "%a%a" pp_unop u (pp_expr_prec 14) e1
  | Ebinary (o, l, r) ->
      let bp = binop_prec o in
      Format.fprintf ppf "%a %a %a" (pp_expr_prec bp) l pp_binop o (pp_expr_prec (bp + 1)) r
  | Eassign (o, l, r) ->
      let op = match o with None -> "=" | Some o -> Format.asprintf "%a=" pp_binop o in
      Format.fprintf ppf "%a %s %a" (pp_expr_prec 2) l op (pp_expr_prec 1) r
  | Ecall (f, args) ->
      Format.fprintf ppf "%a(%a)" (pp_expr_prec 15) f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (pp_expr_prec 1))
        args
  | Efield (e1, f) -> Format.fprintf ppf "%a.%s" (pp_expr_prec 15) e1 f
  | Earrow (e1, f) -> Format.fprintf ppf "%a->%s" (pp_expr_prec 15) e1 f
  | Eindex (a, i) -> Format.fprintf ppf "%a[%a]" (pp_expr_prec 15) a (pp_expr_prec 0) i
  | Ecast (t, e1) -> Format.fprintf ppf "(%a)%a" Ctyp.pp t (pp_expr_prec 14) e1
  | Econd (c, t, f) ->
      Format.fprintf ppf "%a ? %a : %a" (pp_expr_prec 3) c (pp_expr_prec 1) t
        (pp_expr_prec 2) f
  | Ecomma (l, r) -> Format.fprintf ppf "%a, %a" (pp_expr_prec 1) l (pp_expr_prec 0) r
  | Esizeof_type t -> Format.fprintf ppf "sizeof(%a)" Ctyp.pp t
  | Esizeof_expr e1 -> Format.fprintf ppf "sizeof(%a)" (pp_expr_prec 0) e1
  | Einit_list es ->
      Format.fprintf ppf "{ %a }"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (pp_expr_prec 1))
        es);
  if parens then Format.pp_print_string ppf ")"

let pp_expr ppf e = pp_expr_prec 0 ppf e
let expr_to_string e = Format.asprintf "%a" pp_expr e

let pp_decl ppf (d : decl) =
  pp_decl_like ppf (d.dtyp, d.dname);
  match d.dinit with
  | None -> ()
  | Some e -> Format.fprintf ppf " = %a" (pp_expr_prec 1) e

let rec pp_stmt ppf s =
  match s.snode with
  | Sexpr e -> Format.fprintf ppf "@[%a;@]" pp_expr e
  | Sdecl ds ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
        (fun ppf d -> Format.fprintf ppf "@[%a;@]" pp_decl d)
        ppf ds
  | Sif (c, t, None) -> Format.fprintf ppf "@[<v 2>if (%a)@ %a@]" pp_expr c pp_stmt t
  | Sif (c, t, Some e) ->
      (* dangling else: brace the then-branch if a trailing open 'if' inside
         it would otherwise capture our 'else' on reparse *)
      let rec ends_with_open_if s =
        match s.snode with
        | Sif (_, _, None) -> true
        | Sif (_, _, Some e1) -> ends_with_open_if e1
        | Swhile (_, b) | Sfor (_, _, _, b) | Slabel (_, b) -> ends_with_open_if b
        | _ -> false
      in
      if ends_with_open_if t then
        Format.fprintf ppf "@[<v>@[<v 2>if (%a) {@ %a@]@ }@ @[<v 2>else@ %a@]@]"
          pp_expr c pp_stmt t pp_stmt e
      else
        Format.fprintf ppf "@[<v>@[<v 2>if (%a)@ %a@]@ @[<v 2>else@ %a@]@]" pp_expr c
          pp_stmt t pp_stmt e
  | Swhile (c, b) -> Format.fprintf ppf "@[<v 2>while (%a)@ %a@]" pp_expr c pp_stmt b
  | Sdo (b, c) -> Format.fprintf ppf "@[<v 2>do@ %a@]@ while (%a);" pp_stmt b pp_expr c
  | Sfor (init, cond, step, b) ->
      let pp_init ppf = function
        | None -> Format.pp_print_string ppf ";"
        | Some { snode = Sexpr e; _ } -> Format.fprintf ppf "%a;" pp_expr e
        | Some { snode = Sdecl [ d ]; _ } -> Format.fprintf ppf "%a;" pp_decl d
        | Some s -> pp_stmt ppf s
      in
      let pp_opt ppf = function None -> () | Some e -> pp_expr ppf e in
      Format.fprintf ppf "@[<v 2>for (%a %a; %a)@ %a@]" pp_init init pp_opt cond pp_opt
        step pp_stmt b
  | Sreturn None -> Format.pp_print_string ppf "return;"
  | Sreturn (Some e) -> Format.fprintf ppf "return %a;" pp_expr e
  | Sblock ss ->
      Format.fprintf ppf "@[<v 2>{@ %a@]@ }"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_stmt)
        ss
  | Sbreak -> Format.pp_print_string ppf "break;"
  | Scontinue -> Format.pp_print_string ppf "continue;"
  | Sswitch (e, cases) ->
      let pp_case ppf c =
        (match c.case_guard with
        | None -> Format.fprintf ppf "@[<v 2>default:"
        | Some n -> Format.fprintf ppf "@[<v 2>case %Ld:" n);
        List.iter (fun s -> Format.fprintf ppf "@ %a" pp_stmt s) c.case_body;
        Format.fprintf ppf "@]"
      in
      Format.fprintf ppf "@[<v 2>switch (%a) {@ %a@]@ }" pp_expr e
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_case)
        cases
  | Sgoto l -> Format.fprintf ppf "goto %s;" l
  | Slabel (l, s) -> Format.fprintf ppf "@[<v>%s:@ %a@]" l pp_stmt s
  | Snull -> Format.pp_print_string ppf ";"

let pp_body ppf s =
  match s.snode with
  | Sblock ss ->
      Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_stmt ppf ss
  | _ -> pp_stmt ppf s

let pp_fundef ppf f =
  let params =
    match f.fparams with
    | [] -> "void"
    | ps ->
        String.concat ", "
          (List.map (fun (n, t) -> Format.asprintf "%a" pp_decl_like (t, n)) ps)
  in
  let params = if f.fvariadic then params ^ ", ..." else params in
  Format.fprintf ppf "@[<v>%s%a {@;<0 2>@[<v>%a@]@ }@]"
    (if f.fstatic then "static " else "")
    pp_decl_like
    (f.freturn, Printf.sprintf "%s(%s)" f.fname params)
    pp_body f.fbody

let pp_global ppf = function
  | Gfun f -> pp_fundef ppf f
  | Gvar { gdecl; gstatic; _ } ->
      Format.fprintf ppf "@[%s%a"
        (if gstatic then "static " else "")
        pp_decl_like (gdecl.dtyp, gdecl.dname);
      (match gdecl.dinit with
      | None -> ()
      | Some e -> Format.fprintf ppf " = %a" pp_expr e);
      Format.fprintf ppf ";@]"
  | Gtypedef (name, t) -> Format.fprintf ppf "typedef %a;" pp_decl_like (t, name)
  | Gcomposite { ckind; cname; cfields } ->
      let kw = match ckind with `Struct -> "struct" | `Union -> "union" in
      Format.fprintf ppf "@[<v 2>%s %s {" kw cname;
      List.iter
        (fun (n, t) -> Format.fprintf ppf "@ @[%a;@]" pp_decl_like (t, n))
        cfields;
      Format.fprintf ppf "@]@ };"
  | Genum { ename; eitems } ->
      Format.fprintf ppf "@[<v 2>enum %s {" ename;
      List.iter (fun (n, v) -> Format.fprintf ppf "@ %s = %Ld," n v) eitems;
      Format.fprintf ppf "@]@ };"
  | Gproto { pname; ptyp } -> Format.fprintf ppf "@[%a;@]" pp_decl_like (ptyp, pname)
  | Gskipped { sk_name; sk_msg; _ } ->
      Format.fprintf ppf "/* skipped%s: %s */"
        (match sk_name with Some n -> " " ^ n | None -> "")
        sk_msg

let pp_tunit ppf tu =
  Format.fprintf ppf "@[<v>%a@]@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ @ ")
       pp_global)
    tu.tu_globals

let tunit_to_string tu = Format.asprintf "%a" pp_tunit tu
