exception Parse_error of Srcloc.t * string

type st = {
  toks : Clex.token array;
  mutable idx : int;
  typedefs : (string, Ctyp.t) Hashtbl.t;
  enum_consts : (string, int64) Hashtbl.t;
  file : string;
  mutable anon : int;  (* anonymous aggregates named so far in this unit *)
}

let make_state ?(typedefs = []) ~file toks =
  let st =
    {
      toks = Array.of_list toks;
      idx = 0;
      typedefs = Hashtbl.create 16;
      enum_consts = Hashtbl.create 16;
      file;
      anon = 0;
    }
  in
  List.iter (fun (n, t) -> Hashtbl.replace st.typedefs n t) typedefs;
  st

(* An anonymous struct, union or enum is named by its rank in the unit
   and the unit's file: unique across units, and a function of the unit's
   text alone, whatever else the process parsed before. *)
let anon_name st =
  st.anon <- st.anon + 1;
  Printf.sprintf "<anon%d:%s>" st.anon st.file

let cur st = st.toks.(st.idx)
let cur_tok st = (cur st).Clex.tok
let cur_loc st = (cur st).Clex.loc

let peek_tok st n =
  let i = st.idx + n in
  if i < Array.length st.toks then st.toks.(i).Clex.tok else Tok.EOF

let error st msg = raise (Parse_error (cur_loc st, msg))
let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let eat st tok =
  if cur_tok st = tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Tok.to_string tok)
         (Tok.to_string (cur_tok st)))

let eat_ident st =
  match cur_tok st with
  | Tok.IDENT s ->
      advance st;
      s
  | t -> error st (Printf.sprintf "expected identifier but found %s" (Tok.to_string t))

let accept st tok =
  if cur_tok st = tok then begin
    advance st;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Type parsing                                                        *)
(* ------------------------------------------------------------------ *)

let is_base_type_tok = function
  | Tok.KW_VOID | Tok.KW_CHAR | Tok.KW_SHORT | Tok.KW_INT | Tok.KW_LONG | Tok.KW_FLOAT
  | Tok.KW_DOUBLE | Tok.KW_SIGNED | Tok.KW_UNSIGNED | Tok.KW_STRUCT | Tok.KW_UNION
  | Tok.KW_ENUM ->
      true
  | _ -> false

let is_qualifier_tok = function
  | Tok.KW_CONST | Tok.KW_VOLATILE | Tok.KW_STATIC | Tok.KW_EXTERN | Tok.KW_INLINE
  | Tok.KW_REGISTER | Tok.KW_AUTO ->
      true
  | _ -> false

let is_type_start st =
  let t = cur_tok st in
  is_base_type_tok t || is_qualifier_tok t || t = Tok.KW_TYPEDEF
  || match t with Tok.IDENT s -> Hashtbl.mem st.typedefs s | _ -> false

(* Parameter names are dropped from Ctyp.Func; function definitions need
   them, so the declarator parser records the most recent (outermost)
   named parameter list here. Domain-local so concurrent parses (parallel
   pass-1 emission) don't clobber each other's in-flight declarator. *)
let last_named_params_key : (string * Ctyp.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let last_named_params () = Domain.DLS.get last_named_params_key

type specifiers = {
  spec_typ : Ctyp.t;
  spec_static : bool;
  spec_typedef : bool;
  spec_new_globals : Cast.global list;  (** struct/enum bodies defined inline *)
}

(* Parse declaration specifiers: qualifiers, storage classes and one base
   type. Also handles inline struct/union/enum definitions, returning them
   so the caller can register globals. *)
let rec parse_specifiers st =
  let static = ref false in
  let is_typedef = ref false in
  let signedness = ref None in
  let size_words = ref [] in
  let base = ref None in
  let new_globals = ref [] in
  let rec loop () =
    match cur_tok st with
    | Tok.KW_CONST | Tok.KW_VOLATILE | Tok.KW_INLINE | Tok.KW_REGISTER | Tok.KW_AUTO ->
        advance st;
        loop ()
    | Tok.KW_STATIC ->
        advance st;
        static := true;
        loop ()
    | Tok.KW_EXTERN ->
        advance st;
        loop ()
    | Tok.KW_TYPEDEF ->
        advance st;
        is_typedef := true;
        loop ()
    | Tok.KW_SIGNED ->
        advance st;
        signedness := Some true;
        loop ()
    | Tok.KW_UNSIGNED ->
        advance st;
        signedness := Some false;
        loop ()
    | Tok.KW_SHORT ->
        advance st;
        size_words := `Short :: !size_words;
        loop ()
    | Tok.KW_LONG ->
        advance st;
        size_words := `Long :: !size_words;
        loop ()
    | Tok.KW_VOID ->
        advance st;
        base := Some Ctyp.Void;
        loop ()
    | Tok.KW_CHAR ->
        advance st;
        base := Some (Ctyp.Int { signed = true; size = Ctyp.Ichar });
        loop ()
    | Tok.KW_INT ->
        advance st;
        base := Some Ctyp.int_;
        loop ()
    | Tok.KW_FLOAT ->
        advance st;
        base := Some (Ctyp.Float Ctyp.Ffloat);
        loop ()
    | Tok.KW_DOUBLE ->
        advance st;
        base := Some (Ctyp.Float Ctyp.Fdouble);
        loop ()
    | Tok.KW_STRUCT | Tok.KW_UNION ->
        let kind = if cur_tok st = Tok.KW_STRUCT then `Struct else `Union in
        advance st;
        let name =
          match cur_tok st with
          | Tok.IDENT s ->
              advance st;
              s
          | _ -> anon_name st
        in
        if cur_tok st = Tok.LBRACE then begin
          advance st;
          let fields = ref [] in
          while cur_tok st <> Tok.RBRACE do
            let spec = parse_specifiers st in
            let rec fields_loop () =
              let fname, ftyp = parse_declarator st spec.spec_typ in
              fields := (fname, ftyp) :: !fields;
              if accept st Tok.COMMA then fields_loop ()
            in
            fields_loop ();
            eat st Tok.SEMI
          done;
          eat st Tok.RBRACE;
          new_globals :=
            Cast.Gcomposite { ckind = kind; cname = name; cfields = List.rev !fields }
            :: !new_globals
        end;
        base := Some (match kind with `Struct -> Ctyp.Struct name | `Union -> Ctyp.Union name);
        loop ()
    | Tok.KW_ENUM ->
        advance st;
        let name =
          match cur_tok st with
          | Tok.IDENT s ->
              advance st;
              s
          | _ -> anon_name st
        in
        if cur_tok st = Tok.LBRACE then begin
          advance st;
          let items = ref [] in
          let next = ref 0L in
          while cur_tok st <> Tok.RBRACE do
            let item = eat_ident st in
            let value =
              if accept st Tok.ASSIGN then begin
                match cur_tok st with
                | Tok.INT_LIT n ->
                    advance st;
                    n
                | Tok.MINUS ->
                    advance st;
                    let n =
                      match cur_tok st with
                      | Tok.INT_LIT n ->
                          advance st;
                          n
                      | _ -> error st "expected integer in enum initializer"
                    in
                    Int64.neg n
                | Tok.IDENT other when Hashtbl.mem st.enum_consts other ->
                    advance st;
                    Hashtbl.find st.enum_consts other
                | _ -> error st "expected constant in enum initializer"
              end
              else !next
            in
            next := Int64.add value 1L;
            Hashtbl.replace st.enum_consts item value;
            items := (item, value) :: !items;
            if (not (accept st Tok.COMMA)) && cur_tok st <> Tok.RBRACE then
              error st "expected ',' or '}' in enum body"
          done;
          eat st Tok.RBRACE;
          new_globals := Cast.Genum { ename = name; eitems = List.rev !items } :: !new_globals
        end;
        base := Some (Ctyp.Enum name);
        loop ()
    | Tok.IDENT s when !base = None && !size_words = [] && !signedness = None
                       && Hashtbl.mem st.typedefs s ->
        advance st;
        base := Some (Ctyp.Named s);
        loop ()
    | _ -> ()
  in
  loop ();
  let typ =
    match (!base, !size_words, !signedness) with
    | Some (Ctyp.Int { size = Ctyp.Ichar; _ }), [], Some s ->
        Ctyp.Int { signed = s; size = Ctyp.Ichar }
    | Some t, [], None -> t
    | Some (Ctyp.Int _), words, s | None, ((_ :: _) as words), s ->
        let signed = Option.value s ~default:true in
        let size =
          match words with
          | [ `Short ] -> Ctyp.Ishort
          | [ `Long ] -> Ctyp.Ilong
          | [ `Long; `Long ] -> Ctyp.Ilonglong
          | _ -> Ctyp.Iint
        in
        Ctyp.Int { signed; size }
    | Some (Ctyp.Float Ctyp.Fdouble), [ `Long ], _ -> Ctyp.Float Ctyp.Fdouble
    | Some t, _, _ -> t
    | None, [], Some s -> Ctyp.Int { signed = s; size = Ctyp.Iint }
    | None, [], None -> Ctyp.int_
  in
  {
    spec_typ = typ;
    spec_static = !static;
    spec_typedef = !is_typedef;
    spec_new_globals = List.rev !new_globals;
  }

(* Declarator: pointers, then a direct declarator, then array/function
   suffixes. Returns (name, type). [name] is "" for abstract declarators. *)
and parse_declarator st base =
  let base = parse_pointers st base in
  parse_direct_declarator st base

and parse_pointers st base =
  if accept st Tok.STAR then begin
    let rec quals () =
      match cur_tok st with
      | Tok.KW_CONST | Tok.KW_VOLATILE ->
          advance st;
          quals ()
      | _ -> ()
    in
    quals ();
    parse_pointers st (Ctyp.Ptr base)
  end
  else base

and parse_direct_declarator st base =
  (* Either IDENT, or ( declarator ) for function pointers, or abstract. *)
  match cur_tok st with
  | Tok.IDENT name ->
      advance st;
      let typ = parse_declarator_suffixes st base in
      (name, typ)
  | Tok.LPAREN when peek_tok st 1 = Tok.STAR ->
      (* "( * name)(params)" or "( * name)[n]": parse inner, apply suffixes to base *)
      advance st;
      let inner_base_marker = Ctyp.Unknown in
      let name, inner = parse_declarator st inner_base_marker in
      eat st Tok.RPAREN;
      let typ = parse_declarator_suffixes st base in
      (* Replace the marker inside [inner] with [typ]. *)
      let rec plug t =
        match t with
        | Ctyp.Unknown -> typ
        | Ctyp.Ptr t -> Ctyp.Ptr (plug t)
        | Ctyp.Array (t, n) -> Ctyp.Array (plug t, n)
        | Ctyp.Func (r, ps, v) -> Ctyp.Func (plug r, ps, v)
        | t -> t
      in
      (name, plug inner)
  | _ ->
      (* abstract declarator *)
      let typ = parse_declarator_suffixes st base in
      ("", typ)

and parse_declarator_suffixes st base =
  match cur_tok st with
  | Tok.LBRACKET ->
      advance st;
      let n =
        match cur_tok st with
        | Tok.INT_LIT n ->
            advance st;
            Some (Int64.to_int n)
        | Tok.IDENT s when Hashtbl.mem st.enum_consts s ->
            advance st;
            Some (Int64.to_int (Hashtbl.find st.enum_consts s))
        | _ -> None
      in
      eat st Tok.RBRACKET;
      let inner = parse_declarator_suffixes st base in
      Ctyp.Array (inner, n)
  | Tok.LPAREN ->
      advance st;
      let params, variadic = parse_params st in
      eat st Tok.RPAREN;
      last_named_params () := params;
      Ctyp.Func (base, List.map snd params, variadic)
  | _ -> base

and parse_params st =
  if cur_tok st = Tok.RPAREN then ([], false)
  else if cur_tok st = Tok.KW_VOID && peek_tok st 1 = Tok.RPAREN then begin
    advance st;
    ([], false)
  end
  else begin
    let params = ref [] in
    let variadic = ref false in
    let rec loop () =
      if cur_tok st = Tok.ELLIPSIS then begin
        advance st;
        variadic := true
      end
      else begin
        let spec = parse_specifiers st in
        let name, typ = parse_declarator st spec.spec_typ in
        params := (name, typ) :: !params;
        if accept st Tok.COMMA then loop ()
      end
    in
    loop ();
    (List.rev !params, !variadic)
  end

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk st loc enode = ignore st; Cast.mk_expr ~loc enode

(* Does a '(' at the current position start a cast / type, i.e. is the next
   token a type-start? *)
let lparen_is_type st =
  cur_tok st = Tok.LPAREN
  &&
  match peek_tok st 1 with
  | t when is_base_type_tok t -> true
  | Tok.KW_CONST | Tok.KW_VOLATILE -> true
  | Tok.IDENT s -> Hashtbl.mem st.typedefs s
  | _ -> false

let rec parse_expr st : Cast.expr =
  let e = parse_assign st in
  if cur_tok st = Tok.COMMA then begin
    let loc = cur_loc st in
    advance st;
    let rhs = parse_expr st in
    mk st loc (Cast.Ecomma (e, rhs))
  end
  else e

and parse_assign st =
  let lhs = parse_cond st in
  let mk_assign op =
    let loc = cur_loc st in
    advance st;
    let rhs = parse_assign st in
    mk st loc (Cast.Eassign (op, lhs, rhs))
  in
  match cur_tok st with
  | Tok.ASSIGN -> mk_assign None
  | Tok.PLUS_ASSIGN -> mk_assign (Some Cast.Add)
  | Tok.MINUS_ASSIGN -> mk_assign (Some Cast.Sub)
  | Tok.STAR_ASSIGN -> mk_assign (Some Cast.Mul)
  | Tok.SLASH_ASSIGN -> mk_assign (Some Cast.Div)
  | Tok.PERCENT_ASSIGN -> mk_assign (Some Cast.Mod)
  | Tok.AMP_ASSIGN -> mk_assign (Some Cast.Band)
  | Tok.PIPE_ASSIGN -> mk_assign (Some Cast.Bor)
  | Tok.CARET_ASSIGN -> mk_assign (Some Cast.Bxor)
  | Tok.SHL_ASSIGN -> mk_assign (Some Cast.Shl)
  | Tok.SHR_ASSIGN -> mk_assign (Some Cast.Shr)
  | _ -> lhs

and parse_cond st =
  let c = parse_binary st 3 in
  if cur_tok st = Tok.QUESTION then begin
    let loc = cur_loc st in
    advance st;
    let t = parse_assign st in
    eat st Tok.COLON;
    let f = parse_cond st in
    mk st loc (Cast.Econd (c, t, f))
  end
  else c

and binop_of_tok = function
  | Tok.STAR -> Some (Cast.Mul, 12)
  | Tok.SLASH -> Some (Cast.Div, 12)
  | Tok.PERCENT -> Some (Cast.Mod, 12)
  | Tok.PLUS -> Some (Cast.Add, 11)
  | Tok.MINUS -> Some (Cast.Sub, 11)
  | Tok.SHL -> Some (Cast.Shl, 10)
  | Tok.SHR -> Some (Cast.Shr, 10)
  | Tok.LT -> Some (Cast.Lt, 9)
  | Tok.GT -> Some (Cast.Gt, 9)
  | Tok.LE -> Some (Cast.Le, 9)
  | Tok.GE -> Some (Cast.Ge, 9)
  | Tok.EQEQ -> Some (Cast.Eq, 8)
  | Tok.NEQ -> Some (Cast.Ne, 8)
  | Tok.AMP -> Some (Cast.Band, 7)
  | Tok.CARET -> Some (Cast.Bxor, 6)
  | Tok.PIPE -> Some (Cast.Bor, 5)
  | Tok.ANDAND -> Some (Cast.Land, 4)
  | Tok.OROR -> Some (Cast.Lor, 3)
  | _ -> None

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_tok (cur_tok st) with
    | Some (op, prec) when prec >= min_prec ->
        let loc = cur_loc st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := mk st loc (Cast.Ebinary (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Tok.PLUS ->
      advance st;
      parse_unary st
  | Tok.MINUS ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Neg, parse_unary st))
  | Tok.BANG ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Lognot, parse_unary st))
  | Tok.TILDE ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Bitnot, parse_unary st))
  | Tok.STAR ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Deref, parse_unary st))
  | Tok.AMP ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Addrof, parse_unary st))
  | Tok.PLUSPLUS ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Preinc, parse_unary st))
  | Tok.MINUSMINUS ->
      advance st;
      mk st loc (Cast.Eunary (Cast.Predec, parse_unary st))
  | Tok.KW_SIZEOF ->
      advance st;
      if lparen_is_type st then begin
        advance st;
        let spec = parse_specifiers st in
        let _, typ = parse_declarator st spec.spec_typ in
        eat st Tok.RPAREN;
        mk st loc (Cast.Esizeof_type typ)
      end
      else mk st loc (Cast.Esizeof_expr (parse_unary st))
  | Tok.LPAREN when lparen_is_type st ->
      advance st;
      let spec = parse_specifiers st in
      let _, typ = parse_declarator st spec.spec_typ in
      eat st Tok.RPAREN;
      mk st loc (Cast.Ecast (typ, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let loc = cur_loc st in
    match cur_tok st with
    | Tok.LPAREN ->
        advance st;
        let args = ref [] in
        if cur_tok st <> Tok.RPAREN then begin
          let rec loop () =
            args := parse_assign st :: !args;
            if accept st Tok.COMMA then loop ()
          in
          loop ()
        end;
        eat st Tok.RPAREN;
        e := mk st loc (Cast.Ecall (!e, List.rev !args))
    | Tok.LBRACKET ->
        advance st;
        let i = parse_expr st in
        eat st Tok.RBRACKET;
        e := mk st loc (Cast.Eindex (!e, i))
    | Tok.DOT ->
        advance st;
        let f = eat_ident st in
        e := mk st loc (Cast.Efield (!e, f))
    | Tok.ARROW ->
        advance st;
        let f = eat_ident st in
        e := mk st loc (Cast.Earrow (!e, f))
    | Tok.PLUSPLUS ->
        advance st;
        e := mk st loc (Cast.Eunary (Cast.Postinc, !e))
    | Tok.MINUSMINUS ->
        advance st;
        e := mk st loc (Cast.Eunary (Cast.Postdec, !e))
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Tok.INT_LIT n ->
      advance st;
      mk st loc (Cast.Eint n)
  | Tok.FLOAT_LIT f ->
      advance st;
      mk st loc (Cast.Efloat f)
  | Tok.CHAR_LIT c ->
      advance st;
      mk st loc (Cast.Echar c)
  | Tok.STR_LIT s ->
      advance st;
      (* adjacent string literal concatenation *)
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf s;
      let rec more () =
        match cur_tok st with
        | Tok.STR_LIT s2 ->
            advance st;
            Buffer.add_string buf s2;
            more ()
        | _ -> ()
      in
      more ();
      mk st loc (Cast.Estr (Buffer.contents buf))
  | Tok.IDENT x ->
      advance st;
      mk st loc (Cast.Eident x)
  | Tok.LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st Tok.RPAREN;
      e
  | Tok.LBRACE ->
      (* brace initializer in expression position *)
      advance st;
      let items = ref [] in
      if cur_tok st <> Tok.RBRACE then begin
        let rec loop () =
          items := parse_assign st :: !items;
          if accept st Tok.COMMA && cur_tok st <> Tok.RBRACE then loop ()
        in
        loop ()
      end;
      eat st Tok.RBRACE;
      mk st loc (Cast.Einit_list (List.rev !items))
  | t -> error st (Printf.sprintf "unexpected token %s in expression" (Tok.to_string t))

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let unop_value op v =
  match op with
  | Cast.Neg -> Some (Int64.neg v)
  | Cast.Lognot -> Some (if Int64.equal v 0L then 1L else 0L)
  | Cast.Bitnot -> Some (Int64.lognot v)
  | _ -> None

let binop_value op a b =
  let bool_ c = Some (if c then 1L else 0L) in
  match op with
  | Cast.Add -> Some (Int64.add a b)
  | Cast.Sub -> Some (Int64.sub a b)
  | Cast.Mul -> Some (Int64.mul a b)
  | Cast.Div -> if Int64.equal b 0L then None else Some (Int64.div a b)
  | Cast.Mod -> if Int64.equal b 0L then None else Some (Int64.rem a b)
  | Cast.Shl -> Some (Int64.shift_left a (Int64.to_int b land 63))
  | Cast.Shr -> Some (Int64.shift_right a (Int64.to_int b land 63))
  | Cast.Lt -> bool_ (Int64.compare a b < 0)
  | Cast.Gt -> bool_ (Int64.compare a b > 0)
  | Cast.Le -> bool_ (Int64.compare a b <= 0)
  | Cast.Ge -> bool_ (Int64.compare a b >= 0)
  | Cast.Eq -> bool_ (Int64.equal a b)
  | Cast.Ne -> bool_ (not (Int64.equal a b))
  | Cast.Band -> Some (Int64.logand a b)
  | Cast.Bor -> Some (Int64.logor a b)
  | Cast.Bxor -> Some (Int64.logxor a b)
  | Cast.Land -> bool_ ((not (Int64.equal a 0L)) && not (Int64.equal b 0L))
  | Cast.Lor -> bool_ ((not (Int64.equal a 0L)) || not (Int64.equal b 0L))

let rec const_eval (e : Cast.expr) : int64 option =
  let ( let* ) = Option.bind in
  match e.enode with
  | Cast.Eint n -> Some n
  | Cast.Echar c -> Some (Int64.of_int (Char.code c))
  | Cast.Eunary (op, e1) ->
      let* v = const_eval e1 in
      unop_value op v
  | Cast.Ebinary (op, l, r) ->
      let* a = const_eval l in
      let* b = const_eval r in
      binop_value op a b
  | Cast.Ecast (_, e1) -> const_eval e1
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let mk_stmt loc snode = Cast.mk_stmt ~loc snode

let rec parse_stmt st : Cast.stmt =
  let loc = cur_loc st in
  match cur_tok st with
  | Tok.SEMI ->
      advance st;
      mk_stmt loc Cast.Snull
  | Tok.LBRACE ->
      advance st;
      let stmts = parse_stmt_list st in
      eat st Tok.RBRACE;
      mk_stmt loc (Cast.Sblock stmts)
  | Tok.KW_IF ->
      advance st;
      eat st Tok.LPAREN;
      let c = parse_expr st in
      eat st Tok.RPAREN;
      let t = parse_stmt st in
      let e = if accept st Tok.KW_ELSE then Some (parse_stmt st) else None in
      mk_stmt loc (Cast.Sif (c, t, e))
  | Tok.KW_WHILE ->
      advance st;
      eat st Tok.LPAREN;
      let c = parse_expr st in
      eat st Tok.RPAREN;
      let b = parse_stmt st in
      mk_stmt loc (Cast.Swhile (c, b))
  | Tok.KW_DO ->
      advance st;
      let b = parse_stmt st in
      eat st Tok.KW_WHILE;
      eat st Tok.LPAREN;
      let c = parse_expr st in
      eat st Tok.RPAREN;
      eat st Tok.SEMI;
      mk_stmt loc (Cast.Sdo (b, c))
  | Tok.KW_FOR ->
      advance st;
      eat st Tok.LPAREN;
      let init =
        if cur_tok st = Tok.SEMI then begin
          advance st;
          None
        end
        else if is_type_start st then begin
          let s = parse_declaration_stmt st in
          Some s
        end
        else begin
          let e = parse_expr st in
          eat st Tok.SEMI;
          Some (mk_stmt loc (Cast.Sexpr e))
        end
      in
      let cond = if cur_tok st = Tok.SEMI then None else Some (parse_expr st) in
      eat st Tok.SEMI;
      let step = if cur_tok st = Tok.RPAREN then None else Some (parse_expr st) in
      eat st Tok.RPAREN;
      let b = parse_stmt st in
      mk_stmt loc (Cast.Sfor (init, cond, step, b))
  | Tok.KW_RETURN ->
      advance st;
      let e = if cur_tok st = Tok.SEMI then None else Some (parse_expr st) in
      eat st Tok.SEMI;
      mk_stmt loc (Cast.Sreturn e)
  | Tok.KW_BREAK ->
      advance st;
      eat st Tok.SEMI;
      mk_stmt loc Cast.Sbreak
  | Tok.KW_CONTINUE ->
      advance st;
      eat st Tok.SEMI;
      mk_stmt loc Cast.Scontinue
  | Tok.KW_GOTO ->
      advance st;
      let l = eat_ident st in
      eat st Tok.SEMI;
      mk_stmt loc (Cast.Sgoto l)
  | Tok.KW_SWITCH ->
      advance st;
      eat st Tok.LPAREN;
      let e = parse_expr st in
      eat st Tok.RPAREN;
      eat st Tok.LBRACE;
      let cases = ref [] in
      while cur_tok st <> Tok.RBRACE do
        let guard =
          match cur_tok st with
          | Tok.KW_CASE ->
              advance st;
              let ce = parse_cond st in
              let v =
                match const_eval ce with
                | Some v -> v
                | None -> (
                    match ce.enode with
                    | Cast.Eident s when Hashtbl.mem st.enum_consts s ->
                        Hashtbl.find st.enum_consts s
                    | _ -> error st "case label is not a constant")
              in
              eat st Tok.COLON;
              Some v
          | Tok.KW_DEFAULT ->
              advance st;
              eat st Tok.COLON;
              None
          | _ -> error st "expected case or default in switch body"
        in
        let body = ref [] in
        while
          cur_tok st <> Tok.KW_CASE && cur_tok st <> Tok.KW_DEFAULT
          && cur_tok st <> Tok.RBRACE
        do
          body := parse_stmt st :: !body
        done;
        cases := { Cast.case_guard = guard; case_body = List.rev !body } :: !cases
      done;
      eat st Tok.RBRACE;
      mk_stmt loc (Cast.Sswitch (e, List.rev !cases))
  | Tok.IDENT l when peek_tok st 1 = Tok.COLON && not (Hashtbl.mem st.typedefs l) ->
      advance st;
      advance st;
      let s = parse_stmt st in
      mk_stmt loc (Cast.Slabel (l, s))
  | _ when is_type_start st -> parse_declaration_stmt st
  | _ ->
      let e = parse_expr st in
      eat st Tok.SEMI;
      mk_stmt loc (Cast.Sexpr e)

and parse_stmt_list st =
  let stmts = ref [] in
  while cur_tok st <> Tok.RBRACE && cur_tok st <> Tok.EOF do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

and parse_declaration_stmt st =
  let loc = cur_loc st in
  let spec = parse_specifiers st in
  let decls = ref [] in
  let rec loop () =
    let name, typ = parse_declarator st spec.spec_typ in
    let init =
      if accept st Tok.ASSIGN then Some (parse_assign_or_init st) else None
    in
    if spec.spec_typedef then Hashtbl.replace st.typedefs name typ
    else decls := { Cast.dname = name; dtyp = typ; dinit = init } :: !decls;
    if accept st Tok.COMMA then loop ()
  in
  loop ();
  eat st Tok.SEMI;
  mk_stmt loc (Cast.Sdecl (List.rev !decls))

and parse_assign_or_init st =
  if cur_tok st = Tok.LBRACE then parse_primary st else parse_assign st

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_global st : Cast.global list =
  let loc = cur_loc st in
  let spec = parse_specifiers st in
  let emitted = spec.spec_new_globals in
  (* A bare "struct foo { ... };" or "enum e {...};" *)
  if cur_tok st = Tok.SEMI then begin
    advance st;
    emitted
  end
  else begin
    let name, typ = parse_declarator st spec.spec_typ in
    if spec.spec_typedef then begin
      Hashtbl.replace st.typedefs name typ;
      eat st Tok.SEMI;
      emitted @ [ Cast.Gtypedef (name, typ) ]
    end
    else
      match (typ, cur_tok st) with
      | Ctyp.Func (ret, _, variadic), Tok.LBRACE ->
          (* We must re-derive named params: re-parse is awkward, so
             parse_declarator keeps names via parse_params — but the type
             dropped them. We recover them by re-walking the token span is
             overkill; instead parse_params stored names in [last_params]. *)
          let params = !(last_named_params ()) in
          advance st;
          let body_stmts = parse_stmt_list st in
          eat st Tok.RBRACE;
          let body = Cast.mk_stmt ~loc (Cast.Sblock body_stmts) in
          emitted
          @ [
              Cast.Gfun
                {
                  fname = name;
                  freturn = ret;
                  fparams = params;
                  fvariadic = variadic;
                  fbody = body;
                  floc = loc;
                  ffile = st.file;
                  fstatic = spec.spec_static;
                };
            ]
      | Ctyp.Func _, _ ->
          eat st Tok.SEMI;
          emitted @ [ Cast.Gproto { pname = name; ptyp = typ } ]
      | _, _ ->
          let globals = ref emitted in
          let init =
            if accept st Tok.ASSIGN then Some (parse_assign_or_init st) else None
          in
          globals :=
            !globals
            @ [
                Cast.Gvar
                  {
                    gdecl = { Cast.dname = name; dtyp = typ; dinit = init };
                    gloc = loc;
                    gfile = st.file;
                    gstatic = spec.spec_static;
                  };
              ];
          while accept st Tok.COMMA do
            let name, typ = parse_declarator st spec.spec_typ in
            let init =
              if accept st Tok.ASSIGN then Some (parse_assign_or_init st) else None
            in
            globals :=
              !globals
              @ [
                  Cast.Gvar
                    {
                      gdecl = { Cast.dname = name; dtyp = typ; dinit = init };
                      gloc = loc;
                      gfile = st.file;
                      gstatic = spec.spec_static;
                    };
                ]
          done;
          eat st Tok.SEMI;
          !globals
  end

(* --- Error recovery (fault containment) ---------------------------- *)

(* After a parse error, resynchronize at the next plausible top-level
   boundary: scanning from the *start* of the failed definition, consume
   tokens until a ';' at brace depth 0 or the '}' that closes the
   outermost brace. Restarting from the definition's first token (rather
   than the error point) makes the depth count meaningful — an error
   inside a function body still skips exactly to that body's closing
   brace. Every branch below advances, so the scan terminates. *)
let synchronize st =
  let depth = ref 0 in
  let stop = ref false in
  while not !stop do
    match cur_tok st with
    | Tok.EOF -> stop := true
    | Tok.LBRACE ->
        incr depth;
        advance st
    | Tok.RBRACE ->
        decr depth;
        advance st;
        if !depth <= 0 then begin
          (* "struct s { ... };" — fold a trailing ';' into the skip *)
          ignore (accept st Tok.SEMI);
          stop := true
        end
    | Tok.SEMI ->
        advance st;
        if !depth <= 0 then stop := true
    | _ -> advance st
  done

(* Best-effort name for the skip diagnostic: the first identifier that
   looks like a declarator head (directly followed by '('), else the
   first identifier at all. *)
let guess_skipped_name st ~lo ~hi =
  let name = ref None and fn = ref None in
  for i = lo to hi - 1 do
    match st.toks.(i).Clex.tok with
    | Tok.IDENT s ->
        if !name = None then name := Some s;
        if !fn = None && i + 1 < hi && st.toks.(i + 1).Clex.tok = Tok.LPAREN then
          fn := Some s
    | _ -> ()
  done;
  match !fn with Some _ as v -> v | None -> !name

let parse_tunit ~file src =
  let toks = Clex.tokenize ~file src in
  let st = make_state ~file toks in
  let globals = ref [] in
  while cur_tok st <> Tok.EOF do
    let start_idx = st.idx in
    let from_loc = cur_loc st in
    match parse_global st with
    | gs -> globals := !globals @ gs
    | exception Parse_error (eloc, msg) ->
        (* Drop the broken definition, keep the rest of the unit: record
           a stub carrying the skipped range and the error so pass 2 can
           report per-function skip diagnostics instead of dying. *)
        st.idx <- start_idx;
        synchronize st;
        let last = max start_idx (st.idx - 1) in
        let sk =
          {
            Cast.sk_name = guess_skipped_name st ~lo:start_idx ~hi:st.idx;
            sk_from = from_loc;
            sk_to = st.toks.(last).Clex.loc;
            sk_msg = Printf.sprintf "%s: %s" (Srcloc.to_string eloc) msg;
          }
        in
        globals := !globals @ [ Cast.Gskipped sk ];
        (* guarantee progress even when the error is on the very token
           the scan would stop at *)
        if st.idx = start_idx then advance st
  done;
  { Cast.tu_file = file; tu_globals = !globals }

let parse_tunit_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_tunit ~file:path src

let expr_of_tokens ?typedefs toks =
  let st = make_state ?typedefs ~file:"<expr>" toks in
  let e = parse_expr st in
  let rest = Array.to_list (Array.sub st.toks st.idx (Array.length st.toks - st.idx)) in
  (e, rest)

let expr_of_string ?typedefs ~file src =
  let toks = Clex.tokenize ~file src in
  let st = make_state ?typedefs ~file toks in
  let e = parse_expr st in
  if cur_tok st <> Tok.EOF then error st "trailing tokens after expression";
  e
