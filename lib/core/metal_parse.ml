exception Metal_error of Srcloc.t * string

type st = { toks : Clex.token array; mutable idx : int }

let cur st = st.toks.(st.idx)

(* The token [k] past the current one; the last (end of input) past it. *)
let peek st k = st.toks.(min (st.idx + k) (Array.length st.toks - 1)).Clex.tok
let cur_tok st = (cur st).Clex.tok
let cur_loc st = (cur st).Clex.loc
let error st msg = raise (Metal_error (cur_loc st, msg))
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
  | t -> error st (Printf.sprintf "expected identifier, found %s" (Tok.to_string t))

let accept st tok =
  if cur_tok st = tok then begin
    advance st;
    true
  end
  else false

let accept_word st w =
  match cur_tok st with
  | Tok.IDENT s when String.equal s w ->
      advance st;
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Fragments: collect a balanced token run and hand it to the C parser *)
(* ------------------------------------------------------------------ *)

(* Tokens between the just-consumed opening brace and its matching
   closing brace. *)
let collect_braced st =
  let depth = ref 1 in
  let toks = ref [] in
  while !depth > 0 do
    (match cur_tok st with
    | Tok.LBRACE -> incr depth
    | Tok.RBRACE -> decr depth
    | Tok.EOF -> error st "unterminated pattern fragment"
    | _ -> ());
    if !depth > 0 then begin
      toks := cur st :: !toks;
      advance st
    end
    else advance st (* past the closing brace *)
  done;
  List.rev !toks

(* A C expression inside metal: a fragment that does not parse is a metal
   error at the fragment's position. *)
let c_expr toks =
  try Cparse.expr_of_tokens toks
  with Cparse.Parse_error (loc, msg) -> raise (Metal_error (loc, msg))

let fragment_to_expr st (toks : Clex.token list) loc =
  (* drop a trailing semicolon: patterns are often written as statements *)
  let toks =
    match List.rev toks with
    | { Clex.tok = Tok.SEMI; _ } :: rest -> List.rev rest
    | _ -> toks
  in
  match toks with
  | [] -> error st "empty pattern fragment"
  | _ -> (
      let eof = { Clex.tok = Tok.EOF; loc } in
      let e, rest = c_expr (toks @ [ eof ]) in
      match rest with
      | [ { Clex.tok = Tok.EOF; _ } ] | [] -> e
      | t :: _ ->
          raise
            (Metal_error
               ( t.Clex.loc,
                 Printf.sprintf "trailing %s in pattern fragment"
                   (Tok.to_string t.Clex.tok) )))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_hole_type st =
  match cur_tok st with
  | Tok.IDENT name when Option.is_some (Holes.of_name name) ->
      advance st;
      Option.get (Holes.of_name name)
  | _ ->
      (* a C type: base keywords (possibly struct/union tag) then stars *)
      let base =
        match cur_tok st with
        | Tok.KW_VOID ->
            advance st;
            Ctyp.Void
        | Tok.KW_CHAR ->
            advance st;
            Ctyp.char_
        | Tok.KW_INT ->
            advance st;
            Ctyp.int_
        | Tok.KW_LONG ->
            advance st;
            Ctyp.long_
        | Tok.KW_SHORT ->
            advance st;
            Ctyp.Int { signed = true; size = Ctyp.Ishort }
        | Tok.KW_FLOAT ->
            advance st;
            Ctyp.Float Ctyp.Ffloat
        | Tok.KW_DOUBLE ->
            advance st;
            Ctyp.Float Ctyp.Fdouble
        | Tok.KW_UNSIGNED ->
            advance st;
            (match cur_tok st with
            | Tok.KW_INT ->
                advance st;
                Ctyp.unsigned_int
            | Tok.KW_CHAR ->
                advance st;
                Ctyp.Int { signed = false; size = Ctyp.Ichar }
            | Tok.KW_LONG ->
                advance st;
                Ctyp.Int { signed = false; size = Ctyp.Ilong }
            | _ -> Ctyp.unsigned_int)
        | Tok.KW_STRUCT ->
            advance st;
            Ctyp.Struct (eat_ident st)
        | Tok.KW_UNION ->
            advance st;
            Ctyp.Union (eat_ident st)
        | Tok.KW_ENUM ->
            advance st;
            Ctyp.Enum (eat_ident st)
        | Tok.IDENT name ->
            advance st;
            Ctyp.Named name
        | t -> error st (Printf.sprintf "expected hole type, found %s" (Tok.to_string t))
      in
      let rec stars t = if accept st Tok.STAR then stars (Ctyp.Ptr t) else t in
      Holes.Concrete (stars base)

let parse_decl st ~state =
  (* "decl" already consumed *)
  let hole = parse_hole_type st in
  let rec names acc =
    let n = eat_ident st in
    if accept st Tok.COMMA then names (n :: acc) else List.rev (n :: acc)
  in
  let ns = names [] in
  eat st Tok.SEMI;
  { Metal_ast.d_state = state; d_hole = hole; d_names = ns }

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_pattern st = parse_pat_or st

and parse_pat_or st =
  let left = parse_pat_and st in
  if accept st Tok.OROR then Pattern.Por (left, parse_pat_or st) else left

and parse_pat_and st =
  let left = parse_pat_atom st in
  if accept st Tok.ANDAND then Pattern.Pand (left, parse_pat_and st) else left

and parse_pat_atom st =
  let loc = cur_loc st in
  match cur_tok st with
  | Tok.LBRACE ->
      advance st;
      let toks = collect_braced st in
      Pattern.Pexpr (fragment_to_expr st toks loc)
  | Tok.DOLLAR_LBRACE -> (
      advance st;
      let toks = collect_braced st in
      match toks with
      | [ { Clex.tok = Tok.INT_LIT 0L; _ } ] -> Pattern.Pnever
      | [ { Clex.tok = Tok.INT_LIT 1L; _ } ] -> Pattern.Palways
      | _ -> Pattern.Pcallout (fragment_to_expr st toks loc))
  | Tok.DOLLAR_WORD w when String.equal w "end_of_path" ->
      advance st;
      Pattern.Pend_of_path
  | Tok.LPAREN ->
      advance st;
      let p = parse_pattern st in
      eat st Tok.RPAREN;
      p
  | t -> error st (Printf.sprintf "expected pattern, found %s" (Tok.to_string t))

(* ------------------------------------------------------------------ *)
(* Destinations and actions                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_dest st : Metal_ast.dest =
  match cur_tok st with
  | Tok.LBRACE ->
      (* { true = dest, false = dest } *)
      advance st;
      let read_side expected =
        let w = eat_ident st in
        if not (String.equal w expected) then
          error st (Printf.sprintf "expected '%s' in branch destination" expected);
        eat st Tok.ASSIGN;
        parse_dest st
      in
      let t = read_side "true" in
      eat st Tok.COMMA;
      let f = read_side "false" in
      eat st Tok.RBRACE;
      Metal_ast.Dbranch (t, f)
  | Tok.IDENT name ->
      advance st;
      if accept st Tok.DOT then begin
        let statev = eat_ident st in
        Metal_ast.Dvar (name, statev)
      end
      else Metal_ast.Dglobal name
  | t -> error st (Printf.sprintf "expected destination, found %s" (Tok.to_string t))

let parse_action_block st : Metal_ast.action_stmt list =
  (* "{" already consumed; parse "name(args);"* until "}" *)
  let stmts = ref [] in
  while cur_tok st <> Tok.RBRACE do
    let loc = cur_loc st in
    let name = eat_ident st in
    eat st Tok.LPAREN;
    let args = ref [] in
    if cur_tok st <> Tok.RPAREN then begin
      let rec arg_loop () =
        (* each argument is a C expression: collect its tokens up to a
           top-level comma or the closing paren *)
        let depth = ref 0 in
        let toks = ref [] in
        let continue_ = ref true in
        while !continue_ do
          match cur_tok st with
          | Tok.LPAREN ->
              incr depth;
              toks := cur st :: !toks;
              advance st
          | Tok.RPAREN when !depth = 0 -> continue_ := false
          | Tok.RPAREN ->
              decr depth;
              toks := cur st :: !toks;
              advance st
          | Tok.COMMA when !depth = 0 -> continue_ := false
          | Tok.EOF -> error st "unterminated action argument"
          | _ ->
              toks := cur st :: !toks;
              advance st
        done;
        let eof = { Clex.tok = Tok.EOF; loc } in
        let e, _ = c_expr (List.rev !toks @ [ eof ]) in
        args := e :: !args;
        if accept st Tok.COMMA then arg_loop ()
      in
      arg_loop ()
    end;
    eat st Tok.RPAREN;
    eat st Tok.SEMI;
    stmts := { Metal_ast.ac_name = name; ac_args = List.rev !args; ac_loc = loc } :: !stmts
  done;
  eat st Tok.RBRACE;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Rules and clauses                                                   *)
(* ------------------------------------------------------------------ *)

let parse_rule st : Metal_ast.rule =
  let loc = cur_loc st in
  let pattern = parse_pattern st in
  eat st Tok.FAT_ARROW;
  (* rhs: action-only "{...}" that contains statements, or dest
     (possibly a branch "{ true = ..., false = ... }") optionally followed
     by ", { actions }" *)
  let is_branch_brace () =
    (* both action blocks and branch destinations start with '{'; a branch
       destination starts with the word "true" *)
    cur_tok st = Tok.LBRACE
    && (match peek st 1 with Tok.IDENT w -> String.equal w "true" | _ -> false)
    && peek st 2 = Tok.ASSIGN
  in
  let dest, actions =
    if cur_tok st = Tok.LBRACE && not (is_branch_brace ()) then begin
      advance st;
      (Metal_ast.Dnone, parse_action_block st)
    end
    else begin
      let d = parse_dest st in
      let acts =
        if accept st Tok.COMMA then begin
          eat st Tok.LBRACE;
          parse_action_block st
        end
        else []
      in
      (d, acts)
    end
  in
  { Metal_ast.r_pattern = pattern; r_dest = dest; r_actions = actions; r_loc = loc }

let parse_clause st : Metal_ast.clause =
  let first = eat_ident st in
  let source =
    if accept st Tok.DOT then Metal_ast.Svar (first, eat_ident st)
    else Metal_ast.Sglobal first
  in
  eat st Tok.COLON;
  let rules = ref [ parse_rule st ] in
  while accept st Tok.PIPE do
    rules := parse_rule st :: !rules
  done;
  eat st Tok.SEMI;
  { Metal_ast.c_source = source; c_rules = List.rev !rules }

let parse_sm st : Metal_ast.t =
  let loc = cur_loc st in
  if not (accept_word st "sm") then error st "expected 'sm'";
  let name = eat_ident st in
  eat st Tok.LBRACE;
  let decls = ref [] in
  let options = ref [] in
  let clauses = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match cur_tok st with
    | Tok.RBRACE ->
        advance st;
        continue_ := false
    | Tok.IDENT "state" when peek st 1 = Tok.IDENT "decl" ->
        advance st;
        advance st;
        decls := parse_decl st ~state:true :: !decls
    | Tok.IDENT "decl" ->
        advance st;
        decls := parse_decl st ~state:false :: !decls
    | Tok.IDENT "option" ->
        advance st;
        options := eat_ident st :: !options;
        eat st Tok.SEMI
    | Tok.EOF -> error st "unterminated sm definition"
    | _ -> clauses := parse_clause st :: !clauses
  done;
  {
    Metal_ast.sm_name = name;
    sm_decls = List.rev !decls;
    sm_clauses = List.rev !clauses;
    sm_options = List.rev !options;
    sm_loc = loc;
  }

let parse ~file src =
  let toks = Clex.tokenize ~mode:Clex.Metal_mode ~file src in
  let st = { toks = Array.of_list toks; idx = 0 } in
  let sms = ref [] in
  while cur_tok st <> Tok.EOF do
    sms := parse_sm st :: !sms
  done;
  List.rev !sms
