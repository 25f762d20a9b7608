exception Lex_error of Srcloc.t * string

type mode = C_mode | Metal_mode
type token = { tok : Tok.t; loc : Srcloc.t }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let loc_of st = Srcloc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)
let error st msg = raise (Lex_error (loc_of st, msg))
let len st = String.length st.src
let at_end st = st.pos >= len st
let peek st = if at_end st then '\000' else st.src.[st.pos]
let peek2 st = if st.pos + 1 >= len st then '\000' else st.src.[st.pos + 1]
let peek3 st = if st.pos + 2 >= len st then '\000' else st.src.[st.pos + 2]

let advance st =
  if not (at_end st) then begin
    if Char.equal st.src.[st.pos] '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.equal c '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  if at_end st then ()
  else
    match peek st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '/' when Char.equal (peek2 st) '/' ->
        while (not (at_end st)) && not (Char.equal (peek st) '\n') do
          advance st
        done;
        skip_trivia st
    | '/' when Char.equal (peek2 st) '*' ->
        advance st;
        advance st;
        let rec close () =
          if at_end st then error st "unterminated comment"
          else if Char.equal (peek st) '*' && Char.equal (peek2 st) '/' then begin
            advance st;
            advance st
          end
          else begin
            advance st;
            close ()
          end
        in
        close ();
        skip_trivia st
    | '#' when st.pos = st.bol || only_blank_before st ->
        (* preprocessor directive: skip the whole (possibly continued) line *)
        let rec to_eol () =
          if at_end st then ()
          else if Char.equal (peek st) '\\' && Char.equal (peek2 st) '\n' then begin
            advance st;
            advance st;
            to_eol ()
          end
          else if Char.equal (peek st) '\n' then advance st
          else begin
            advance st;
            to_eol ()
          end
        in
        to_eol ();
        skip_trivia st

    | _ -> ()

and only_blank_before st =
  let rec check i =
    if i >= st.pos then true
    else
      match st.src.[i] with ' ' | '\t' -> check (i + 1) | _ -> false
  in
  check st.bol

let lex_ident st =
  let start = st.pos in
  while (not (at_end st)) && is_ident_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let lex_number st =
  let start = st.pos in
  let is_hex_lit =
    Char.equal (peek st) '0' && (Char.equal (peek2 st) 'x' || Char.equal (peek2 st) 'X')
  in
  if is_hex_lit then begin
    advance st;
    advance st;
    while (not (at_end st)) && is_hex st.src.[st.pos] do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    (* swallow integer suffixes *)
    while (not (at_end st)) && (match peek st with 'u' | 'U' | 'l' | 'L' -> true | _ -> false) do
      advance st
    done;
    try Tok.INT_LIT (Int64.of_string text)
    with _ -> error st ("bad hex literal " ^ text)
  end
  else begin
    while (not (at_end st)) && is_digit (peek st) do
      advance st
    done;
    let is_float =
      (Char.equal (peek st) '.' && is_digit (peek2 st))
      || Char.equal (peek st) 'e'
      || Char.equal (peek st) 'E'
    in
    if is_float then begin
      if Char.equal (peek st) '.' then begin
        advance st;
        while (not (at_end st)) && is_digit (peek st) do
          advance st
        done
      end;
      if Char.equal (peek st) 'e' || Char.equal (peek st) 'E' then begin
        advance st;
        if Char.equal (peek st) '+' || Char.equal (peek st) '-' then advance st;
        while (not (at_end st)) && is_digit (peek st) do
          advance st
        done
      end;
      let text = String.sub st.src start (st.pos - start) in
      (match peek st with 'f' | 'F' | 'l' | 'L' -> advance st | _ -> ());
      try Tok.FLOAT_LIT (float_of_string text)
      with _ -> error st ("bad float literal " ^ text)
    end
    else begin
      let text = String.sub st.src start (st.pos - start) in
      while
        (not (at_end st)) && (match peek st with 'u' | 'U' | 'l' | 'L' -> true | _ -> false)
      do
        advance st
      done;
      (* octal literals: leading 0 *)
      let text =
        if String.length text > 1 && Char.equal text.[0] '0' then "0o" ^ String.sub text 1 (String.length text - 1)
        else text
      in
      try Tok.INT_LIT (Int64.of_string text)
      with _ -> error st ("bad integer literal " ^ text)
    end
  end

let is_octal c = c >= '0' && c <= '7'

let hex_value c =
  if is_digit c then Char.code c - Char.code '0'
  else Char.code (Char.lowercase_ascii c) - Char.code 'a' + 10

(* One escape sequence, from the backslash. Octal escapes take one to
   three digits and hex escapes every hex digit that follows [\x], as in
   C; a value past 255 keeps its low byte (gcc warns and does the same).
   [\x] with no hex digit, and unknown escapes, stand for the character
   itself. *)
let lex_escape st =
  advance st;
  (* past backslash *)
  let c = peek st in
  advance st;
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | 'a' -> '\007'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'v' -> '\011'
  | '0' .. '7' ->
      let v = ref (Char.code c - Char.code '0') in
      for _ = 1 to 2 do
        if is_octal (peek st) then begin
          v := (!v * 8) + Char.code (peek st) - Char.code '0';
          advance st
        end
      done;
      Char.chr (!v land 0xff)
  | 'x' when is_hex (peek st) ->
      let v = ref 0 in
      while is_hex (peek st) do
        v := ((!v * 16) + hex_value (peek st)) land 0xff;
        advance st
      done;
      Char.chr !v
  | c -> c

let lex_string st =
  advance st;
  (* past opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated string literal"
    else
      match peek st with
      | '"' ->
          advance st;
          Buffer.contents buf
      | '\\' ->
          Buffer.add_char buf (lex_escape st);
          go ()
      | c ->
          advance st;
          Buffer.add_char buf c;
          go ()
  in
  Tok.STR_LIT (go ())

let lex_char st =
  advance st;
  let c = if Char.equal (peek st) '\\' then lex_escape st else (
    let c = peek st in
    advance st;
    c)
  in
  if not (Char.equal (peek st) '\'') then error st "unterminated char literal";
  advance st;
  Tok.CHAR_LIT c

(* A $word$ lexeme like $end_of_path$; also plain $ident used by callout
   suffixes. *)
let lex_dollar st =
  advance st;
  (* past $ *)
  if Char.equal (peek st) '{' then begin
    advance st;
    Tok.DOLLAR_LBRACE
  end
  else begin
    let word = lex_ident st in
    if Char.equal (peek st) '$' then advance st;
    Tok.DOLLAR_WORD word
  end

let next_token mode st =
  skip_trivia st;
  let loc = loc_of st in
  let tok =
    if at_end st then Tok.EOF
    else
      let c = peek st in
      if is_ident_start c then
        let word = lex_ident st in
        match Tok.keyword_of_string word with Some kw -> kw | None -> Tok.IDENT word
      else if is_digit c then lex_number st
      else if Char.equal c '"' then lex_string st
      else if Char.equal c '\'' then lex_char st
      else if Char.equal c '$' && (match mode with Metal_mode -> true | C_mode -> false) then
        lex_dollar st
      else begin
        let two = advance in
        match (c, peek2 st, peek3 st) with
        | '=', '=', '>' when (match mode with Metal_mode -> true | C_mode -> false) ->
            two st; two st; two st; Tok.FAT_ARROW
        | '.', '.', '.' -> two st; two st; two st; Tok.ELLIPSIS
        | '<', '<', '=' -> two st; two st; two st; Tok.SHL_ASSIGN
        | '>', '>', '=' -> two st; two st; two st; Tok.SHR_ASSIGN
        | '-', '>', _ -> two st; two st; Tok.ARROW
        | '+', '+', _ -> two st; two st; Tok.PLUSPLUS
        | '-', '-', _ -> two st; two st; Tok.MINUSMINUS
        | '<', '<', _ -> two st; two st; Tok.SHL
        | '>', '>', _ -> two st; two st; Tok.SHR
        | '<', '=', _ -> two st; two st; Tok.LE
        | '>', '=', _ -> two st; two st; Tok.GE
        | '=', '=', _ -> two st; two st; Tok.EQEQ
        | '!', '=', _ -> two st; two st; Tok.NEQ
        | '&', '&', _ -> two st; two st; Tok.ANDAND
        | '|', '|', _ -> two st; two st; Tok.OROR
        | '+', '=', _ -> two st; two st; Tok.PLUS_ASSIGN
        | '-', '=', _ -> two st; two st; Tok.MINUS_ASSIGN
        | '*', '=', _ -> two st; two st; Tok.STAR_ASSIGN
        | '/', '=', _ -> two st; two st; Tok.SLASH_ASSIGN
        | '%', '=', _ -> two st; two st; Tok.PERCENT_ASSIGN
        | '&', '=', _ -> two st; two st; Tok.AMP_ASSIGN
        | '|', '=', _ -> two st; two st; Tok.PIPE_ASSIGN
        | '^', '=', _ -> two st; two st; Tok.CARET_ASSIGN
        | '(', _, _ -> two st; Tok.LPAREN
        | ')', _, _ -> two st; Tok.RPAREN
        | '{', _, _ -> two st; Tok.LBRACE
        | '}', _, _ -> two st; Tok.RBRACE
        | '[', _, _ -> two st; Tok.LBRACKET
        | ']', _, _ -> two st; Tok.RBRACKET
        | ';', _, _ -> two st; Tok.SEMI
        | ',', _, _ -> two st; Tok.COMMA
        | ':', _, _ -> two st; Tok.COLON
        | '?', _, _ -> two st; Tok.QUESTION
        | '.', _, _ -> two st; Tok.DOT
        | '+', _, _ -> two st; Tok.PLUS
        | '-', _, _ -> two st; Tok.MINUS
        | '*', _, _ -> two st; Tok.STAR
        | '/', _, _ -> two st; Tok.SLASH
        | '%', _, _ -> two st; Tok.PERCENT
        | '&', _, _ -> two st; Tok.AMP
        | '|', _, _ -> two st; Tok.PIPE
        | '^', _, _ -> two st; Tok.CARET
        | '~', _, _ -> two st; Tok.TILDE
        | '!', _, _ -> two st; Tok.BANG
        | '<', _, _ -> two st; Tok.LT
        | '>', _, _ -> two st; Tok.GT
        | '=', _, _ -> two st; Tok.ASSIGN
        | c, _, _ -> error st (Printf.sprintf "unexpected character %C" c)
      end
  in
  { tok; loc }

let tokenize ?(mode = C_mode) ~file src =
  let st = { src; file; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let t = next_token mode st in
    match t.tok with Tok.EOF -> List.rev (t :: acc) | _ -> go (t :: acc)
  in
  go []
