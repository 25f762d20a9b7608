type t =
  | IDENT of string
  | INT_LIT of int64
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STR_LIT of string
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_DOUBLE
  | KW_SIGNED
  | KW_UNSIGNED
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_STATIC
  | KW_EXTERN
  | KW_CONST
  | KW_VOLATILE
  | KW_INLINE
  | KW_REGISTER
  | KW_AUTO
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_BREAK
  | KW_CONTINUE
  | KW_RETURN
  | KW_GOTO
  | KW_SIZEOF
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | QUESTION
  | DOT
  | ARROW
  | ELLIPSIS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NEQ
  | ANDAND
  | OROR
  | SHL
  | SHR
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | SLASH_ASSIGN
  | PERCENT_ASSIGN
  | AMP_ASSIGN
  | PIPE_ASSIGN
  | CARET_ASSIGN
  | SHL_ASSIGN
  | SHR_ASSIGN
  | PLUSPLUS
  | MINUSMINUS
  | DOLLAR_LBRACE
  | DOLLAR_WORD of string
  | FAT_ARROW
  | EOF

let keywords =
  [
    ("void", KW_VOID);
    ("char", KW_CHAR);
    ("short", KW_SHORT);
    ("int", KW_INT);
    ("long", KW_LONG);
    ("float", KW_FLOAT);
    ("double", KW_DOUBLE);
    ("signed", KW_SIGNED);
    ("unsigned", KW_UNSIGNED);
    ("struct", KW_STRUCT);
    ("union", KW_UNION);
    ("enum", KW_ENUM);
    ("typedef", KW_TYPEDEF);
    ("static", KW_STATIC);
    ("extern", KW_EXTERN);
    ("const", KW_CONST);
    ("volatile", KW_VOLATILE);
    ("inline", KW_INLINE);
    ("register", KW_REGISTER);
    ("auto", KW_AUTO);
    ("if", KW_IF);
    ("else", KW_ELSE);
    ("while", KW_WHILE);
    ("do", KW_DO);
    ("for", KW_FOR);
    ("switch", KW_SWITCH);
    ("case", KW_CASE);
    ("default", KW_DEFAULT);
    ("break", KW_BREAK);
    ("continue", KW_CONTINUE);
    ("return", KW_RETURN);
    ("goto", KW_GOTO);
    ("sizeof", KW_SIZEOF);
  ]

let keyword_table =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) keywords;
  tbl

let keyword_of_string s = Hashtbl.find_opt keyword_table s

let to_string = function
  | IDENT s -> s
  | INT_LIT n -> Int64.to_string n
  | FLOAT_LIT f -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "'%c'" c
  | STR_LIT s -> Printf.sprintf "%S" s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_SIGNED -> "signed"
  | KW_UNSIGNED -> "unsigned"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_STATIC -> "static"
  | KW_EXTERN -> "extern"
  | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | KW_INLINE -> "inline"
  | KW_REGISTER -> "register"
  | KW_AUTO -> "auto"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_RETURN -> "return"
  | KW_GOTO -> "goto"
  | KW_SIZEOF -> "sizeof"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | COLON -> ":"
  | QUESTION -> "?"
  | DOT -> "."
  | ARROW -> "->"
  | ELLIPSIS -> "..."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | NEQ -> "!="
  | ANDAND -> "&&"
  | OROR -> "||"
  | SHL -> "<<"
  | SHR -> ">>"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+="
  | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*="
  | SLASH_ASSIGN -> "/="
  | PERCENT_ASSIGN -> "%="
  | AMP_ASSIGN -> "&="
  | PIPE_ASSIGN -> "|="
  | CARET_ASSIGN -> "^="
  | SHL_ASSIGN -> "<<="
  | SHR_ASSIGN -> ">>="
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | DOLLAR_LBRACE -> "${"
  | DOLLAR_WORD s -> Printf.sprintf "$%s$" s
  | FAT_ARROW -> "==>"
  | EOF -> "<eof>"

