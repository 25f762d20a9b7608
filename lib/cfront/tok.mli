(** Tokens shared by the C lexer and the metal pattern lexer. *)

type t =
  | IDENT of string
  | INT_LIT of int64
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STR_LIT of string
  (* keywords *)
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
  (* punctuation and operators *)
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
  (* metal-specific lexemes, produced only in metal mode *)
  | DOLLAR_LBRACE  (** "${" opening a callout *)
  | DOLLAR_WORD of string  (** "$end_of_path$" and friends *)
  | FAT_ARROW  (** "==>" *)
  | EOF

val to_string : t -> string
(** Human-readable rendering for parser error messages. *)

val keyword_of_string : string -> t option
