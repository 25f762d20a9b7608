(* Lexer tests: C tokens, comments, literals, metal-mode lexemes. *)

let toks ?(mode = Clex.C_mode) src =
  List.map (fun t -> t.Clex.tok) (Clex.tokenize ~mode ~file:"<test>" src)

let check_toks name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = toks src in
      Alcotest.(check (list string))
        name
        (List.map Tok.to_string (expected @ [ Tok.EOF ]))
        (List.map Tok.to_string got))

let t = Alcotest.test_case

let suite =
  [
    check_toks "identifiers and ints" "foo bar42 7"
      [ Tok.IDENT "foo"; Tok.IDENT "bar42"; Tok.INT_LIT 7L ];
    check_toks "keywords" "if else while int return"
      [ Tok.KW_IF; Tok.KW_ELSE; Tok.KW_WHILE; Tok.KW_INT; Tok.KW_RETURN ];
    check_toks "hex and octal" "0x10 010" [ Tok.INT_LIT 16L; Tok.INT_LIT 8L ];
    check_toks "integer suffixes" "10UL 3u" [ Tok.INT_LIT 10L; Tok.INT_LIT 3L ];
    check_toks "float" "1.5 2e3" [ Tok.FLOAT_LIT 1.5; Tok.FLOAT_LIT 2000.0 ];
    check_toks "char literals" "'a' '\\n' '\\0'"
      [ Tok.CHAR_LIT 'a'; Tok.CHAR_LIT '\n'; Tok.CHAR_LIT '\000' ];
    check_toks "string with escapes" {|"a\tb"|} [ Tok.STR_LIT "a\tb" ];
    check_toks "octal char escapes" {|'\177' '\0' '\7' '\101'|}
      [ Tok.CHAR_LIT '\127'; Tok.CHAR_LIT '\000'; Tok.CHAR_LIT '\007'; Tok.CHAR_LIT 'A' ];
    check_toks "hex char escapes" {|'\x41' '\xff' '\x7'|}
      [ Tok.CHAR_LIT 'A'; Tok.CHAR_LIT '\255'; Tok.CHAR_LIT '\007' ];
    (* at most three octal digits: the fourth is a plain character *)
    check_toks "octal string escapes" {|"\033[0m" "\1234" "a\0b"|}
      [ Tok.STR_LIT "\027[0m"; Tok.STR_LIT "S4"; Tok.STR_LIT "a\000b" ];
    (* a hex escape takes every hex digit after it, as in C; a value past
       255 keeps its low byte *)
    check_toks "hex string escapes" {|"a\x41-b" "\x41b" "\x"|}
      [ Tok.STR_LIT "aA-b"; Tok.STR_LIT "\027"; Tok.STR_LIT "x" ];
    t "a file with escaped char literals is analysed, not dropped" `Quick (fun () ->
        let r =
          Engine.check_source ~file:"esc.c"
            "int c = '\\x41';\nint d = '\\177';\nint f(int *p) { kfree(p); return *p; }\n"
            [ Free_checker.checker () ]
        in
        Alcotest.(check int) "the use-after-free is reported" 1 (List.length r.Engine.reports));
    check_toks "operators two-char" "== != <= >= && || << >> -> ++ --"
      [
        Tok.EQEQ; Tok.NEQ; Tok.LE; Tok.GE; Tok.ANDAND; Tok.OROR; Tok.SHL; Tok.SHR;
        Tok.ARROW; Tok.PLUSPLUS; Tok.MINUSMINUS;
      ];
    check_toks "compound assigns" "+= -= *= /= %= &= |= ^= <<= >>="
      [
        Tok.PLUS_ASSIGN; Tok.MINUS_ASSIGN; Tok.STAR_ASSIGN; Tok.SLASH_ASSIGN;
        Tok.PERCENT_ASSIGN; Tok.AMP_ASSIGN; Tok.PIPE_ASSIGN; Tok.CARET_ASSIGN;
        Tok.SHL_ASSIGN; Tok.SHR_ASSIGN;
      ];
    check_toks "line comment" "a // comment here\nb" [ Tok.IDENT "a"; Tok.IDENT "b" ];
    check_toks "block comment" "a /* x\ny */ b" [ Tok.IDENT "a"; Tok.IDENT "b" ];
    check_toks "preprocessor line skipped" "#include <stdio.h>\nx"
      [ Tok.IDENT "x" ];
    check_toks "preprocessor continuation" "#define A \\\n 42\ny" [ Tok.IDENT "y" ];
    check_toks "ellipsis" "f(int, ...)"
      [ Tok.IDENT "f"; Tok.LPAREN; Tok.KW_INT; Tok.COMMA; Tok.ELLIPSIS; Tok.RPAREN ];
    t "metal mode: fat arrow" `Quick (fun () ->
        let got = toks ~mode:Clex.Metal_mode "a ==> b" in
        Alcotest.(check bool)
          "has FAT_ARROW" true
          (List.mem Tok.FAT_ARROW got));
    t "C mode: ==> is == then >" `Quick (fun () ->
        let got = toks "a ==> b" in
        Alcotest.(check bool) "EQEQ" true (List.mem Tok.EQEQ got);
        Alcotest.(check bool) "GT" true (List.mem Tok.GT got));
    t "metal mode: dollar forms" `Quick (fun () ->
        let got = toks ~mode:Clex.Metal_mode "$end_of_path$ ${" in
        Alcotest.(check bool)
          "dollar word" true
          (List.mem (Tok.DOLLAR_WORD "end_of_path") got);
        Alcotest.(check bool) "dollar brace" true (List.mem Tok.DOLLAR_LBRACE got));
    t "locations track lines" `Quick (fun () ->
        let ts = Clex.tokenize ~file:"f.c" "a\nb\n  c" in
        let locs = List.map (fun t -> (t.Clex.loc.Srcloc.line, t.Clex.loc.Srcloc.col)) ts in
        match locs with
        | (1, 1) :: (2, 1) :: (3, 3) :: _ -> ()
        | _ -> Alcotest.fail "bad locations");
    t "lex error raises" `Quick (fun () ->
        match toks "a ` b" with
        | exception Clex.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected Lex_error");
    t "unterminated string raises" `Quick (fun () ->
        match toks "\"abc" with
        | exception Clex.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected Lex_error");
    t "unterminated comment raises" `Quick (fun () ->
        match toks "/* abc" with
        | exception Clex.Lex_error _ -> ()
        | _ -> Alcotest.fail "expected Lex_error");
    t "adjacent string concatenation is parser-side" `Quick (fun () ->
        let got = toks {|"a" "b"|} in
        Alcotest.(check int) "two strings" 3 (List.length got));
  ]
