(* The mini preprocessor: macros, conditionals, includes — and the key
   property that checkers match post-expansion code. *)

let t = Alcotest.test_case
let pp ?defines ?resolve_include src = Cpp.preprocess ?defines ?resolve_include ~file:"t.c" src

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1)) in
  go 0

(* Run [f], returning its result and the warnings it emitted. *)
let with_warnings f =
  let warns = ref [] in
  let out = Diag.with_sink (fun w -> warns := w :: !warns) f in
  (out, List.rev !warns)

(* [#if COND] guarding one line, with no warning either way *)
let taken cond =
  let src = Printf.sprintf "#if %s\nint guarded;\n#endif" cond in
  let out, warns = with_warnings (fun () -> pp src) in
  Alcotest.(check (list string)) ("no warning for " ^ cond) [] warns;
  contains out "int guarded;"

(* Random [#if] conditions: well-formed expressions over numbers, char
   literals, macros and every operator, and unstructured token runs. *)
let if_condition_gen =
  let open QCheck2.Gen in
  let atom =
    oneofl
      [ "0"; "1"; "2"; "7"; "010"; "0x1F"; "42u"; "3L"; "'A'"; "'\\n'"; "'\\x41'";
        "'\\101'"; "'\\0'"; "FOO"; "BAR"; "defined(FOO)"; "defined BAR"; "TWICE(2)" ]
  in
  let binop =
    oneofl
      [ "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "<"; ">"; "<="; ">="; "=="; "!="; "&"; "^";
        "|"; "&&"; "||" ]
  in
  let unop = oneofl [ "-"; "+"; "!"; "~" ] in
  let expr =
    fix (fun self n ->
        if n = 0 then atom
        else
          frequency
            [
              (1, atom);
              (3, map3 (Printf.sprintf "(%s %s %s)") (self (n / 2)) binop (self (n / 2)));
              (1, map2 ( ^ ) unop (self (n - 1)));
              ( 1,
                map3 (Printf.sprintf "%s ? %s : %s") (self (n / 3)) (self (n / 3))
                  (self (n / 3)) );
            ])
  in
  let junk =
    oneofl
      [ "("; ")"; "?"; ":"; ","; "'"; "'ab'"; "99999999999999999999"; "1.5"; "\"s\""; "=";
        "sizeof"; "int"; "defined"; "//"; "/*" ]
  in
  let tokens =
    map (String.concat " ") (list_size (int_range 0 10) (oneof [ atom; binop; unop; junk ]))
  in
  frequency [ (2, sized_size (int_bound 8) expr); (1, tokens) ]

let suite =
  [
    t "object-like macro expands" `Quick (fun () ->
        let out = pp "#define LIMIT 64\nint x = LIMIT;" in
        Alcotest.(check bool) "expanded" true (contains out "int x = 64;"));
    t "function-like macro with arguments" `Quick (fun () ->
        let out = pp "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint m = MAX(x + 1, y);" in
        Alcotest.(check bool) "expanded" true
          (contains out "((x + 1) > (y) ? (x + 1) : (y))"));
    t "nested macro expansion" `Quick (fun () ->
        let out = pp "#define A B\n#define B 42\nint x = A;" in
        Alcotest.(check bool) "two steps" true (contains out "int x = 42;"));
    t "self-referential macros terminate" `Quick (fun () ->
        let out = pp "#define LOOP LOOP + 1\nint x = LOOP;" in
        Alcotest.(check bool) "guarded" true (contains out "LOOP + 1"));
    t "no expansion inside strings or comments" `Quick (fun () ->
        let out =
          pp "#define FOO 1\nchar *s = \"FOO\"; /* FOO */ int x = FOO; // FOO"
        in
        Alcotest.(check bool) "string kept" true (contains out "\"FOO\"");
        Alcotest.(check bool) "block comment kept" true (contains out "/* FOO */");
        Alcotest.(check bool) "code expanded" true (contains out "int x = 1;"));
    t "undef stops expansion" `Quick (fun () ->
        let out = pp "#define N 1\n#undef N\nint x = N;" in
        Alcotest.(check bool) "not expanded" true (contains out "int x = N;"));
    t "ifdef / else / endif" `Quick (fun () ->
        let out = pp "#define DEBUG\n#ifdef DEBUG\nint a;\n#else\nint b;\n#endif" in
        Alcotest.(check bool) "then branch" true (contains out "int a;");
        Alcotest.(check bool) "else dropped" false (contains out "int b;");
        let out2 = pp "#ifdef NOPE\nint a;\n#else\nint b;\n#endif" in
        Alcotest.(check bool) "else branch" true (contains out2 "int b;"));
    t "ifndef and nesting" `Quick (fun () ->
        let out =
          pp "#ifndef GUARD\n#define GUARD\n#ifdef GUARD\nint inner;\n#endif\nint outer;\n#endif"
        in
        Alcotest.(check bool) "inner" true (contains out "int inner;");
        Alcotest.(check bool) "outer" true (contains out "int outer;"));
    t "#if 0 disables a region" `Quick (fun () ->
        let out = pp "#if 0\nint dead;\n#endif\nint live;" in
        Alcotest.(check bool) "dead gone" false (contains out "int dead;");
        Alcotest.(check bool) "live kept" true (contains out "int live;"));
    t "line continuations join" `Quick (fun () ->
        let out = pp "#define TWO \\\n 2\nint x = TWO;" in
        Alcotest.(check bool) "joined" true (contains out "int x = 2;"));
    t "include via resolver" `Quick (fun () ->
        let resolve = function
          | "defs.h" -> Some "#define FROM_HEADER 7\n"
          | _ -> None
        in
        let out = pp ~resolve_include:resolve "#include \"defs.h\"\nint x = FROM_HEADER;" in
        Alcotest.(check bool) "header macro" true (contains out "int x = 7;"));
    t "missing include becomes a comment" `Quick (fun () ->
        let out = pp "#include <linux/slab.h>\nint x;" in
        Alcotest.(check bool) "skipped note" true (contains out "include skipped");
        Alcotest.(check bool) "rest kept" true (contains out "int x;"));
    t "command-line defines" `Quick (fun () ->
        let out = pp ~defines:[ ("MODE", "3") ] "int x = MODE;" in
        Alcotest.(check bool) "defined" true (contains out "int x = 3;"));
    t "line numbers survive directives" `Quick (fun () ->
        let src = "#define F 1\nint f(int *p) {\nkfree(p);\nreturn *p;\n}" in
        let out = pp src in
        let tu = Cparse.parse_tunit ~file:"lines.c" out in
        let r =
          Engine.run (Supergraph.build [ tu ]) [ Free_checker.checker () ]
        in
        match r.Engine.reports with
        | [ rep ] -> Alcotest.(check int) "deref on line 4" 4 rep.Report.loc.Srcloc.line
        | _ -> Alcotest.fail "expected one report");
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"preprocessing preserves line counts" ~count:30
         QCheck2.Gen.(int_range 1 2000)
         (fun seed ->
           let g = Gen.generate ~seed ~n_funcs:4 ~bug_rate:0.5 in
           let src =
             "#define GUARD 1\n#ifdef GUARD\n" ^ g.Gen.source ^ "\n#endif\n"
           in
           let count s =
             String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s
           in
           count (Cpp.preprocess ~file:"g.c" src) = count src));
    t "macro-heavy corpus: same findings as hand-expanded code" `Quick (fun () ->
        let macro_src =
          "#define ALLOC(n) kmalloc(n)\n\
           #define RELEASE(p) kfree(p)\n\
           #define CHECKED(p) if (!p) { return -1; }\n\
           int a(int n) { int *x = ALLOC(n); CHECKED(x) RELEASE(x); return *x; }\n\
           int b(int n) { int *y = ALLOC(n); CHECKED(y) RELEASE(y); return 0; }"
        in
        let plain_src =
          "int a(int n) { int *x = kmalloc(n); if (!x) { return -1; } kfree(x); return *x; }\n\
           int b(int n) { int *y = kmalloc(n); if (!y) { return -1; } kfree(y); return 0; }"
        in
        let reports src =
          List.sort compare
            (List.map
               (fun (r : Report.t) -> (r.Report.func, r.Report.message))
               (Engine.check_source ~file:"m.c" src [ Free_checker.checker () ])
                 .Engine.reports)
        in
        Alcotest.(check (list (pair string string)))
          "identical"
          (reports plain_src)
          (reports (Cpp.preprocess ~file:"m.c" macro_src)));
    t "checkers match post-expansion actions (the xgcc property)" `Quick (fun () ->
        (* the kernel-style wrapper expands to a kfree the checker sees *)
        let src =
          "#define KFREE(p) kfree(p)\n\
           #define DEREF(p) (*(p))\n\
           int f(int *buf) {\n\
           KFREE(buf);\n\
           return DEREF(buf);\n\
           }"
        in
        let out = pp src in
        let r =
          Engine.check_source ~file:"m.c" out [ Free_checker.checker () ]
        in
        Alcotest.(check int) "use-after-free through macros" 1
          (List.length r.Engine.reports));
    t "do-while(0) wrapper macros behave (kill inside macro)" `Quick (fun () ->
        let src =
          "#define SAFE_FREE(p) do { kfree(p); p = 0; } while (0)\n\
           #define RAW_FREE(p) kfree(p)\n\
           int safe(int *a) { SAFE_FREE(a); return *a; }\n\
           int raw(int *b) { RAW_FREE(b); return *b; }"
        in
        let r =
          Engine.check_source ~file:"w.c" (pp src) [ Free_checker.checker () ]
        in
        let funcs = List.map (fun (x : Report.t) -> x.Report.func) r.Engine.reports in
        Alcotest.(check (list string)) "only raw flagged" [ "raw" ] funcs);
    t "macro-defined lock discipline" `Quick (fun () ->
        let src =
          "#define LOCK_GUARD(l) lock(l)\n\
           #define UNLOCK_GUARD(l) unlock(l)\n\
           struct lk { int h; };\n\
           int f(struct lk *m, int c) {\n\
           LOCK_GUARD(m);\n\
           if (c) { return c; }\n\
           UNLOCK_GUARD(m);\n\
           return 0;\n\
           }"
        in
        let r = Engine.check_source ~file:"l.c" (pp src) [ Lock_checker.checker () ] in
        Alcotest.(check int) "leak through macro" 1 (List.length r.Engine.reports));
    t "conditional compilation changes the bug population" `Quick (fun () ->
        let src =
          "int f(int *p) {\n\
           kfree(p);\n\
           #ifdef PARANOID\n\
           p = 0;\n\
           #endif\n\
           return *p;\n\
           }"
        in
        let count defines =
          List.length
            (Engine.check_source ~file:"c.c" (pp ~defines src)
               [ Free_checker.checker () ])
              .Engine.reports
        in
        Alcotest.(check int) "without PARANOID: bug" 1 (count []);
        Alcotest.(check int) "with PARANOID: killed" 0 (count [ ("PARANOID", "") ]));
    (* --- #if / #elif constant expressions ---------------------------- *)
    t "#if defined(X) and defined X" `Quick (fun () ->
        let out =
          pp ~defines:[ ("FEATURE", "") ]
            "#if defined(FEATURE)\nint a;\n#endif\n#if defined FEATURE\nint b;\n#endif\n#if defined(NOPE)\nint c;\n#endif"
        in
        Alcotest.(check bool) "paren form" true (contains out "int a;");
        Alcotest.(check bool) "bare form" true (contains out "int b;");
        Alcotest.(check bool) "undefined false" false (contains out "int c;"));
    t "#if arithmetic, comparison and logic" `Quick (fun () ->
        let out =
          pp ~defines:[ ("VER", "3") ]
            "#if VER >= 2 && VER < 10\nint pass;\n#endif\n\
             #if VER == 2 || VER * 2 == 6\nint arith;\n#endif\n\
             #if !defined(MISSING) && (VER + 1) % 2 == 0\nint parity;\n#endif\n\
             #if VER > 100\nint big;\n#endif"
        in
        Alcotest.(check bool) "range" true (contains out "int pass;");
        Alcotest.(check bool) "arith" true (contains out "int arith;");
        Alcotest.(check bool) "parity" true (contains out "int parity;");
        Alcotest.(check bool) "false comparison" false (contains out "int big;"));
    t "#if hex and char literals, undefined idents are 0" `Quick (fun () ->
        let out =
          pp
            "#if 0x10 == 16\nint hex;\n#endif\n\
             #if 'A' == 65\nint chr;\n#endif\n\
             #if UNDEFINED_THING\nint undef;\n#endif"
        in
        Alcotest.(check bool) "hex" true (contains out "int hex;");
        Alcotest.(check bool) "char" true (contains out "int chr;");
        Alcotest.(check bool) "undefined -> 0" false (contains out "int undef;"));
    t "#elif chains take exactly one branch" `Quick (fun () ->
        let src v =
          Printf.sprintf
            "#define V %d\n#if V == 1\nint one;\n#elif V == 2\nint two;\n#elif V == 3\nint three;\n#else\nint other;\n#endif"
            v
        in
        let branch v = pp (src v) in
        Alcotest.(check bool) "v=1 one" true (contains (branch 1) "int one;");
        Alcotest.(check bool) "v=1 not two" false (contains (branch 1) "int two;");
        Alcotest.(check bool) "v=2 two" true (contains (branch 2) "int two;");
        Alcotest.(check bool) "v=2 not else" false (contains (branch 2) "int other;");
        Alcotest.(check bool) "v=3 three" true (contains (branch 3) "int three;");
        Alcotest.(check bool) "v=9 else" true (contains (branch 9) "int other;"));
    t "#elif after a taken branch stays off even if true" `Quick (fun () ->
        let out = pp "#if 1\nint first;\n#elif 1\nint second;\n#else\nint third;\n#endif" in
        Alcotest.(check bool) "first kept" true (contains out "int first;");
        Alcotest.(check bool) "true #elif skipped" false (contains out "int second;");
        Alcotest.(check bool) "else skipped" false (contains out "int third;"));
    t "#if inside an inactive region is not evaluated" `Quick (fun () ->
        (* garbage expression under #if 0 must not raise *)
        let out = pp "#if 0\n#if ) not ( an expression\nint x;\n#endif\n#endif\nint live;" in
        Alcotest.(check bool) "survives" true (contains out "int live;");
        Alcotest.(check bool) "dead gone" false (contains out "int x;"));
    t "#if macro expansion feeds the expression" `Quick (fun () ->
        let out =
          pp
            "#define A 2\n#define B (A * 3)\n#if B == 6\nint six;\n#endif\n\
             #define PICK(x) ((x) + 1)\n#if PICK(4) == 5\nint five;\n#endif"
        in
        Alcotest.(check bool) "object macro" true (contains out "int six;");
        Alcotest.(check bool) "function macro" true (contains out "int five;"));
    t "#if conditional compilation drives checker findings" `Quick (fun () ->
        let src =
          "int f(int *p) {\n\
           kfree(p);\n\
           #if defined(HARDEN) && HARDEN >= 2\n\
           p = 0;\n\
           #endif\n\
           return *p;\n\
           }"
        in
        let count defines =
          List.length
            (Engine.check_source ~file:"c.c" (pp ~defines src)
               [ Free_checker.checker () ])
              .Engine.reports
        in
        Alcotest.(check int) "no HARDEN: bug" 1 (count []);
        Alcotest.(check int) "HARDEN=1: still a bug" 1 (count [ ("HARDEN", "1") ]);
        Alcotest.(check int) "HARDEN=2: killed" 0 (count [ ("HARDEN", "2") ]));
    t "bad #if expressions degrade to false with a warning" `Quick (fun () ->
        (* fault containment: a malformed condition must not kill the
           translation unit — it evaluates to false and warns on the
           diagnostics channel with the condition's location *)
        let bad s =
          let warns = ref [] in
          let old = !Diag.sink in
          Diag.sink := (fun w -> warns := w :: !warns);
          let out =
            Fun.protect ~finally:(fun () -> Diag.sink := old) (fun () -> pp s)
          in
          Alcotest.(check bool) "guarded code dropped" false (contains out "int x;");
          match !warns with
          | [ w ] -> w
          | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)
        in
        let w = bad "#if 1 / 0\nint x;\n#endif" in
        Alcotest.(check bool) "prefix" true (contains w "xgcc: warning:");
        Alcotest.(check bool) "reason" true (contains w "division by zero");
        Alcotest.(check bool) "location" true (contains w "t.c:1");
        Alcotest.(check bool) "modulo by zero" true
          (contains (bad "#if 1 % 0\nint x;\n#endif") "modulo by zero");
        Alcotest.(check bool) "unbalanced paren" true
          (contains (bad "#if (1\nint x;\n#endif") "t.c:1");
        Alcotest.(check bool) "empty expr on line 2" true
          (contains (bad "int y;\n#if\nint x;\n#endif") "t.c:2"));
    (* --- #if through the C expression grammar ------------------------- *)
    t "#if reads octal literals as C does" `Quick (fun () ->
        Alcotest.(check bool) "010 is 8" true (taken "010 == 8"));
    t "#if reads hex and octal character escapes" `Quick (fun () ->
        Alcotest.(check bool) "escapes" true (taken "'\\x41' == 65 && '\\101' == 65"));
    t "#if evaluates the conditional operator" `Quick (fun () ->
        Alcotest.(check bool) "true arm" true (taken "1 ? 1 : 0");
        Alcotest.(check bool) "false arm" false (taken "0 ? 1 : 0"));
    t "#if && and || short-circuit" `Quick (fun () ->
        Alcotest.(check bool) "1 || 1/0 taken" true (taken "1 || 1/0");
        Alcotest.(check bool) "0 && 1/0 not taken" false (taken "0 && 1/0"));
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 24 |])
      (QCheck2.Test.make ~name:"random #if lines never raise and warn at most once"
         ~count:500 ~print:Fun.id if_condition_gen (fun cond ->
           let src =
             Printf.sprintf
               "#define FOO 3\n#define TWICE(x) ((x) * 2)\n#if %s\nint guarded;\n#endif\n"
               cond
           in
           let out, warns = with_warnings (fun () -> Cpp.preprocess ~file:"q.c" src) in
           match warns with
           | [] -> true
           | [ _ ] -> not (contains out "int guarded;")
           | _ -> false));
  ]
