(* metal language: parsing the paper's checkers, compilation, options,
   error handling. *)

let t = Alcotest.test_case

let parse_one src =
  match Metal_parse.parse ~file:"<m>" src with
  | [ m ] -> m
  | _ -> Alcotest.fail "expected one sm"

(* Token mutants of the shipped metal files. Each file is cut into
   tokens (identifier and number runs, string and character literals, and
   single punctuation characters, whitespace dropped) and one is mutated:
   a token dropped, doubled, or swapped with the next, the text cut after
   it, or a stray punctuation character put before it. Loading a mutant
   either gives extensions or raises one of the three errors the CLI
   reports at a position ([xgcc check -m]): never anything else. *)

(* [dune test] runs in the build tree's test directory, beside its copy
   of metal/; a run from the repository root finds them there. *)
let metal_files =
  lazy
    (let dir = if Sys.file_exists "../metal" then "../metal" else "metal" in
     List.map
       (fun f ->
         let path = Filename.concat dir f in
         let ic = open_in_bin path in
         let src =
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         (path, src))
       (List.sort String.compare
          (List.filter
             (fun f -> Filename.check_suffix f ".metal")
             (Array.to_list (Sys.readdir dir)))))

(* The tokens of [src] as (start, end) offsets: identifier and number
   runs, string and character literals, single other characters. *)
let tokens src =
  let n = String.length src in
  let is_word c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  let rec go i acc =
    if i >= n then Array.of_list (List.rev acc)
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | c when is_word c ->
          let j = ref i in
          while !j < n && is_word src.[!j] do incr j done;
          go !j ((i, !j) :: acc)
      | ('"' | '\'') as q ->
          let j = ref (i + 1) in
          while !j < n && src.[!j] <> q do
            if src.[!j] = '\\' then incr j;
            incr j
          done;
          let j = min n (!j + 1) in
          go j ((i, j) :: acc)
      | _ -> go (i + 1) ((i, i + 1) :: acc)
  in
  go 0 []

let mutations = [| "drop"; "double"; "swap"; "cut"; "insert" |]
let strays = [| ";"; "{"; "}"; "("; ")"; "|"; ","; "\""; "'"; "==>"; "$"; ":"; "." |]

(* The text around the mutated token is kept as it was. *)
let mutant (file, mutation, at, stray) =
  let files = Lazy.force metal_files in
  let path, src = List.nth files (file mod List.length files) in
  let toks = tokens src in
  let i = at mod Array.length toks in
  let s, e = toks.(i) in
  let sub a b = String.sub src a (b - a) and n = String.length src in
  let text =
    match mutations.(mutation) with
    | "drop" -> sub 0 s ^ sub e n
    | "double" -> sub 0 e ^ " " ^ sub s n
    | "swap" when i + 1 < Array.length toks ->
        let s', e' = toks.(i + 1) in
        sub 0 s ^ sub s' e' ^ sub e s' ^ sub s e ^ sub e' n
    | "cut" -> sub 0 e
    | "insert" -> sub 0 s ^ strays.(stray) ^ sub s n
    | _ -> src
  in
  (path, text)

let print_mutant ((_, m, at, s) as x) =
  let path, src = mutant x in
  Printf.sprintf "%s: %s at token %d (%s):\n%s" path mutations.(m) at strays.(s) src

let mutant_gen =
  QCheck2.Gen.(
    quad (int_bound 1_000)
      (int_bound (Array.length mutations - 1))
      (int_bound 10_000)
      (int_bound (Array.length strays - 1)))

let loads_or_fails x =
  let path, src = mutant x in
  match Metal_compile.load ~file:path src with
  | _ -> true
  | exception
      ( Metal_parse.Metal_error (loc, _)
      | Metal_compile.Compile_error (loc, _)
      | Clex.Lex_error (loc, _) ) ->
      loc.Srcloc.line >= 1

let suite =
  [
    t "Figure 1 free checker parses" `Quick (fun () ->
        let m = parse_one Free_checker.source in
        Alcotest.(check string) "name" "free_checker" m.Metal_ast.sm_name;
        Alcotest.(check (option string)) "svar" (Some "v") (Metal_ast.svar_of m);
        Alcotest.(check int) "clauses" 2 (List.length m.Metal_ast.sm_clauses));
    t "Figure 3 lock checker parses with branch dest" `Quick (fun () ->
        let m = parse_one Lock_checker.source in
        let first_rule =
          match m.Metal_ast.sm_clauses with
          | { c_rules = r :: _; _ } :: _ -> r
          | _ -> Alcotest.fail "no rules"
        in
        match first_rule.Metal_ast.r_dest with
        | Metal_ast.Dbranch (Metal_ast.Dvar ("l", "locked"), Metal_ast.Dvar ("l", "stop")) -> ()
        | _ -> Alcotest.fail "expected { true = l.locked, false = l.stop }");
    t "state decl vs plain decl" `Quick (fun () ->
        let m =
          parse_one
            "sm s { state decl any_pointer v; decl any_expr x, y; start: { f(v) } ==> v.used; }"
        in
        Alcotest.(check int) "decls" 2 (List.length m.Metal_ast.sm_decls);
        Alcotest.(check (option string)) "svar" (Some "v") (Metal_ast.svar_of m);
        Alcotest.(check int) "holes" 3 (List.length (Metal_ast.holes_of m)));
    t "concrete C type hole" `Quick (fun () ->
        let m = parse_one "sm s { decl int n; decl struct foo *p; start: { f(n) } ==> done_; }" in
        match m.Metal_ast.sm_decls with
        | [ { d_hole = Holes.Concrete t1; _ }; { d_hole = Holes.Concrete t2; _ } ] ->
            Alcotest.(check bool) "int" true (Ctyp.equal t1 Ctyp.int_);
            Alcotest.(check bool) "struct ptr" true
              (Ctyp.equal t2 (Ctyp.Ptr (Ctyp.Struct "foo")))
        | _ -> Alcotest.fail "expected two concrete holes");
    t "multiple rules separated by |" `Quick (fun () ->
        let m = parse_one Free_checker.source in
        match m.Metal_ast.sm_clauses with
        | [ _; { c_rules; _ } ] -> Alcotest.(check int) "two rules" 2 (List.length c_rules)
        | _ -> Alcotest.fail "bad clauses");
    t "action-only rule" `Quick (fun () ->
        let m = parse_one {|sm s { start: { f() } ==> { err("boom"); }; }|} in
        match m.Metal_ast.sm_clauses with
        | [ { c_rules = [ { r_dest = Metal_ast.Dnone; r_actions = [ a ]; _ } ]; _ } ] ->
            Alcotest.(check string) "action" "err" a.Metal_ast.ac_name
        | _ -> Alcotest.fail "expected action-only rule");
    t "callout pattern ${...}" `Quick (fun () ->
        let m =
          parse_one
            {|sm s { decl any_fn_call fn; decl any_arguments args;
                start: { fn(args) } && ${ mc_is_call_to(fn, "gets") } ==> flagged; }|}
        in
        match m.Metal_ast.sm_clauses with
        | [ { c_rules = [ { r_pattern = Pattern.Pand (_, Pattern.Pcallout _); _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected conjunction with callout");
    t "degenerate callouts ${0} ${1}" `Quick (fun () ->
        let m = parse_one "sm s { start: ${1} && ${0} ==> next; }" in
        match m.Metal_ast.sm_clauses with
        | [ { c_rules = [ { r_pattern = Pattern.Pand (Pattern.Palways, Pattern.Pnever); _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected Palways && Pnever");
    t "end_of_path pattern" `Quick (fun () ->
        let m = parse_one "sm s { state decl any_pointer l; l.held: $end_of_path$ ==> l.stop; }" in
        match m.Metal_ast.sm_clauses with
        | [ { c_rules = [ { r_pattern = Pattern.Pend_of_path; _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected end_of_path");
    t "options parse" `Quick (fun () ->
        let m =
          parse_one
            "sm s { option no_auto_kill; option byval_restore; start: { f() } ==> go; }"
        in
        Alcotest.(check (list string)) "options" [ "no_auto_kill"; "byval_restore" ]
          m.Metal_ast.sm_options);
    t "compile sets flags from options" `Quick (fun () ->
        let sm =
          List.hd
            (Metal_compile.load ~file:"<m>"
               "sm s { option no_auto_kill; option no_synonyms; start: { f() } ==> go; }")
        in
        Alcotest.(check bool) "auto_kill off" false sm.Sm.auto_kill;
        Alcotest.(check bool) "synonyms off" false sm.Sm.track_synonyms);
    t "compile rejects wrong state variable" `Quick (fun () ->
        match
          Metal_compile.load ~file:"<m>"
            "sm s { state decl any_pointer v; start: { f(v) } ==> w.used; }"
        with
        | exception Metal_compile.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected compile error");
    t "compile rejects unknown action" `Quick (fun () ->
        let sms =
          Metal_compile.load ~file:"<m>"
            {|sm s { start: { f() } ==> { frobnicate_xyz("a"); }; }|}
        in
        (* the error surfaces when the action runs; fault containment
           turns it into a degraded root instead of a crashed run *)
        let result =
          Engine.check_source ~file:"t.c" "int g(void) { f(); return 0; }" sms
        in
        match result.Engine.degraded with
        | [ d ] ->
            Alcotest.(check string) "root" "g" d.Engine.d_root;
            Alcotest.(check bool) "names the exception" true
              (let w = d.Engine.d_reason in
               let nl = String.length "Compile_error" and wl = String.length w in
               let rec at i =
                 i + nl <= wl
                 && (String.equal "Compile_error" (String.sub w i nl) || at (i + 1))
               in
               at 0)
        | ds -> Alcotest.failf "expected one degraded root, got %d" (List.length ds));
    t "parse error has location" `Quick (fun () ->
        match Metal_parse.parse ~file:"<m>" "sm s { start: ==> x; }" with
        | exception Metal_parse.Metal_error (loc, _) ->
            Alcotest.(check bool) "line" true (loc.Srcloc.line >= 1)
        | _ -> Alcotest.fail "expected Metal_error");
    t "two sms in one file" `Quick (fun () ->
        let ms =
          Metal_parse.parse ~file:"<m>"
            "sm one { start: { f() } ==> a; }  sm two { start: { g() } ==> b; }"
        in
        Alcotest.(check int) "two" 2 (List.length ms));
    t "first clause defines the start state" `Quick (fun () ->
        let sm =
          List.hd
            (Metal_compile.load ~file:"<m>" Intr_checker.source)
        in
        Alcotest.(check string) "start" "is_enabled" sm.Sm.start_state);
    t "set_global action updates the global machine" `Quick (fun () ->
        let sms =
          Metal_compile.load ~file:"<m>"
            {|sm g {
               calm:
                 { alarm() } ==> { set_global("panicking"); }
               ;
               panicking:
                 { step() } ==> { err("stepping while panicking"); }
               ;
             }|}
        in
        let r =
          Engine.check_source ~file:"t.c" "int f(void) { alarm(); step(); return 0; }" sms
        in
        Alcotest.(check int) "fired in new gstate" 1 (List.length r.Engine.reports));
    t "pretty-print round trip for every built-in checker" `Quick (fun () ->
        List.iter
          (fun e ->
            match e.Registry.e_source with
            | None -> ()
            | Some src ->
                let parsed = Metal_parse.parse ~file:"<m>" src in
                List.iter
                  (fun m ->
                    let printed = Metal_pp.to_string m in
                    let reparsed =
                      match Metal_parse.parse ~file:"<pp>" printed with
                      | [ m2 ] -> m2
                      | _ -> Alcotest.fail "round trip lost the sm"
                    in
                    Alcotest.(check string)
                      (e.Registry.e_name ^ " name")
                      m.Metal_ast.sm_name reparsed.Metal_ast.sm_name;
                    Alcotest.(check int)
                      (e.Registry.e_name ^ " clauses")
                      (List.length m.Metal_ast.sm_clauses)
                      (List.length reparsed.Metal_ast.sm_clauses);
                    Alcotest.(check int)
                      (e.Registry.e_name ^ " rules")
                      (List.length
                         (List.concat_map
                            (fun (c : Metal_ast.clause) -> c.c_rules)
                            m.Metal_ast.sm_clauses))
                      (List.length
                         (List.concat_map
                            (fun (c : Metal_ast.clause) -> c.c_rules)
                            reparsed.Metal_ast.sm_clauses));
                    (* and the reprinted checker still compiles and works *)
                    ignore (Metal_compile.compile reparsed))
                  parsed)
          (Registry.all ()));
    t "reprinted free checker finds the same bugs" `Quick (fun () ->
        let m = List.hd (Metal_parse.parse ~file:"<m>" Free_checker.source) in
        let printed = Metal_pp.to_string m in
        let sm = List.hd (Metal_compile.load ~file:"<pp>" printed) in
        let r =
          Engine.check_source ~file:"t.c" "int f(int *p) { kfree(p); return *p; }"
            [ sm ]
        in
        Alcotest.(check int) "same error" 1 (List.length r.Engine.reports));
    t "all registry sources compile" `Quick (fun () ->
        List.iter
          (fun e -> ignore (e.Registry.e_make ()))
          (Registry.all ()));
    t "checker sizes match the paper's 10-200 line claim" `Quick (fun () ->
        List.iter
          (fun e ->
            let loc = Registry.loc e in
            if Option.is_some e.Registry.e_source then
              Alcotest.(check bool)
                (e.Registry.e_name ^ " size")
                true
                (loc >= 3 && loc <= 200))
          (Registry.all ()));
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
      (QCheck2.Test.make ~name:"a mangled metal file loads or fails at a position"
         ~count:400 ~print:print_mutant mutant_gen loads_or_fails);
  ]
