(* Interprocedural analysis: Table 2 refine/restore rules, function
   summaries, recursion, cross-file state. *)

let t = Alcotest.test_case
let e s = Cparse.expr_of_string ~file:"<t>" s

let run ?options ?(checkers = [ Free_checker.checker () ]) src =
  Engine.check_source ?options ~file:"t.c" src checkers

let count result = List.length result.Engine.reports
let msgs result = List.map (fun (r : Report.t) -> r.Report.message) result.Engine.reports

(* --- unit tests of the mapping (Table 2) ---------------------------- *)

let mapping params args =
  Refine.make_mapping
    ~params:(List.map (fun p -> (p, Ctyp.void_ptr)) params)
    ~args:(List.map e args)

let refine m tree = Cprint.expr_to_string (Refine.refine_tree m (e tree))
let restore m tree = Cprint.expr_to_string (Refine.restore_tree m (e tree))

let suite =
  [
    t "T2 row 1: xa/xf, state in xa" `Quick (fun () ->
        let m = mapping [ "xf" ] [ "xa" ] in
        Alcotest.(check string) "refine" "xf" (refine m "xa");
        Alcotest.(check string) "restore" "xa" (restore m "xf"));
    t "T2 row 2: &xa/xf, state in xa maps through *xf" `Quick (fun () ->
        let m = mapping [ "xf" ] [ "&xa" ] in
        Alcotest.(check string) "refine" "*xf" (refine m "xa");
        Alcotest.(check string) "restore" "xa" (restore m "*xf"));
    t "T2 row 3: state in xa.field" `Quick (fun () ->
        let m = mapping [ "xf" ] [ "xa" ] in
        Alcotest.(check string) "refine" "xf.field" (refine m "xa.field");
        Alcotest.(check string) "restore" "xa.field" (restore m "xf.field"));
    t "T2 row 4: state in xa->field" `Quick (fun () ->
        let m = mapping [ "xf" ] [ "xa" ] in
        Alcotest.(check string) "refine" "xf->field" (refine m "xa->field");
        Alcotest.(check string) "restore" "xa->field" (restore m "xf->field"));
    t "T2 row 5: state in *xa" `Quick (fun () ->
        let m = mapping [ "xf" ] [ "xa" ] in
        Alcotest.(check string) "refine" "*xf" (refine m "*xa");
        Alcotest.(check string) "restore" "*xa" (restore m "*xf"));
    t "T2: deeper indirection levels" `Quick (fun () ->
        let m = mapping [ "p" ] [ "q" ] in
        Alcotest.(check string) "refine" "**p" (refine m "**q");
        Alcotest.(check string) "restore" "*q->next" (restore m "*p->next"));
    t "T2: complex actual expression" `Quick (fun () ->
        let m = mapping [ "f" ] [ "dev->buf" ] in
        Alcotest.(check string) "refine" "*f" (refine m "*dev->buf");
        Alcotest.(check string) "restore" "dev->buf[3]" (restore m "f[3]"));
    t "same-name actual and formal round-trips" `Quick (fun () ->
        let m = mapping [ "p" ] [ "p" ] in
        Alcotest.(check string) "refine" "p" (refine m "p");
        Alcotest.(check string) "restore" "*p" (restore m "*p"));
    t "larger actuals substitute first" `Quick (fun () ->
        let m = mapping [ "a"; "b" ] [ "p"; "p->next" ] in
        Alcotest.(check string) "p->next goes to b" "b" (refine m "p->next");
        Alcotest.(check string) "p goes to a" "a" (refine m "p"));
    t "casted actual is stripped" `Quick (fun () ->
        let m =
          Refine.make_mapping
            ~params:[ ("xf", Ctyp.void_ptr) ]
            ~args:[ e "(void *)xa" ]
        in
        Alcotest.(check string) "refine" "xf"
          (Cprint.expr_to_string (Refine.refine_tree m (e "xa"))));
    (* --- end-to-end interprocedural ------------------------------- *)
    t "state flows into callee (paper step 3)" `Quick (fun () ->
        let src =
          "int use(int *q) { return *q; }\n\
           int top(int *p) { kfree(p); return use(p); }"
        in
        let r = run src in
        Alcotest.(check (list string)) "err in callee" [ "using q after free!" ] (msgs r));
    t "state flows back to caller (by reference)" `Quick (fun () ->
        let src =
          "void release(int *q) { kfree(q); }\n\
           int top(int *p) { release(p); return *p; }"
        in
        let r = run src in
        Alcotest.(check (list string)) "err in caller" [ "using p after free!" ] (msgs r));
    t "by-value restore keeps caller state (Table 2 option)" `Quick (fun () ->
        let sm =
          List.hd
            (Metal_compile.load ~file:"<m>"
               ({|sm bv { option byval_restore; state decl any_pointer v;
                  start: { kfree(v) } ==> v.freed;
                  v.freed: { *v } ==> v.stop, { err("use after free"); }; }|}))
        in
        (* callee re-frees its (by-value) view; caller keeps 'freed' from
           its own kfree; no crash, exactly one error at the caller deref *)
        let src =
          "void touch(int *q) { q = 0; }\n\
           int top(int *p) { kfree(p); touch(p); return *p; }"
        in
        let r = run ~checkers:[ sm ] src in
        Alcotest.(check int) "caller err" 1 (count r));
    t "address-of actual: state through *xf" `Quick (fun () ->
        let src =
          "void freeit(int **h) { kfree(*h); }\n\
           int top(int *p) { freeit(&p); return *p; }"
        in
        let r = run src in
        Alcotest.(check (list string)) "err" [ "using p after free!" ] (msgs r));
    t "callee-local state dies at return" `Quick (fun () ->
        let src =
          "int inner(void) { int *t = kmalloc(4); kfree(t); return 0; }\n\
           int top(int *p) { inner(); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "clean" 0 (count r));
    t "caller-local state survives the call" `Quick (fun () ->
        let src =
          "void noop(int x) { x = x + 1; }\n\
           int top(void) { int *p = kmalloc(4); kfree(p); noop(1); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "err" 1 (count r));
    t "global object state passes through calls" `Quick (fun () ->
        let src =
          "int *gp;\n\
           void gfree(void) { kfree(gp); }\n\
           int top(void) { gfree(); return *gp; }"
        in
        let r = run src in
        Alcotest.(check (list string)) "err on global" [ "using gp after free!" ] (msgs r));
    t "function summaries avoid re-analysis" `Quick (fun () ->
        let src = Synth.call_tree ~depth:3 ~fanout:3 in
        let r = run src in
        Alcotest.(check bool) "summary hits" true
          (r.Engine.stats.Engine.summary_hits > 5);
        (* the use-after-free at the root, plus the (real) double free when
           the second subtree re-frees p *)
        let root_errs =
          List.filter (fun (x : Report.t) -> String.equal x.Report.func "troot") r.Engine.reports
        in
        Alcotest.(check int) "one error at root" 1 (List.length root_errs));
    t "deep call chain propagates state" `Quick (fun () ->
        let r = run (Synth.call_chain ~depth:10) in
        Alcotest.(check int) "err" 1 (count r);
        match r.Engine.reports with
        | rep :: _ ->
            Alcotest.(check bool) "interprocedural" true (rep.Report.call_depth > 0)
        | [] -> ());
    t "recursion terminates" `Quick (fun () ->
        let src =
          "int walk(int *p, int n) { if (n) { return walk(p, n - 1); } kfree(p); return 0; }\n\
           int top(int *p) { walk(p, 3); return *p; }"
        in
        let r = run src in
        Alcotest.(check bool) "terminates" true (count r >= 0));
    t "mutual recursion terminates" `Quick (fun () ->
        let src =
          "int pong(int n);\n\
           int ping(int n) { if (n) { return pong(n - 1); } return 0; }\n\
           int pong(int n) { return ping(n); }\n\
           int top(void) { return ping(5); }"
        in
        let r = run src in
        Alcotest.(check int) "no reports" 0 (count r));
    t "different entry states re-analyze the callee" `Quick (fun () ->
        let src =
          "int use(int *q) { return *q; }\n\
           int top(int *p, int *w) { use(p); kfree(p); use(p); return 0; }"
        in
        let r = run src in
        (* second call enters with p freed: error inside use *)
        Alcotest.(check int) "err on second call" 1 (count r));
    t "static file-scope state is inactivated across files" `Quick (fun () ->
        let tu1 =
          Cparse.parse_tunit ~file:"a.c"
            "static int *fsp;\n\
             int other_file(void);\n\
             int top(void) { kfree(fsp); other_file(); return *fsp; }"
        in
        let tu2 =
          Cparse.parse_tunit ~file:"b.c"
            "int other_file(void) { return 0; }"
        in
        let sg = Supergraph.build [ tu1; tu2 ] in
        let r = Engine.run sg [ Free_checker.checker () ] in
        (* state survives the cross-file call and still flags the deref *)
        Alcotest.(check int) "err" 1 (List.length r.Engine.reports));
    t "interproc can be disabled" `Quick (fun () ->
        let src =
          "void release(int *q) { kfree(q); }\n\
           int top(int *p) { release(p); return *p; }"
        in
        let r =
          run ~options:{ Engine.default_options with Engine.interproc = false } src
        in
        Alcotest.(check int) "no cross-function err" 0 (count r));
    t "matched calls are not followed (kfree is modelled)" `Quick (fun () ->
        (* define kfree in-program: the extension matches it, so the body
           must not be traversed (which would kill the state) *)
        let src =
          "void kfree(int *x) { x = 0; }\n\
           int top(int *p) { kfree(p); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "still flagged" 1 (count r));
    t "value flow: state returns through allocation wrappers" `Quick (fun () ->
        let src =
          "int *alloc_obj(int n) { int *q = kmalloc(n); return q; }\n\
           int user(int n) { int *p = alloc_obj(n); return *p; }\n\
           int user_ok(int n) { int *p = alloc_obj(n); if (!p) { return -1; } return *p; }"
        in
        let r = run ~checkers:[ Null_checker.checker () ] src in
        Alcotest.(check int) "one unchecked deref" 1 (count r);
        match r.Engine.reports with
        | [ rep ] -> Alcotest.(check string) "in user" "user" rep.Report.func
        | _ -> ());
    t "value flow: freed state through a returning wrapper" `Quick (fun () ->
        let src =
          "int *make(int n) { int *q = kmalloc(n); return q; }\n\
           int f(int n) { int *p = make(n); kfree(p); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "uaf found" 1 (count r));
    t "bare-hole patterns do not suppress call following" `Quick (fun () ->
        (* a checker whose only var pattern is { v } must still follow
           pointer-returning calls *)
        let src =
          "int *wrap(int *p) { kfree(p); return p; }\n\
           int f(int *p) { wrap(p); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "followed and flagged" 1 (count r);
        Alcotest.(check bool) "call followed" true
          (r.Engine.stats.Engine.calls_followed >= 1));
    t "conditional free in callee over-approximates to the caller" `Quick
      (fun () ->
        (* the function summary merges both callee paths; the caller
           continues with the freed outcome and flags the possible UAF *)
        let src =
          "void maybe_free(int *q, int c) { if (c) { kfree(q); } }\n\
           int top(int *p, int c) { maybe_free(p, c); return *p; }"
        in
        let r = run src in
        Alcotest.(check int) "possible UAF" 1 (count r));
    t "call-chain length accumulates through stacked summaries" `Quick (fun () ->
        let r = run (Synth.call_chain ~depth:10) in
        match r.Engine.reports with
        | [ rep ] ->
            Alcotest.(check bool)
              (Printf.sprintf "depth %d >= 5" rep.Report.call_depth)
              true
              (rep.Report.call_depth >= 5)
        | _ -> Alcotest.fail "expected one report");
    t "check_files analyses a multi-file program from disk" `Quick (fun () ->
        let f1 = Temp.file "mc_a" ".c" in
        let f2 = Temp.file "mc_b" ".c" in
        let write path s =
          let oc = open_out path in
          output_string oc s;
          close_out oc
        in
        write f1 "void release(int *q) { kfree(q); }";
        write f2 "int top(int *p) { release(p); return *p; }";
        let r = Engine.check_files [ f1; f2 ] [ Free_checker.checker () ] in
        Sys.remove f1;
        Sys.remove f2;
        Alcotest.(check int) "cross-file err" 1 (count r));
    t "paper example end-to-end (Figure 2 trace)" `Quick (fun () ->
        let src =
          "int contrived(int *p, int *w, int x) {\n\
           int *q;\n\
           if (x) { kfree(w); q = p; p = 0; }\n\
           if (!x) return *w;\n\
           return *q;\n\
           }\n\
           int contrived_caller(int *w, int x, int *p) {\n\
           kfree(p);\n\
           contrived(p, w, x);\n\
           return *w;\n\
           }"
        in
        let r = run src in
        Alcotest.(check int) "two errors" 2 (count r));
  ]
