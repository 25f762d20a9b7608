(* AST serialisation (the two-pass architecture): the binary frame that
   [xgcc emit] writes and the AST cache stores, and the [cache dump]
   rendering of summary-store packs. *)

let t = Alcotest.test_case

(* one value through a [Wire] encoder and back *)
let bin_rt enc dec v =
  let b = Wire.writer () in
  enc b v;
  dec (Wire.reader (Wire.contents b))

let read_back tu =
  match Cast_io.read_string (Cast_io.emit_string tu) with
  | Ok tu -> tu
  | Error e -> Alcotest.failf "emitted object does not decode: %s" e

let suite =
  [
    t "expr serialisation round trip" `Quick (fun () ->
        List.iter
          (fun src ->
            let e = Cparse.expr_of_string ~file:"t.c" src in
            let back = bin_rt Cast_io.expr_to_bin Cast_io.expr_of_bin e in
            Alcotest.(check bool) ("rt " ^ src) true (Cast.equal_expr e back))
          [
            "a + b * 2"; "f(x, y[i])"; "*p->next"; "(char *)buf"; "a ? b : c";
            "x = y = 0"; "s.f1.f2"; "sizeof(int)"; "sizeof(x + 1)"; "a, b";
            "-x + !y"; "p++ + --q"; "\"string with spaces\""; "'c'"; "x += 3";
          ]);
    t "ctyp serialisation round trip" `Quick (fun () ->
        List.iter
          (fun ty ->
            let back = bin_rt Cast_io.ctyp_to_bin Cast_io.ctyp_of_bin ty in
            Alcotest.(check bool) (Ctyp.to_string ty) true (Ctyp.equal ty back))
          [
            Ctyp.Void; Ctyp.int_; Ctyp.unsigned_int; Ctyp.char_;
            Ctyp.Ptr (Ctyp.Ptr Ctyp.Void);
            Ctyp.Array (Ctyp.int_, Some 4);
            Ctyp.Array (Ctyp.char_, None);
            Ctyp.Func (Ctyp.int_, [ Ctyp.int_; Ctyp.Ptr Ctyp.char_ ], true);
            Ctyp.Struct "s"; Ctyp.Union "u"; Ctyp.Enum "e"; Ctyp.Named "t";
            Ctyp.Unknown;
          ]);
    t "tunit round trip preserves analysis results" `Quick (fun () ->
        let src =
          "struct lk { int h; };\n\
           typedef int myint;\n\
           enum mode { A, B = 5 };\n\
           static int fsv;\n\
           int helper(int *p);\n\
           int f(int *p, int n) {\n\
           int *q = kmalloc(n);\n\
           if (!q) { return -1; }\n\
           kfree(p);\n\
           switch (n) { case 1: return *p; default: break; }\n\
           while (n > 0) { n--; }\n\
           kfree(q);\n\
           return 0;\n\
           }"
        in
        let tu = Cparse.parse_tunit ~file:"orig.c" src in
        let tu2 = read_back tu in
        Alcotest.(check int) "globals" (List.length tu.Cast.tu_globals)
          (List.length tu2.Cast.tu_globals);
        let run tu = Engine.run (Supergraph.build [ tu ]) [ Free_checker.checker () ] in
        let r1 = run tu and r2 = run tu2 in
        Alcotest.(check (list string)) "same reports"
          (List.map (fun (r : Report.t) -> r.Report.message) r1.Engine.reports)
          (List.map (fun (r : Report.t) -> r.Report.message) r2.Engine.reports));
    t "emit/read files (pass 1 / pass 2)" `Quick (fun () ->
        let src = "int g(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"g.c" src in
        let path = Temp.file "mc_ast" ".mcast" in
        Cast_io.emit_file path tu;
        let tu2 =
          match Cast_io.read_file path with Ok tu -> tu | Error e -> Alcotest.fail e
        in
        Sys.remove path;
        let r = Engine.run (Supergraph.build [ tu2 ]) [ Free_checker.checker () ] in
        Alcotest.(check int) "error survives round trip" 1
          (List.length r.Engine.reports));
    t "AST files are a small multiple of the source (paper: 4-5x)" `Quick (fun () ->
        let g = Gen.generate ~seed:4 ~n_funcs:20 ~bug_rate:0.3 in
        let tu = Cparse.parse_tunit ~file:"g.c" g.Gen.source in
        let emitted = Cast_io.emit_string tu in
        let ratio =
          float_of_int (String.length emitted) /. float_of_int (String.length g.Gen.source)
        in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.1f in [2, 20]" ratio)
          true
          (ratio >= 2.0 && ratio <= 20.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"generated programs round-trip through .mcast"
         ~count:20
         QCheck2.Gen.(int_range 1 1000)
         (fun seed ->
           let g = Gen.generate ~seed ~n_funcs:6 ~bug_rate:0.5 in
           let tu = Cparse.parse_tunit ~file:"g.c" g.Gen.source in
           let tu2 = read_back tu in
           let reports tu =
             List.map
               (fun (r : Report.t) -> (r.Report.func, r.Report.message))
               (Engine.run (Supergraph.build [ tu ])
                  [ Free_checker.checker (); Lock_checker.checker () ])
                 .Engine.reports
           in
           reports tu = reports tu2));
    t "emitted .mcast equals the ast/ cache object" `Quick (fun () ->
        let dir = Test_cache.temp_dir () in
        let file = "drivers/e.c" and src = "int g(int *p) { kfree(p); return *p; }\n" in
        let tu = Cparse.parse_tunit ~file src in
        let emitted = Filename.concat dir "e.mcast" in
        Cast_io.emit_file emitted tu;
        let fp = Cast_io.ast_fingerprint ~file ~source:src in
        Cast_io.write_cached ~cache_dir:dir fp tu;
        let bytes = Test_cache.read_bytes emitted in
        Alcotest.(check string) "same bytes"
          (Test_cache.read_bytes (Cast_io.cached_path ~cache_dir:dir fp)) bytes;
        (* pass 2 reads back the unit it was emitted from *)
        match Cast_io.read_file emitted with
        | Ok tu' ->
            Alcotest.(check string) "re-emits identically" bytes (Cast_io.emit_string tu')
        | Error e -> Alcotest.fail e);
    t "cache dump renders one line per pack entry" `Quick (fun () ->
        let dir = Test_cache.temp_dir () in
        let sg = Test_cache.sg_of_files [ ("d.c", Test_cache.leaf_v1) ] in
        let run =
          Engine.run ~cache:(Test_cache.store_over dir) sg (Test_cache.free ())
        in
        let dump kind =
          match Summary_store.dump_pack (Test_cache.the_pack dir kind) with
          | Ok d -> d
          | Error e -> Alcotest.fail e
        in
        (* [entries]: (name, key, reports) in the order dump_pack gives *)
        let check_lines kind d names entries =
          let out = Format.asprintf "%a" Summary_store.pp_dump d in
          let lines = String.split_on_char '\n' out in
          Alcotest.(check int) (kind ^ ": one line per entry") (List.length entries + 1)
            (List.length lines);
          Alcotest.(check string) (kind ^ ": newline-terminated") ""
            (List.nth lines (List.length entries));
          Alcotest.(check (list string)) (kind ^ ": name order") names
            (List.map (fun (n, _, _) -> n) entries);
          List.iteri
            (fun i (name, key, reports) ->
              let line = List.nth lines i in
              let prefix = Printf.sprintf "%s %s %s " kind name key in
              Alcotest.(check bool) (prefix ^ "starts its line") true
                (String.starts_with ~prefix line);
              List.iter
                (fun r ->
                  Alcotest.(check bool) (r ^ " on its line") true (Test_faults.contains line r))
                reports)
            entries
        in
        (match dump "sum" with
        | Summary_store.Fn_entries es as d ->
            check_lines "fn" d [ "caller"; "leaf"; "unrelated" ]
              (List.map (fun (e : Summary_store.fn_entry) -> (e.f_name, e.f_key, [])) es)
        | Root_entries _ -> Alcotest.fail "sum/ pack dumps as root entries");
        match dump "root" with
        | Summary_store.Root_entries es as d ->
            let reports (e : Summary_store.root_entry) =
              List.map Report.to_string e.r_reports
            in
            check_lines "root" d [ "caller"; "unrelated" ]
              (List.map
                 (fun (e : Summary_store.root_entry) -> (e.r_root, e.r_key, reports e))
                 es);
            Alcotest.(check (list string)) "every report of the run is dumped"
              (List.sort compare (Test_cache.report_lines run))
              (List.sort compare (List.concat_map reports es))
        | Fn_entries _ -> Alcotest.fail "root/ pack dumps as fn entries");
    t "anonymous aggregates are named per unit" `Quick (fun () ->
        let dir = Test_cache.temp_dir () in
        let a = "struct { int a; } t;\nunion { int u; } w;\nint f(void) { return t.a; }\n"
        and b = "struct { int h; } s;\nenum { E1, E2 } e;\nint g(void) { return s.h; }\n" in
        let emit name src =
          let out = Filename.concat dir (Filename.chop_suffix name ".c" ^ ".mcast") in
          Cast_io.emit_file out (Cparse.parse_tunit ~file:name src);
          Test_cache.read_bytes out
        in
        (* emit b.c alone, then a.c b.c, then b.c on another domain while
           a.c parses here (emit -j) *)
        let alone = emit "b.c" b in
        ignore (emit "a.c" a);
        let after_a = emit "b.c" b in
        let d = Domain.spawn (fun () -> Cast_io.emit_string (Cparse.parse_tunit ~file:"b.c" b)) in
        ignore (Cparse.parse_tunit ~file:"a.c" a);
        let on_domain = Domain.join d in
        Alcotest.(check string) "b.c after a.c" alone after_a;
        Alcotest.(check string) "b.c on another domain" alone on_domain;
        let names src file =
          List.filter_map
            (function
              | Cast.Gcomposite { cname; _ } -> Some cname
              | Cast.Genum { ename; _ } -> Some ename
              | _ -> None)
            (Cparse.parse_tunit ~file src).Cast.tu_globals
        in
        Alcotest.(check (list string)) "a.c's names" [ "<anon1:a.c>"; "<anon2:a.c>" ] (names a "a.c");
        Alcotest.(check (list string)) "b.c's names" [ "<anon1:b.c>"; "<anon2:b.c>" ] (names b "b.c"));
  ]
