(* Fault containment: parser error recovery, per-root analysis budgets,
   and worker isolation. Every case checks the same invariant from a
   different angle — a fault in one unit of work (definition, file, root,
   worker chunk) degrades only that unit, and everything else's output is
   identical to a run without the faulty part. *)

let t = Alcotest.test_case

let report_lines (r : Engine.result) =
  List.map Report.to_string r.Engine.reports

(* Capture Diag warnings so fault-injection tests keep stderr quiet and
   can assert on the diagnostics themselves. *)
let with_diag f =
  let warnings = ref [] in
  let saved = !Diag.sink in
  Diag.sink := (fun s -> warnings := s :: !warnings);
  Fun.protect
    ~finally:(fun () -> Diag.sink := saved)
    (fun () ->
      let v = f () in
      (v, List.rev !warnings))

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1))
  in
  go 0

let free () = Free_checker.checker ()

(* An extension whose action blows up whenever the analysed code calls
   boom(): the engine must treat the raise like any other per-root fault. *)
let crasher () =
  Sm.make ~name:"crasher"
    [
      {
        Sm.tr_source = Sm.Src_global "start";
        tr_pattern = Pattern.Pexpr (Cparse.expr_of_string ~file:"<crash>" "boom()");
        tr_dest = Sm.Same;
        tr_action = Some (fun _ -> failwith "injected fault");
      };
    ]

let parse_recovery_tests =
  [
    t "mid-file parse error: rest of the file still analysed" `Quick (fun () ->
        let src =
          "int f(int *p) { kfree(p); return *p; }\n\
           int broken(void) { return }\n\
           int g(int *q) { kfree(q); return *q; }\n"
        in
        let (r, stubs), warnings =
          with_diag (fun () ->
              let tu = Cparse.parse_tunit ~file:"t.c" src in
              let stubs =
                List.filter_map
                  (function Cast.Gskipped sk -> Some sk | _ -> None)
                  tu.Cast.tu_globals
              in
              (Engine.run (Supergraph.build [ tu ]) [ free () ], stubs))
        in
        Alcotest.(check int) "one stub" 1 (List.length stubs);
        Alcotest.(check (option string))
          "stub names the definition" (Some "broken")
          (List.hd stubs).Cast.sk_name;
        Alcotest.(check int) "both good functions report" 2
          (List.length r.Engine.reports);
        Alcotest.(check int) "skip warned once" 1 (List.length warnings);
        Alcotest.(check bool) "uniform prefix" true
          (contains (List.hd warnings) "xgcc: warning:"));
    t "parse error in file 1 of 3: other files byte-identical" `Quick
      (fun () ->
        let a = "int f(int *p) { kfree(p); return *p; }" in
        let broken = "int oops(void) { return }" in
        let c = "int h(int *r) { kfree(r); return *r; }" in
        let run files =
          fst
            (with_diag (fun () ->
                 let tus =
                   List.map (fun (f, s) -> Cparse.parse_tunit ~file:f s) files
                 in
                 Engine.run (Supergraph.build tus) [ free () ]))
        in
        let with_broken =
          run [ ("a.c", a); ("broken.c", broken); ("c.c", c) ]
        in
        let without = run [ ("a.c", a); ("c.c", c) ] in
        Alcotest.(check (list string))
          "good-file reports unchanged"
          (report_lines without) (report_lines with_broken));
  ]

(* A root whose path count explodes combinatorially, next to small healthy
   roots; placed last so dropping it does not shift the others' locations. *)
let explosion_src =
  "int f(int *p) { kfree(p); return *p; }\n\
   int h(int *r) { kfree(r); return *r; }\n"

let explode_fn =
  "int explode(int a, int b, int c, int d) {\n\
  \  int *p1; int *p2; int *p3; int *p4;\n\
  \  if (a) { kfree(p1); } if (b) { kfree(p2); }\n\
  \  if (c) { kfree(p3); } if (d) { kfree(p4); }\n\
  \  if (a) { b = 1; } if (b) { c = 1; } if (c) { d = 1; } if (d) { a = 1; }\n\
  \  return *p1 + *p2 + *p3 + *p4;\n\
   }\n"

let budget_tests =
  [
    t "node budget degrades only the exploding root" `Quick (fun () ->
        let budgeted =
          { Engine.default_options with max_nodes_per_root = 40 }
        in
        let run ?(options = Engine.default_options) ?(jobs = 1) src =
          fst
            (with_diag (fun () ->
                 Engine.run ~options ~jobs
                   (Supergraph.build [ Cparse.parse_tunit ~file:"t.c" src ])
                   [ free () ]))
        in
        let healthy = run explosion_src in
        Alcotest.(check (list string)) "baseline sanity" []
          (List.map (fun (d : Engine.degraded) -> d.Engine.d_root)
             healthy.Engine.degraded);
        List.iter
          (fun jobs ->
            let r = run ~options:budgeted ~jobs (explosion_src ^ explode_fn) in
            (match r.Engine.degraded with
            | [ d ] ->
                Alcotest.(check string)
                  (Printf.sprintf "degraded root (j=%d)" jobs)
                  "explode" d.Engine.d_root;
                Alcotest.(check bool) "reason names the budget" true
                  (contains d.Engine.d_reason "budget")
            | ds ->
                Alcotest.failf "expected one degraded root at j=%d, got %d"
                  jobs (List.length ds));
            Alcotest.(check (list string))
              (Printf.sprintf "other roots byte-identical (j=%d)" jobs)
              (report_lines healthy) (report_lines r))
          [ 1; 2 ]);
    t "budget exhaustion does not leak partial stats or summaries" `Quick
      (fun () ->
        (* the degraded root's rollback restores counters: a budgeted run of
           just the healthy roots and a budgeted run including the exploding
           root agree on reports exactly *)
        let options =
          { Engine.default_options with max_nodes_per_root = 40 }
        in
        let run src =
          fst
            (with_diag (fun () ->
                 Engine.run ~options
                   (Supergraph.build [ Cparse.parse_tunit ~file:"t.c" src ])
                   [ free () ]))
        in
        let healthy = run explosion_src in
        let faulty = run (explosion_src ^ explode_fn) in
        Alcotest.(check int) "healthy roots unaffected" 0
          (List.length healthy.Engine.degraded);
        Alcotest.(check (list string)) "reports agree"
          (report_lines healthy) (report_lines faulty);
        Alcotest.(check int) "stats rolled back" healthy.Engine.stats.Engine.nodes_visited
          faulty.Engine.stats.Engine.nodes_visited);
  ]

let worker_tests =
  [
    t "worker exception at -j 2 degrades one root, rest identical" `Quick
      (fun () ->
        (* boom() sits in its own root; the crashing extension must not
           take down the free checker's reports from any root, and -j 2
           output must match -j 1 *)
        let src =
          "int f(int *p) { kfree(p); return *p; }\n\
           int bad(void) { boom(); return 0; }\n\
           int h(int *r) { kfree(r); return *r; }\n"
        in
        let run jobs =
          fst
            (with_diag (fun () ->
                 Engine.run ~jobs
                   (Supergraph.build [ Cparse.parse_tunit ~file:"t.c" src ])
                   [ crasher (); free () ]))
        in
        let r1 = run 1 and r2 = run 2 in
        List.iter
          (fun (label, (r : Engine.result)) ->
            match r.Engine.degraded with
            | [ d ] ->
                Alcotest.(check string) (label ^ " root") "bad" d.Engine.d_root;
                Alcotest.(check bool) (label ^ " reason") true
                  (contains d.Engine.d_reason "injected fault")
            | ds ->
                Alcotest.failf "%s: expected one degraded root, got %d" label
                  (List.length ds))
          [ ("j1", r1); ("j2", r2) ];
        Alcotest.(check int) "free checker reports survive" 2
          (List.length r1.Engine.reports);
        Alcotest.(check (list string)) "parallel identical to sequential"
          (report_lines r1) (report_lines r2));
  ]

let mcast_tests =
  [
    t "corrupt .mcast yields Error, intact one round-trips" `Quick (fun () ->
        let good = Filename.temp_file "mc_fault" ".mcast" in
        let tu = Cparse.parse_tunit ~file:"t.c" "int f(void) { return 0; }" in
        Cast_io.emit_file good tu;
        (match Cast_io.read_file good with
        | Ok tu' ->
            Alcotest.(check int) "globals preserved"
              (List.length tu.Cast.tu_globals)
              (List.length tu'.Cast.tu_globals)
        | Error e -> Alcotest.failf "intact file rejected: %s" e);
        (* truncate the valid encoding mid-stream *)
        let full = In_channel.with_open_bin good In_channel.input_all in
        let bad = Filename.temp_file "mc_fault_bad" ".mcast" in
        Out_channel.with_open_bin bad (fun oc ->
            Out_channel.output_string oc
              (String.sub full 0 (String.length full / 2)));
        (match Cast_io.read_file bad with
        | Error e -> Alcotest.(check bool) "has description" true (String.length e > 0)
        | Ok _ -> Alcotest.fail "truncated file accepted");
        (* outright garbage, and the s-expression form older builds'
           [emit] wrote *)
        List.iter
          (fun (label, text) ->
            Out_channel.with_open_bin bad (fun oc -> Out_channel.output_string oc text);
            match Cast_io.read_file bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s accepted" label)
          [
            ("garbage", "\x00\xffnot a sexp((((");
            ( "sexp .mcast",
              "(tunit t.c (fun f (int s int) () fixed extern (@ t.c 1 1) t.c ((block \
               ((rete ((i 0) (@ t.c 1 22))) (@ t.c 1 15))) (@ t.c 1 1))))\n" );
          ];
        (* missing file: contained as Error, not Sys_error *)
        (match Cast_io.read_file "/nonexistent/xgcc.mcast" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "missing file accepted");
        Sys.remove good;
        Sys.remove bad);
  ]

let suite = parse_recovery_tests @ budget_tests @ worker_tests @ mcast_tests
