(* Fault containment: parser error recovery, per-root analysis budgets,
   and worker isolation. Every case checks the same invariant from a
   different angle — a fault in one unit of work (definition, file, root,
   worker chunk) degrades only that unit, and everything else's output is
   identical to a run without the faulty part. *)

let t = Alcotest.test_case

let report_lines (r : Engine.result) =
  List.map Report.to_string r.Engine.reports

(* The reports, counters and the nine stats fields the summary store
   persists. *)
let observed (r : Engine.result) =
  let s = r.Engine.stats in
  ( report_lines r,
    r.Engine.counters,
    [
      s.blocks_visited; s.nodes_visited; s.cache_hits; s.paths_explored;
      s.calls_followed; s.summary_hits; s.pruned_branches; s.transitions_fired;
      s.instances_created;
    ] )

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

(* r1 summarises h; r_bad enters h with a new tuple (p freed) and runs
   out of budget inside it, before its dereference; r3 then enters h with
   that same tuple and must traverse it rather than trust the summary
   r_bad left half-built (a hit there would drop r3's use after free).
   r_bad shares r1's line, so no report moves. *)
let callee_fault_src ~with_bad =
  let steps v n = String.concat " " (List.init n (fun i -> Printf.sprintf "%s = %d;" v (i + 1))) in
  Printf.sprintf
    "int h(int *p) { int x = 0; %s return *p; }\nint r1(int *p) { return h(p); }%s\n\
     int r3(int *q) { kfree(q); return h(q); }\n"
    (steps "x" 19)
    (if with_bad then
       Printf.sprintf " int r_bad(int *p, int y) { %s kfree(p); return h(p); }" (steps "y" 20)
     else "")

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
        (* a budgeted run of just the healthy roots and a budgeted run
           including the exploding root agree on reports, counters and
           stats exactly, at -j 1 and -j 2 *)
        List.iter
          (fun (label, budget, healthy_src, faulty_src) ->
            let options =
              { Engine.default_options with max_nodes_per_root = budget }
            in
            let run ~jobs src =
              fst
                (with_diag (fun () ->
                     Engine.run ~options ~jobs
                       (Supergraph.build [ Cparse.parse_tunit ~file:"t.c" src ])
                       [ free () ]))
            in
            List.iter
              (fun jobs ->
                let label = Printf.sprintf "%s (j=%d)" label jobs in
                let healthy = run ~jobs healthy_src in
                let faulty = run ~jobs faulty_src in
                Alcotest.(check int) (label ^ ": healthy roots unaffected") 0
                  (List.length healthy.Engine.degraded);
                Alcotest.(check int) (label ^ ": one root degraded") 1
                  (List.length faulty.Engine.degraded);
                let reports, counters, stats = observed faulty in
                let reports0, counters0, stats0 = observed healthy in
                Alcotest.(check (list string)) (label ^ ": reports agree") reports0 reports;
                Alcotest.(check (list (triple string int int)))
                  (label ^ ": counters agree") counters0 counters;
                Alcotest.(check (list int)) (label ^ ": stats agree") stats0 stats)
              [ 1; 2 ])
          [
            ("exploding last root", 40, explosion_src, explosion_src ^ explode_fn);
            ( "budget out inside a summarised callee",
              80,
              callee_fault_src ~with_bad:false,
              callee_fault_src ~with_bad:true );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Generated fault positions                                           *)
(* ------------------------------------------------------------------ *)

(* A root past its node budget that first calls every shared helper of a
   linked corpus, so it probes, extends and counts the very summaries
   that later roots reuse at -j 1. Appended after the last line of a
   file, it moves no other line. *)
let fault_root =
  "int fault_root(struct lk *l, int n, int a, int b) {\n\
  \  int *p = shared_alloc(n);\n\
  \  lock(l);\n\
  \  shared_unlock(l);\n\
  \  shared_release(p);\n"
  ^ String.concat "" (List.init 150 (fun _ -> "  if (a) { b = 1; }\n"))
  ^ "  return b;\n}\n"

let rec rm_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [fault_root] at the end of file [pos] of a seeded 3x6 linked corpus,
   all 14 checkers, a 300-node budget: only [fault_root] degrades, and
   every run reads as the healthy program's run at the same -j. A cached
   run, cold or warm, is the per-root driver at any -j, so the healthy
   -j 2 run is its reference. *)
let fault_position (seed, pos) =
  let files =
    List.map
      (fun (f, (g : Gen.t)) -> (f, g.Gen.source))
      (Gen.generate_linked ~seed ~n_files:3 ~funcs_per_file:6 ~bug_rate:0.4)
  in
  let target = fst (List.nth files (pos mod List.length files)) in
  let faulty =
    List.map (fun (f, src) -> (f, if f = target then src ^ fault_root else src)) files
  in
  let options = { Engine.default_options with max_nodes_per_root = 300 } in
  let entries = Registry.all () in
  let run ?cache ~jobs files =
    fst
      (with_diag (fun () ->
           Engine.run ~options ~jobs ?cache
             (Supergraph.build
                (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files))
             (List.map (fun (e : Registry.entry) -> e.e_make ()) entries)))
  in
  let dir = Temp.dir "xgcc_fault_position" in
  let store () =
    Summary_store.create ~dir
      ~ext_keys:
        (Summary_store.ext_keys_of
           ~options_digest:(Engine.options_digest options)
           ~sources:(List.map (fun (e : Registry.entry) -> e.e_name) entries))
      ()
  in
  let check label (healthy : Engine.result) (r : Engine.result) =
    if healthy.Engine.degraded <> [] then
      QCheck2.Test.fail_reportf "%s: the healthy program degrades" label;
    let roots = List.map (fun (d : Engine.degraded) -> d.Engine.d_root) r.Engine.degraded in
    if List.sort_uniq String.compare roots <> [ "fault_root" ] then
      QCheck2.Test.fail_reportf "%s: degraded roots [%s]" label (String.concat "; " roots);
    let reports, counters, stats = observed r in
    let reports0, counters0, stats0 = observed healthy in
    if reports <> reports0 then QCheck2.Test.fail_reportf "%s: reports differ" label;
    if counters <> counters0 then QCheck2.Test.fail_reportf "%s: counters differ" label;
    if stats <> stats0 then
      QCheck2.Test.fail_reportf "%s: stats [%s], healthy [%s]" label
        (String.concat " " (List.map string_of_int stats))
        (String.concat " " (List.map string_of_int stats0))
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_tree dir)
    (fun () ->
      let healthy1 = run ~jobs:1 files and healthy2 = run ~jobs:2 files in
      check "-j 1" healthy1 (run ~jobs:1 faulty);
      check "-j 2" healthy2 (run ~jobs:2 faulty);
      check "cold" healthy2 (run ~cache:(store ()) ~jobs:1 faulty);
      check "warm" healthy2 (run ~cache:(store ()) ~jobs:1 faulty);
      true)

let position_tests =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
      (QCheck2.Test.make ~name:"a degraded root changes no other output at any position"
         ~count:6
         ~print:(fun (seed, pos) -> Printf.sprintf "seed %d, fault_root ending file %d" seed pos)
         QCheck2.Gen.(pair (int_range 1 30) (int_bound 3))
         fault_position);
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
        let good = Temp.file "mc_fault" ".mcast" in
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
        let bad = Temp.file "mc_fault_bad" ".mcast" in
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

let suite = parse_recovery_tests @ budget_tests @ worker_tests @ mcast_tests @ position_tests
