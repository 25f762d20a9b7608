(* Benchmark harness: regenerates every figure/table artifact of the paper
   (see DESIGN.md's per-experiment index) and times the engine with
   bechamel. Two parts:

   1. "experiment tables" — deterministic reproductions printed as rows
      (who wins / what is found / how counts scale), mirroring what the
      paper reports qualitatively;
   2. bechamel micro-benchmarks — one Test.make per experiment id, timing
      the corresponding engine configuration. *)

open Bechamel
open Toolkit

let line () = print_endline (String.make 72 '-')

(* Machine-readable result lines: printed as "BENCH {json}" and appended to
   BENCH_results.json at the repo root (one JSON object per line). *)
let bench_out json =
  Printf.printf "BENCH %s\n" json;
  try
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_results.json"
    in
    output_string oc json;
    output_char oc '\n';
    close_out oc
  with Sys_error _ -> ()

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Shared setup                                                        *)
(* ------------------------------------------------------------------ *)

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"bench.c" src ]
let run_src ?options src checkers = Engine.run ?options (sg_of src) checkers

(* Figure 2 with the paper's exact line numbering (errors at 12 and 17) *)
let fig2_code =
  {|int contrived(int *p, int *w, int x) {
   int *q;

   if(x)
   {
      kfree(w);
      q = p;
      p = 0;
   }
   if(!x)
      return *w;
   return *q;
}
int contrived_caller(int *w, int x, int *p) {
   kfree(p);
   contrived(p, w, x);
   return *w;
}
|}

let no_cache = { Engine.default_options with Engine.caching = false }
let no_prune = { Engine.default_options with Engine.pruning = false }

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables                                           *)
(* ------------------------------------------------------------------ *)

let table_f2 () =
  header "F2 | Figure 2: the free checker on the paper's running example";
  let r = run_src fig2_code [ Free_checker.checker () ] in
  Printf.printf "%-8s %-22s %s\n" "LINE" "FUNCTION" "MESSAGE";
  List.iter
    (fun (rep : Report.t) ->
      Printf.printf "%-8d %-22s %s\n" rep.Report.loc.Srcloc.line rep.Report.func
        rep.Report.message)
    r.Engine.reports;
  Printf.printf "paper: 2 errors (lines 12, 17); measured: %d errors\n"
    (List.length r.Engine.reports)

let table_t1 () =
  header "T1 | Table 1: hole types and what they match";
  let typing =
    Ctyping.of_program
      [
        Cparse.parse_tunit ~file:"<t>"
          "int i; float fl; int *ip; char *cp; struct s { int f; } sv; int fn(int);";
      ]
  in
  let exprs =
    [ "i"; "fl"; "ip"; "cp"; "sv"; "fn(i)" ]
    |> List.map (fun s -> (s, Cparse.expr_of_string ~file:"<t>" s))
  in
  let holes =
    [
      ("int (concrete)", Holes.Concrete Ctyp.int_);
      ("any_expr", Holes.Any_expr);
      ("any_scalar", Holes.Any_scalar);
      ("any_pointer", Holes.Any_pointer);
      ("any_fn_call", Holes.Any_fn_call);
    ]
  in
  Printf.printf "%-16s" "HOLE \\ EXPR";
  List.iter (fun (s, _) -> Printf.printf " %-6s" s) exprs;
  print_newline ();
  List.iter
    (fun (hname, h) ->
      Printf.printf "%-16s" hname;
      List.iter
        (fun (_, e) ->
          Printf.printf " %-6s" (if Holes.matches typing h e then "yes" else "-"))
        exprs;
      print_newline ())
    holes

let table_t2 () =
  header "T2 | Table 2: refine/restore across a call f(xa) with formal xf";
  let e s = Cparse.expr_of_string ~file:"<t>" s in
  let show actual state =
    let m =
      Refine.make_mapping ~params:[ ("xf", Ctyp.void_ptr) ] ~args:[ e actual ]
    in
    let refined = Refine.refine_tree m (e state) in
    let restored = Refine.restore_tree m refined in
    Printf.printf "%-8s %-12s refine: state(%s)    restore: state(%s)\n" actual state
      (Cprint.expr_to_string refined)
      (Cprint.expr_to_string restored)
  in
  Printf.printf "%-8s %-12s %s\n" "ACTUAL" "STATE IN" "RULE";
  show "xa" "xa";
  show "&xa" "xa";
  show "xa" "xa.field";
  show "xa" "xa->field";
  show "xa" "*xa"

let table_p1 () =
  header "P1 | SM independence: cost scales linearly in tracked instances";
  Printf.printf "%-12s %-12s %-12s %-10s\n" "INSTANCES" "NODES" "BLOCKS" "ERRORS";
  List.iter
    (fun n ->
      let r = run_src (Synth.many_tracked ~n) [ Free_checker.checker () ] in
      Printf.printf "%-12d %-12d %-12d %-10d\n" n r.Engine.stats.Engine.nodes_visited
        r.Engine.stats.Engine.blocks_visited
        (List.length r.Engine.reports))
    [ 4; 8; 16; 32 ];
  Printf.printf "paper claim: linear (not exponential) growth with instances\n"

let table_p2 () =
  header "P2 | Block caching: exponential paths collapse to linear";
  Printf.printf "%-10s %-16s %-16s %-14s\n" "DIAMONDS" "PATHS(cached)" "PATHS(no cache)"
    "ERRORS(same?)";
  List.iter
    (fun n ->
      let src = Synth.diamond_chain ~n in
      let on = run_src src [ Free_checker.checker () ] in
      let off = run_src ~options:no_cache src [ Free_checker.checker () ] in
      Printf.printf "%-10d %-16d %-16d %b\n" n on.Engine.stats.Engine.paths_explored
        off.Engine.stats.Engine.paths_explored
        (List.length on.Engine.reports = List.length off.Engine.reports))
    [ 4; 8; 12 ];
  Printf.printf "paper claim: caching makes the DFS tractable on real code\n"

let table_p3 () =
  header "P3 | Function summaries memoise whole-function effects";
  Printf.printf "%-22s %-10s %-14s %-14s\n" "WORKLOAD" "CALLS" "SUMMARY-HITS"
    "TRAVERSALS";
  List.iter
    (fun (name, src) ->
      let r = run_src src [ Free_checker.checker () ] in
      let st = r.Engine.stats in
      Printf.printf "%-22s %-10d %-14d %-14d\n" name st.Engine.calls_followed
        st.Engine.summary_hits
        (st.Engine.calls_followed - st.Engine.summary_hits))
    [
      ("chain depth 12", Synth.call_chain ~depth:12);
      ("tree 3^3 + helper", Synth.call_tree ~depth:3 ~fanout:3);
      ("tree 2^6 + helper", Synth.call_tree ~depth:6 ~fanout:2);
    ];
  Printf.printf
    "paper claim: each function is analysed per entry state, not per callsite\n"

let table_p4 () =
  header "P4 | False-path pruning kills correlated-branch false positives";
  Printf.printf "%-10s %-18s %-18s\n" "PAIRS" "FP(pruning on)" "FP(pruning off)";
  List.iter
    (fun n ->
      let src = Synth.correlated_branches ~n in
      let on = run_src src [ Free_checker.checker () ] in
      let off = run_src ~options:no_prune src [ Free_checker.checker () ] in
      Printf.printf "%-10d %-18d %-18d\n" n
        (List.length on.Engine.reports)
        (List.length off.Engine.reports))
    [ 2; 4; 6 ];
  Printf.printf "paper claim (Fig. 2): contradictory conditions yield no reports\n";
  let no_kill = { Engine.default_options with Engine.auto_kill = false } in
  Printf.printf "\nkill-on-redefinition ('the single most important technique'):\n";
  Printf.printf "%-10s %-18s %-18s\n" "FUNCS" "FP(kill on)" "FP(kill off)";
  List.iter
    (fun n ->
      let src = Synth.kill_workload ~n in
      let on = run_src src [ Free_checker.checker () ] in
      let off = run_src ~options:no_kill src [ Free_checker.checker () ] in
      Printf.printf "%-10d %-18d %-18d\n" n
        (List.length on.Engine.reports)
        (List.length off.Engine.reports))
    [ 4; 16 ]

let table_p5 () =
  header "P5 | Statistical ranking: z-statistic sorts real errors first";
  let src =
    "void rel(int *p) { kfree(p); }\n\
     void maybe(int *p, int m) { if (m) { kfree(p); } }\n\
     int u1(int n) { int *a = kmalloc(n); rel(a); return *a; }\n\
     int u2(int n) { int *b = kmalloc(n); rel(b); return 0; }\n\
     int u3(int n) { int *c = kmalloc(n); rel(c); return 0; }\n\
     int u4(int n) { int *d = kmalloc(n); rel(d); return 0; }\n\
     int u5(int n) { int *e = kmalloc(n); maybe(e, 0); return *e; }\n\
     int u6(int n) { int *f = kmalloc(n); maybe(f, 0); return *f; }\n\
     int u7(int n) { int *g = kmalloc(n); maybe(g, 0); return *g; }"
  in
  let sg = sg_of src in
  let result, ranking = Free_stat.run sg ~dealloc:[ "kfree" ] in
  Printf.printf "%-14s %-8s\n" "RULE" "Z";
  List.iter (fun (rule, z) -> Printf.printf "%-14s %8.2f\n" rule z) ranking;
  let sorted =
    Rank.statistical_sort ~counters:result.Engine.counters result.Engine.reports
  in
  Printf.printf "top-ranked report: %s\n"
    (match sorted with r :: _ -> Report.to_string r | [] -> "<none>");
  Printf.printf
    "paper claim: 'all of the real errors went to the top' -- the always-free\n\
     rule outranks the conditional-free cluster\n"

let table_p6 () =
  header "P6 | Checker sizes (paper: extensions are 10-200 lines)";
  Printf.printf "%-12s %-6s %s\n" "CHECKER" "LOC" "DESCRIPTION";
  List.iter
    (fun e ->
      Printf.printf "%-12s %-6d %s\n" e.Registry.e_name (Registry.loc e)
        e.Registry.e_description)
    (Registry.all ())

let table_detection () =
  header "W  | Workload detection (substitute for the paper's kernel runs)";
  Printf.printf "%-8s %-10s %-10s %-10s %-8s\n" "SEED" "PLANTED" "DETECTED" "REPORTS"
    "FP";
  let all_checkers () = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  List.iter
    (fun seed ->
      let g = Gen.generate ~seed ~n_funcs:40 ~bug_rate:0.3 in
      let sg = sg_of g.Gen.source in
      let result = Engine.run sg (all_checkers ()) in
      let buggy = List.map (fun (p : Gen.planted) -> p.Gen.in_function) g.Gen.planted in
      let detected =
        List.filter
          (fun (p : Gen.planted) ->
            List.exists
              (fun (r : Report.t) -> String.equal r.Report.func p.Gen.in_function)
              result.Engine.reports)
          g.Gen.planted
      in
      let fps =
        List.filter
          (fun (r : Report.t) -> not (List.mem r.Report.func buggy))
          result.Engine.reports
      in
      Printf.printf "%-8d %-10d %-10d %-10d %-8d\n" seed
        (List.length g.Gen.planted)
        (List.length detected)
        (List.length result.Engine.reports)
        (List.length fps))
    [ 1; 2; 3 ]

let table_p10 () =
  header "P10| Top-down vs. exhaustive bottom-up entry states (Section 6)";
  Printf.printf "%-22s %-18s %-20s %-14s\n" "WORKLOAD" "TOP-DOWN STATES"
    "EXHAUSTIVE STATES" "RATIO";
  let free = Free_checker.checker () in
  List.iter
    (fun (name, src) ->
      let sg = sg_of src in
      let td = Baseline.topdown_entry_states sg free in
      let ex = Baseline.exhaustive_entry_states sg free in
      Printf.printf "%-22s %-18d %-20d %.1fx\n" name td ex
        (float_of_int ex /. float_of_int (max 1 td)))
    [
      ("fig2", fig2_code);
      ("call tree 3^3", Synth.call_tree ~depth:3 ~fanout:3);
      ("workload 40 fns", (Gen.generate ~seed:5 ~n_funcs:40 ~bug_rate:0.3).Gen.source);
    ];
  (* actually execute the exhaustive scheme on the small example *)
  let sg = sg_of fig2_code in
  let t0 = Sys.time () in
  let runs = Baseline.run_exhaustive sg free in
  let t_ex = Sys.time () -. t0 in
  let t1 = Sys.time () in
  ignore (Engine.run sg [ free ]);
  let t_td = Sys.time () -. t1 in
  Printf.printf
    "fig2 executed: exhaustive %d runs (%.4fs) vs top-down 1 run (%.4fs)\n" runs t_ex
    t_td;
  Printf.printf
    "paper claim: top-down analyses only the states that actually reach a function\n"

let table_scale () =
  header "S  | Whole-program scaling (all checkers, generated corpora)";
  Printf.printf "%-10s %-12s %-12s %-12s %-10s\n" "FUNCS" "NODES" "BLOCKS" "REPORTS"
    "SECONDS";
  let all_checkers () = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  List.iter
    (fun n ->
      let g = Gen.generate ~seed:55 ~n_funcs:n ~bug_rate:0.25 in
      let sg = sg_of g.Gen.source in
      let t0 = Sys.time () in
      let r = Engine.run sg (all_checkers ()) in
      let dt = Sys.time () -. t0 in
      Printf.printf "%-10d %-12d %-12d %-12d %-10.3f\n" n
        r.Engine.stats.Engine.nodes_visited r.Engine.stats.Engine.blocks_visited
        (List.length r.Engine.reports) dt)
    [ 100; 400; 1600 ];
  Printf.printf
    "paper claim: the approach scales to large programs (2 MLOC Linux)\n"

(* ------------------------------------------------------------------ *)
(* Part 2: bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

let bench_tests () =
  (* pre-build supergraphs so timings measure the engine, not the parser *)
  let free = Free_checker.checker () in
  let fig2_sg = sg_of fig2_code in
  let diamond_sg = sg_of (Synth.diamond_chain ~n:8) in
  let many_sg = sg_of (Synth.many_tracked ~n:16) in
  let tree_sg = sg_of (Synth.call_tree ~depth:3 ~fanout:3) in
  let corr_sg = sg_of (Synth.correlated_branches ~n:4) in
  let gen = Gen.generate ~seed:7 ~n_funcs:30 ~bug_rate:0.3 in
  let gen_sg = sg_of gen.Gen.source in
  let all_checkers = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  let pattern_node = Cparse.expr_of_string ~file:"<b>" "kfree(p)" in
  let pattern_holes = [ ("v", Holes.Any_expr) ] in
  let pattern = Pattern.Pexpr (Cparse.expr_of_string ~file:"<b>" "kfree(v)") in
  let pattern_ctx =
    {
      Callout.typing = Ctyping.empty;
      node = Some pattern_node;
      annots = (fun _ -> None);
    }
  in
  let zdata = List.init 50 (fun i -> (Printf.sprintf "rule%d" i, i * 3, 100 - i)) in
  [
    Test.make ~name:"fig2_free_checker"
      (stage (fun () -> Engine.run fig2_sg [ free ]));
    Test.make ~name:"caching_on_diamond8"
      (stage (fun () -> Engine.run diamond_sg [ free ]));
    Test.make ~name:"caching_off_diamond8"
      (stage (fun () -> Engine.run ~options:no_cache diamond_sg [ free ]));
    Test.make ~name:"independence_16_tracked"
      (stage (fun () -> Engine.run many_sg [ free ]));
    Test.make ~name:"interproc_summaries_tree"
      (stage (fun () -> Engine.run tree_sg [ free ]));
    Test.make ~name:"fpp_on_correlated4"
      (stage (fun () -> Engine.run corr_sg [ free ]));
    Test.make ~name:"fpp_off_correlated4"
      (stage (fun () -> Engine.run ~options:no_prune corr_sg [ free ]));
    Test.make ~name:"all_checkers_workload30"
      (stage (fun () -> Engine.run gen_sg all_checkers));
    Test.make ~name:"pattern_match"
      (stage (fun () ->
           Pattern.match_event ~ctx:pattern_ctx ~holes:pattern_holes pattern
             (Pattern.At_node pattern_node)));
    Test.make ~name:"metal_compile_free"
      (stage (fun () -> Metal_compile.load ~file:"<b>" Free_checker.source));
    Test.make ~name:"parse_fig2"
      (stage (fun () -> Cparse.parse_tunit ~file:"<b>" fig2_code));
    Test.make ~name:"zstat_rank_50_rules" (stage (fun () -> Zstat.rank_rules zdata));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel root analysis: -j 1 vs -j N on a multi-file workload        *)
(* ------------------------------------------------------------------ *)

let table_parallel () =
  header "J  | Domain-parallel root analysis (-j 1 vs -j N, wall clock)";
  (* the scheduler's stress shape: many independent roots of uneven cost
     (one 20x-heavier mid-list root defeats contiguous chunking) plus a
     hot shared callee layer that must be analysed exactly once fleet-wide *)
  let sg =
    sg_of (Synth.sched_corpus ~n_roots:24 ~light:100 ~heavy:2000)
  in
  let all_checkers = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  let cores = Pool.recommended_jobs () in
  let jn = max 2 cores in
  (* determinism first, unconditionally: the parallel merge must reproduce
     sequential output byte for byte, whatever the core count. A mismatch
     is a scheduler bug, not a measurement artifact — fail the harness. *)
  let seq = Engine.run ~jobs:1 sg all_checkers in
  let par = Engine.run ~jobs:jn sg all_checkers in
  let lines (r : Engine.result) = List.map Report.to_string r.Engine.reports in
  let same = List.equal String.equal (lines seq) (lines par) in
  Printf.printf "deterministic: %b (%d reports either way)\n" same
    (List.length seq.Engine.reports);
  if not same then
    failwith "parallel_speedup: -j N reports diverge from -j 1";
  let pst = par.Engine.stats in
  Printf.printf
    "shared units: %d published, %d replayed, %d recomputed; %d steals\n"
    pst.Engine.shared_published pst.Engine.shared_replayed
    pst.Engine.shared_recomputed pst.Engine.sched_steals;
  if pst.Engine.shared_recomputed <> 0 then
    failwith "parallel_speedup: a shared summary unit was computed twice";
  if cores <= 1 then begin
    (* a speedup ratio measured on one core is noise, not a parallelism
       claim: record an explicit skip (dashboards must not read a ~1x or
       sub-1x ratio here as a scaling regression) *)
    bench_out
      (Printf.sprintf
         "{\"experiment\": \"parallel_speedup\", \"skipped\": \"single-core\", \
          \"cores\": %d, \"deterministic\": %b, \"published\": %d, \
          \"replayed\": %d, \"recomputed\": %d}"
         cores same pst.Engine.shared_published pst.Engine.shared_replayed
         pst.Engine.shared_recomputed);
    Printf.printf
      "skipped: single-core host (determinism and once-only sharing still \
       checked above)\n"
  end
  else begin
    (* wall-clock (monotonic) per-run estimate for each job count *)
    let measure jobs =
      let test =
        Test.make
          ~name:(Printf.sprintf "check_j%d" jobs)
          (Staged.stage (fun () -> Engine.run ~jobs sg all_checkers))
      in
      let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
      let ols =
        Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
      in
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun _ res acc ->
          match Analyze.OLS.estimates res with Some (e :: _) -> e | _ -> acc)
        analyzed nan
    in
    let j1_ns = measure 1 in
    let jn_ns = measure jn in
    Printf.printf "%-16s %16s\n" "JOBS" "ns/run";
    Printf.printf "%-16d %16.1f\n" 1 j1_ns;
    Printf.printf "%-16d %16.1f\n" jn jn_ns;
    bench_out
      (Printf.sprintf
         "{\"experiment\": \"parallel_speedup\", \"jobs\": %d, \"cores\": %d, \
          \"j1_ns\": %.1f, \"jn_ns\": %.1f, \"speedup\": %.3f, \
          \"deterministic\": %b, \"published\": %d, \"replayed\": %d, \
          \"recomputed\": %d}"
         jn cores j1_ns jn_ns (j1_ns /. jn_ns) same
         pst.Engine.shared_published pst.Engine.shared_replayed
         pst.Engine.shared_recomputed);
    Printf.printf "speedup at -j %d on %d cores: %.2fx\n" jn cores
      (j1_ns /. jn_ns)
  end;
  Printf.printf
    "paper note: roots are independent given the supergraph, so the analysis\n\
     parallelises across callgraph roots, stealing uneven roots and sharing\n\
     pure-entry callee summaries; on one core expect speedup <= 1\n"

(* ------------------------------------------------------------------ *)
(* State interning: cold-path wall clock and allocation                 *)
(* ------------------------------------------------------------------ *)

let table_interning ?(reps = 5) () =
  header "I  | State representation: cold analysis wall clock + allocation";
  (* Path-heavy synthetic workloads: deep diamond chains and many tracked
     instances stress the block cache (mem_src/add_src probes), the call
     tree stresses summary application and relax (find_by_dst), and the
     generated corpus mixes everything at whole-program scale. *)
  let srcs =
    [
      ("diamond14", Synth.diamond_chain ~n:14);
      ("tracked32", Synth.many_tracked ~n:32);
      ("calltree3^4", Synth.call_tree ~depth:4 ~fanout:3);
      ("correlated6", Synth.correlated_branches ~n:6);
      ("workload120", (Gen.generate ~seed:99 ~n_funcs:120 ~bug_rate:0.3).Gen.source);
    ]
  in
  let sgs = List.map (fun (_, src) -> sg_of src) srcs in
  let checkers = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  (* every Engine.run builds a fresh root context, so each rep is a cold
     run: no block summaries or function summaries survive between reps *)
  let run_all () = List.iter (fun sg -> ignore (Engine.run sg checkers)) sgs in
  run_all () (* warm up pattern compilation and allocator arenas *);
  let measure () =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      run_all ()
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    let da = (Gc.allocated_bytes () -. a0) /. float_of_int reps in
    (dt *. 1e9, da)
  in
  let ns, alloc = measure () in
  (* GC satellite: same workload with the batch-run minor heap the CLI
     sets (bin/xgcc.ml), to keep the effect measured rather than asserted *)
  let g0 = Gc.get () in
  Gc.set { g0 with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let ns_bigminor, _ = measure () in
  Gc.set g0;
  Printf.printf "%-14s %18s %20s\n" "IMPL" "ns/cold-run" "bytes alloc/run";
  Printf.printf "%-14s %18.0f %20.0f\n" "interned" ns alloc;
  Printf.printf "with 4M-word minor heap: %18.0f ns/run (%.2fx)\n" ns_bigminor
    (ns /. ns_bigminor);
  bench_out
    (Printf.sprintf
       "{\"experiment\": \"state_interning\", \"impl\": \"interned\", \
        \"reps\": %d, \"ns_per_run\": %.0f, \"alloc_bytes_per_run\": %.0f, \
        \"ns_per_run_4Mw_minor\": %.0f}"
       reps ns alloc ns_bigminor);
  Printf.printf
    "workloads: %s\n"
    (String.concat ", " (List.map fst srcs))

(* ------------------------------------------------------------------ *)
(* Persistent incremental cache: cold vs warm vs single-file edit       *)
(* ------------------------------------------------------------------ *)

let table_cache () =
  header "C  | Persistent incremental cache (cold / warm / one-file edit)";
  let files =
    Gen.generate_files ~seed:21 ~n_files:6 ~funcs_per_file:12 ~bug_rate:0.3
    |> List.map (fun (file, g) -> (file, g.Gen.source))
  in
  let checkers = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  let sources =
    List.map
      (fun e ->
        Option.value e.Registry.e_source
          ~default:(e.Registry.e_name ^ "\n" ^ e.Registry.e_description))
      (Registry.all ())
  in
  let cache_dir =
    let f = Filename.temp_file "xgcc_bench_cache" "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  let open_store () =
    Summary_store.create ~dir:cache_dir
      ~ext_keys:
        (Summary_store.ext_keys_of
           ~options_digest:(Engine.options_digest Engine.default_options)
           ~sources)
      ()
  in
  (* one full pipeline run: pass 1 through the AST object cache, then
     supergraph + cached engine — what `xgcc check --cache-dir` does *)
  let full_run ?(jobs = 1) ?store srcs =
    let tus =
      List.map
        (fun (file, src) ->
          let fp = Cast_io.ast_fingerprint ~file ~source:src in
          match Cast_io.read_cached ~cache_dir fp with
          | Some tu -> tu
          | None ->
              let tu = Cparse.parse_tunit ~file src in
              Cast_io.write_cached ~cache_dir fp tu;
              tu)
        srcs
    in
    let sg = Supergraph.build tus in
    Engine.run ~jobs ?cache:store sg checkers
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* [prepare] (untimed), then [f] timed, 5 times: the last result and the
     median time *)
  let samples = 5 in
  let timed_median ?(prepare = ignore) f =
    let runs =
      List.init samples (fun i ->
          prepare i;
          timed f)
    in
    ( fst (List.nth runs (samples - 1)),
      List.nth (List.sort compare (List.map snd runs)) (samples / 2) )
  in
  let reports r = List.map Report.to_string r.Engine.reports in
  (* reference: no cache at all *)
  let uncached, t_uncached =
    timed_median (fun () ->
        Engine.run
          (Supergraph.build
             (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files))
          checkers)
  in
  let cold, t_cold = timed (fun () -> full_run ~store:(open_store ()) files) in
  (* every warm run opens its own store, as every `xgcc check` does *)
  let warm_store = ref (open_store ()) in
  let warm, t_warm =
    timed_median
      ~prepare:(fun _ -> warm_store := open_store ())
      (fun () -> full_run ~store:!warm_store files)
  in
  let warm_store = !warm_store in
  let warmj_store = open_store () in
  let warmj, _ =
    timed (fun () -> full_run ~jobs:(max 2 (Pool.recommended_jobs ())) ~store:warmj_store files)
  in
  (* single-file edit: insert a statement into the first function of the
     first translation unit, everything else untouched *)
  let edited =
    match files with
    | (file, src) :: rest ->
        let needle = ") {" in
        let rec find i =
          if String.sub src i (String.length needle) = needle then i
          else find (i + 1)
        in
        let i = find 0 + String.length needle in
        ( file,
          String.sub src 0 i
          ^ " int __bench_edit = 1; (void)__bench_edit; "
          ^ String.sub src i (String.length src - i) )
        :: rest
    | [] -> []
  in
  (* each timed edit starts from the warm store: an untimed run of the
     original text first puts the edited closure's entries back *)
  let edit_store = ref (open_store ()) in
  let edit_run, t_edit =
    timed_median
      ~prepare:(fun i ->
        if i > 0 then ignore (full_run ~store:(open_store ()) files);
        edit_store := open_store ())
      (fun () -> full_run ~store:!edit_store edited)
  in
  let edit_store = !edit_store in
  (* the edited program analysed without any cache: the invalidation
     criterion is that the edit run's reports stay byte-identical to it *)
  let edited_uncached =
    Engine.run
      (Supergraph.build
         (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) edited))
      checkers
  in
  (* comment-only edit: text changes, the AST (and every location in it)
     does not — the early-cutoff criterion is zero recomputation. Note the
     comment goes at the END of the file; a comment line before the code
     would shift every source location, which is a real content change. *)
  let commented =
    match edited with
    | (file, src) :: rest -> (file, src ^ "/* reviewed */\n") :: rest
    | [] -> []
  in
  let comment_store = open_store () in
  let comment_run, t_comment =
    timed (fun () -> full_run ~store:comment_store commented)
  in
  (* edited corpus again under -j2 against the already-warm edit store:
     replay order must not depend on the job count *)
  let edit_j2, _ =
    timed (fun () -> full_run ~jobs:2 ~store:(open_store ()) edited)
  in
  let wst = Summary_store.stats warm_store in
  let est = Summary_store.stats edit_store in
  let cst = Summary_store.stats comment_store in
  let deterministic =
    List.equal String.equal (reports uncached) (reports cold)
    && List.equal String.equal (reports uncached) (reports warm)
    && List.equal String.equal (reports uncached) (reports warmj)
    && List.equal String.equal (reports edited_uncached) (reports edit_run)
    && List.equal String.equal (reports edited_uncached) (reports edit_j2)
    && List.equal String.equal (reports edited_uncached) (reports comment_run)
  in
  let speedup = t_cold /. t_warm in
  let edit_vs_cold = t_edit /. t_cold in
  (* the same one-file edit against a warm `xgcc serve` daemon: the corpus
     is written to disk once, the server holds ASTs and an in-memory
     summary store, and the edit arrives as a didChange overlay — so the
     re-check pays only re-parse of the one file plus engine replay *)
  let daemon_dir =
    let f = Filename.temp_file "xgcc_bench_daemon" "" in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f
  in
  let daemon_path file = Filename.concat daemon_dir file in
  List.iter
    (fun (file, src) ->
      let oc = open_out (daemon_path file) in
      output_string oc src;
      close_out oc)
    files;
  let daemon_store =
    Summary_store.create
      ~dir:(Filename.concat daemon_dir "memstore")
      ~persist:false ~memory:true
      ~ext_keys:
        (Summary_store.ext_keys_of
           ~options_digest:(Engine.options_digest Engine.default_options)
           ~sources)
      ()
  in
  let srv =
    let config =
      {
        Server.c_files = List.map (fun (file, _) -> daemon_path file) files;
        c_parse =
          (fun ~path ~source ->
            match Cparse.parse_tunit ~file:path source with
            | tu -> Ok tu
            | exception Clex.Lex_error (_, msg) -> Error msg);
        c_exts = List.map (fun e -> e.Registry.e_make ()) (Registry.all ());
        c_options = Engine.default_options;
        c_jobs = 1;
        c_store = Some daemon_store;
        c_rank = "generic";
      }
    in
    match Server.create config with
    | Ok s -> s
    | Error e -> failwith ("bench daemon: " ^ e)
  in
  let warm_up = Server.check srv in
  assert warm_up.Server.o_rechecked;
  let efile, esrc = List.hd edited in
  let did_change text =
    match
      fst
        (Server.handle_request srv ~more_pending:false
           (Proto.Did_change { path = daemon_path efile; text = Some text }))
    with
    | Json_out.Obj fields -> (
        match List.assoc_opt "diagnostics" fields with
        | Some (Json_out.Str s) -> s
        | _ -> "")
    | _ -> ""
  in
  (* as for the batch edit: an untimed revert between the timed edits *)
  let daemon_diags = ref [] in
  let (), t_daemon =
    timed_median
      ~prepare:(fun i -> if i > 0 then ignore (did_change (snd (List.hd files))))
      (fun () -> daemon_diags := did_change esrc :: !daemon_diags)
  in
  (* oracle: a cold uncached run of the edited tree under the daemon's
     paths, ranked the way `xgcc check --format json` ranks *)
  let daemon_oracle =
    let r =
      Engine.run
        (Supergraph.build
           (List.map
              (fun (file, src) ->
                Cparse.parse_tunit ~file:(daemon_path file) src)
              edited))
        (List.map (fun e -> e.Registry.e_make ()) (Registry.all ()))
    in
    Json_out.reports_to_string (Rank.generic_sort r.Engine.reports)
  in
  let daemon_identical = List.for_all (String.equal daemon_oracle) !daemon_diags in
  let daemon_vs_edit = t_edit /. t_daemon in
  let warm_vs_uncached = t_warm /. t_uncached in
  let daemon_vs_uncached = t_daemon /. t_uncached in
  Printf.printf "(uncached, warm, edit and daemon: median of %d runs)\n" samples;
  Printf.printf "%-22s %10s %28s\n" "RUN" "seconds" "roots replayed/recomputed";
  Printf.printf "%-22s %10.4f %28s\n" "uncached" t_uncached "-";
  Printf.printf "%-22s %10.4f %28s\n" "cold (empty cache)" t_cold "0 / all";
  Printf.printf "%-22s %10.4f %20d / %d\n" "warm (no change)" t_warm
    wst.Summary_store.roots_replayed wst.Summary_store.roots_recomputed;
  Printf.printf "%-22s %10.4f %20d / %d\n" "one-function edit" t_edit
    est.Summary_store.roots_replayed est.Summary_store.roots_recomputed;
  Printf.printf "%-22s %10.4f %20d / %d\n" "comment-only edit" t_comment
    cst.Summary_store.roots_replayed cst.Summary_store.roots_recomputed;
  Printf.printf "%-22s %10.4f %28s\n" "daemon warm re-check" t_daemon
    (Printf.sprintf "%.1fx vs cached edit run" daemon_vs_edit);
  Printf.printf "warm/uncached: %.2f; daemon/uncached: %.2f\n" warm_vs_uncached
    daemon_vs_uncached;
  Printf.printf "daemon diagnostics byte-identical to cold check: %b\n"
    daemon_identical;
  Printf.printf
    "warm speedup: %.1fx; edit/cold: %.2f; byte-identical reports (incl. -j): %b\n"
    speedup edit_vs_cold deterministic;
  Printf.printf
    "edit cutoff: %d fns recomputed, %d summaries unchanged, %d roots salvaged\n"
    est.Summary_store.fns_recomputed est.Summary_store.sums_unchanged
    est.Summary_store.roots_salvaged;
  bench_out
    (Printf.sprintf
       "{\"experiment\": \"incremental_cache\", \"files\": %d, \"samples\": %d, \
        \"uncached_s\": %.4f, \"cold_s\": %.4f, \
        \"warm_s\": %.4f, \"edit_s\": %.4f, \"comment_edit_s\": %.4f, \
        \"warm_speedup\": %.3f, \"edit_vs_cold\": %.3f, \
        \"roots_replayed_warm\": %d, \"roots_recomputed_warm\": %d, \
        \"roots_replayed_edit\": %d, \"roots_recomputed_edit\": %d, \
        \"fns_recomputed_edit\": %d, \"sums_unchanged_edit\": %d, \
        \"roots_salvaged_edit\": %d, \"roots_recomputed_comment_edit\": %d, \
        \"daemon_warm_recheck_s\": %.4f, \"daemon_vs_edit\": %.1f, \
        \"warm_vs_uncached\": %.3f, \"daemon_vs_uncached\": %.3f, \
        \"daemon_identical\": %b, \"deterministic\": %b}"
       (List.length files) samples t_uncached t_cold t_warm t_edit t_comment speedup
       edit_vs_cold
       wst.Summary_store.roots_replayed wst.Summary_store.roots_recomputed
       est.Summary_store.roots_replayed est.Summary_store.roots_recomputed
       est.Summary_store.fns_recomputed est.Summary_store.sums_unchanged
       est.Summary_store.roots_salvaged cst.Summary_store.roots_recomputed
       t_daemon daemon_vs_edit warm_vs_uncached daemon_vs_uncached daemon_identical
       deterministic);
  Printf.printf
    "paper note: xgcc's two-pass design makes both passes cacheable -- pass 1\n\
     by post-preprocess content, pass 2 by two-level summary-content keys\n\
     with early cutoff (a summary-neutral edit stops at the edited function)\n"

(* ------------------------------------------------------------------ *)
(* Fault containment: per-root budgets and degraded-root isolation      *)
(* ------------------------------------------------------------------ *)

let table_containment ?(reps = 3) () =
  header "F  | Fault containment (per-root node budgets)";
  (* a healthy bug-bearing corpus, plus one synthetic state-explosion
     root appended at the end (so healthy locations are unchanged): the
     budget must abandon exactly that root, keep every healthy root's
     reports byte-identical, and cost ~nothing on the healthy corpus *)
  let healthy_src = (Gen.generate ~seed:17 ~n_funcs:40 ~bug_rate:0.3).Gen.source in
  (* block caching keeps diamonds linear in tracked instances (the
     Section 5.2 result benched above), so "pathological" here is sheer
     size: ~2000 diamonds is ~22k nodes for one root, past the budget *)
  let explode_fn =
    let n = 2000 in
    let b = Buffer.create (n * 64) in
    Buffer.add_string b "int explode(";
    for i = 0 to 7 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "int c%d" i)
    done;
    Buffer.add_string b ") {\n";
    for i = 0 to n - 1 do
      Buffer.add_string b (Printf.sprintf "  int *p%d;\n" i);
      Buffer.add_string b (Printf.sprintf "  if (c%d) { kfree(p%d); }\n" (i mod 8) i)
    done;
    Buffer.add_string b "  return ";
    for i = 0 to n - 1 do
      if i > 0 then Buffer.add_string b " + ";
      Buffer.add_string b (Printf.sprintf "*p%d" i)
    done;
    Buffer.add_string b ";\n}\n";
    Buffer.contents b
  in
  let sg_healthy = sg_of healthy_src in
  let budgeted = { Engine.default_options with Engine.max_nodes_per_root = 20_000 } in
  let run options sg = Engine.run ~options sg [ Free_checker.checker () ] in
  let reports r = List.map Report.to_string r.Engine.reports in
  let r_healthy = run Engine.default_options sg_healthy in
  let contained, n_degraded =
    (* scoped so the big faulty supergraph is dead before timing starts *)
    let r_faulty = run budgeted (sg_of (healthy_src ^ explode_fn)) in
    ( List.equal String.equal (reports r_healthy) (reports r_faulty)
      && List.length r_faulty.Engine.degraded = 1
      && (List.hd r_faulty.Engine.degraded).Engine.d_root = "explode",
      List.length r_faulty.Engine.degraded )
  in
  (* budget-charging overhead on the healthy corpus: defaults (fuel
     armed at max_int) vs an explicit generous budget. Interleaved with
     a compact per round so GC pacing from earlier rounds cannot bias
     one configuration. *)
  ignore (run Engine.default_options sg_healthy) (* warm-up *);
  ignore (run budgeted sg_healthy);
  let time options =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    ignore (run options sg_healthy);
    Unix.gettimeofday () -. t0
  in
  let t_default = ref infinity and t_budgeted = ref infinity in
  for _ = 1 to reps do
    t_default := Float.min !t_default (time Engine.default_options);
    t_budgeted := Float.min !t_budgeted (time budgeted)
  done;
  let ns_default = !t_default *. 1e9 and ns_budgeted = !t_budgeted *. 1e9 in
  let overhead = ns_budgeted /. ns_default in
  Printf.printf "%-26s %16s\n" "MODE (healthy corpus)" "ns/run";
  Printf.printf "%-26s %16.0f\n" "no budget" ns_default;
  Printf.printf "%-26s %16.0f\n" "20k-node budget" ns_budgeted;
  Printf.printf
    "budget overhead: %.2fx; exploding root degraded: %b; healthy reports \
     byte-identical: %b\n"
    overhead (n_degraded = 1) contained;
  bench_out
    (Printf.sprintf
       "{\"experiment\": \"fault_containment\", \"reps\": %d, \"ns_unbudgeted\": \
        %.0f, \"ns_budgeted\": %.0f, \"budget_overhead\": %.3f, \
        \"degraded_roots\": %d, \"contained\": %b}"
       reps ns_default ns_budgeted overhead n_degraded contained);
  Printf.printf
    "paper note: xgcc ran whole-OS corpora where single pathological \
     functions\ncould starve the run; per-root fuel turns them into one \
     degraded note\n"

let run_benchmarks () =
  header "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  Printf.printf "%-28s %16s %10s\n" "BENCHMARK" "ns/run" "r^2";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let r2 = Option.value (Analyze.OLS.r_square ols_result) ~default:nan in
          Printf.printf "%-28s %16.1f %10.4f\n" name est r2)
        analyzed)
    (bench_tests ())

(* --smoke: the quick subset CI runs on every PR — the experiments that
   append BENCH lines (perf trajectory), with reduced repetition, and no
   bechamel micro-benchmark sweep. *)
let () =
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  print_endline "metal/xgcc benchmark harness";
  print_endline
    (if smoke then "(smoke mode: BENCH-line experiments only)"
     else "(one experiment per table/figure/claim; see DESIGN.md index)");
  if smoke then begin
    table_interning ~reps:2 ();
    table_containment ~reps:2 ();
    table_parallel ();
    table_cache ()
  end
  else begin
    table_f2 ();
    table_t1 ();
    table_t2 ();
    table_p1 ();
    table_p2 ();
    table_p3 ();
    table_p4 ();
    table_p5 ();
    table_p6 ();
    table_detection ();
    table_p10 ();
    table_scale ();
    table_interning ();
    table_containment ();
    table_parallel ();
    table_cache ();
    run_benchmarks ()
  end;
  line ();
  print_endline "done."
