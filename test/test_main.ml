(* Aggregate test runner for the metal/xgcc reproduction. *)

let () =
  Alcotest.run "metal-xgcc"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("ast", Test_cast.suite);
      ("typing", Test_ctyping.suite);
      ("preprocessor", Test_cpp.suite);
      ("cfg", Test_cfg.suite);
      ("union-find", Test_uf.suite);
      ("fpp-store", Test_store.suite);
      ("patterns", Test_pattern.suite);
      ("metal", Test_metal.suite);
      ("engine", Test_engine.suite);
      ("interproc", Test_interproc.suite);
      ("paper-example", Test_paper_example.suite);
      ("summaries", Test_summaries.suite);
      ("relax", Test_relax.suite);
      ("false-path-pruning", Test_fpp.suite);
      ("ranking", Test_rank.suite);
      ("checkers", Test_checkers.suite);
      ("workload", Test_workload.suite);
      ("ast-io", Test_castio.suite);
      ("checkers-2", Test_checkers2.suite);
      ("json", Test_json.suite);
      ("engine-2", Test_engine2.suite);
      ("integration", Test_integration.suite);
      ("stmt-roundtrip", Test_stmt_roundtrip.suite);
      ("integration-vfs", Test_integration_vfs.suite);
      ("refine", Test_refine2.suite);
      ("callouts", Test_callout.suite);
      ("printers", Test_pp.suite);
      ("triage", Test_triage.suite);
      ("parallel", Test_parallel.suite);
      ("cache", Test_cache.suite);
      ("interning", Test_intern.suite);
      ("dispatch", Test_dispatch.suite);
      ("faults", Test_faults.suite);
      ("scheduler", Test_sched.suite);
      ("flat", Test_flat.suite);
      ("state-ids", Test_state_ids.suite);
      ("serve", Test_serve.suite);
      ("annotations", Test_annots.suite);
    ]
