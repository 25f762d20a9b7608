(* xgcc — command-line driver for the metal/xgcc reproduction.

   Subcommands:
     check            run checkers over C files and print ranked reports
     list-checkers    the built-in extensions, with their metal LoC
     show-checker     print a checker's metal source
     dump-cfg         print a function's control-flow graph
     dump-summaries   print block + suffix summaries (Figure 5 material)
     demo             reproduce the paper's Figure 2 run
     gen              generate a random workload with ground-truth bugs
     cache            inspect the persistent incremental cache *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Preprocessing configuration shared by check/emit/triage. *)
let cpp_conf = ref None (* (defines, include dirs) *)

let set_cpp ~use_cpp ~defines ~incdirs =
  if use_cpp || defines <> [] || incdirs <> [] then begin
    let defines =
      List.map
        (fun d ->
          match String.index_opt d '=' with
          | Some i ->
              (String.sub d 0 i, String.sub d (i + 1) (String.length d - i - 1))
          | None -> (d, ""))
        defines
    in
    cpp_conf := Some (defines, incdirs)
  end

let resolve_include incdirs name =
  List.find_map
    (fun dir ->
      let path = Filename.concat dir name in
      if Sys.file_exists path then Some (read_file path) else None)
    ("." :: incdirs)

(* AST object cache configuration: (cache dir, persist new objects).
   Hit/miss counters are atomic because pass-1 emission loads files on a
   domain pool. *)
let ast_cache_conf = ref None
let ast_hits = Atomic.make 0
let ast_misses = Atomic.make 0

let set_ast_cache ~cache_dir ~persist =
  ast_cache_conf := Option.map (fun dir -> (dir, persist)) cache_dir

(* Load one translation unit from its path and text. Pass 2 (Section 6):
   a .mcast is an AST object emitted by pass 1 ('xgcc emit'); anything
   else is (optionally preprocessed and) parsed from C source — via the
   content-addressed object cache when --cache-dir is given, so a warm
   run skips lexing and parsing. A unit that cannot be loaded at all —
   corrupt .mcast, lexical error, structural cpp error — is an [Error],
   which 'check' and 'serve' skip with a diagnostic instead of aborting
   the whole run. Definition-level parse errors never reach here: the
   parser recovers in-place and records Gskipped stubs (warned about by
   Supergraph.build). The daemon passes editor-buffer overlays as
   [source], so nothing here reads [path] itself. *)
let parse_source ~path ~source =
  if Filename.check_suffix path ".mcast" then Cast_io.read_string source
  else
    match
      let src =
        match !cpp_conf with
        | None -> source
        | Some (defines, incdirs) ->
            Cpp.preprocess ~defines
              ~resolve_include:(resolve_include incdirs)
              ~file:path source
      in
      match !ast_cache_conf with
      | None -> Cparse.parse_tunit ~file:path src
      | Some (cache_dir, persist) -> (
          let fp = Cast_io.ast_fingerprint ~file:path ~source:src in
          match Cast_io.read_cached ~cache_dir fp with
          | Some tu ->
              Atomic.incr ast_hits;
              tu
          | None ->
              Atomic.incr ast_misses;
              let tu = Cparse.parse_tunit ~file:path src in
              if persist then Cast_io.write_cached ~cache_dir fp tu;
              tu)
    with
    | tu -> Ok tu
    | exception Clex.Lex_error (loc, msg) ->
        Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)
    | exception Cpp.Cpp_error (loc, msg) ->
        Error (Printf.sprintf "%s: preprocessor error: %s" (Srcloc.to_string loc) msg)
    | exception Sys_error msg -> Error msg

let load_tunit_result f =
  match read_file f with
  | source -> parse_source ~path:f ~source
  | exception Sys_error msg -> Error msg

(* emit, dump-cfg, dump-summaries and triage stop at a file they cannot
   load *)
let load_tunit f =
  match load_tunit_result f with Ok tu -> tu | Error msg -> failwith (f ^ ": " ^ msg)

let load_program files = Supergraph.build (List.map load_tunit files)

(* Each extension comes with its defining source text, which the
   persistent cache digests into its keys: editing a checker (or anything
   earlier in the composition chain) invalidates its cached results. *)
let resolve_checkers names metal_files =
  let builtin =
    List.map
      (fun name ->
        match Registry.find name with
        | Some e ->
            ( e.Registry.e_make (),
              Option.value e.Registry.e_source
                ~default:(e.Registry.e_name ^ "\n" ^ e.Registry.e_description) )
        | None ->
            Format.eprintf "unknown checker '%s'; try list-checkers@." name;
            exit 2)
      names
  in
  let from_files =
    List.concat_map
      (fun f ->
        let src = read_file f in
        List.map (fun sm -> (sm, src)) (Metal_compile.load_file f))
      metal_files
  in
  match builtin @ from_files with
  | [] -> (
      match Registry.find "free" with
      | Some e ->
          [
            ( Free_checker.checker (),
              Option.value e.Registry.e_source ~default:"free" );
          ]
      | None -> [ (Free_checker.checker (), "free") ])
  | cs -> cs

let open_store ~cache_dir ~persist ~options sources =
  Option.map
    (fun dir ->
      let ext_keys =
        Summary_store.ext_keys_of
          ~options_digest:(Engine.options_digest options)
          ~sources
      in
      Summary_store.create ~dir ~persist ~ext_keys ())
    cache_dir

(* The engine-option flags, shared by [check] and [serve]. *)
let engine_options =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let max_nodes =
    Arg.(value & opt int 0 & info [ "max-nodes-per-root" ] ~docv:"N"
           ~doc:"Analysis budget per callgraph root: abandon a root after \
                 $(docv) nodes visited plus state instances created, keep it \
                 out of every cache, and continue with the remaining roots \
                 (0 = unlimited). Reports from unaffected roots are \
                 byte-identical to an unbudgeted run.")
  in
  let timeout =
    Arg.(value & opt float 0. & info [ "timeout-per-root" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline per callgraph root; a root past the \
                 deadline is abandoned like a --max-nodes-per-root blow-up. \
                 Inherently timing-dependent — prefer the node budget when \
                 reproducibility matters (0 = none).")
  in
  let make no_cache no_prune no_interproc no_kill no_synonyms max_nodes timeout =
    {
      Engine.default_options with
      Engine.caching = not no_cache;
      pruning = not no_prune;
      interproc = not no_interproc;
      auto_kill = not no_kill;
      synonyms = not no_synonyms;
      max_nodes_per_root = max max_nodes 0;
      timeout_per_root = Float.max timeout 0.;
    }
  in
  Term.(
    const make
    $ flag "no-cache" "Disable block caching."
    $ flag "no-prune" "Disable false-path pruning."
    $ flag "no-interproc" "Do not follow function calls."
    $ flag "no-kill" "Disable kill-on-redefinition."
    $ flag "no-synonyms" "Disable synonym tracking."
    $ max_nodes $ timeout)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* -j 0 means "use every core"; anything else is the worker-domain count. *)
let effective_jobs jobs =
  if jobs = 0 then Pool.recommended_jobs () else max 1 jobs

let do_check files checkers metal_files rank_mode fmt history_db update_history
    options stats verbose use_cpp defines incdirs jobs cache_dir
    no_cache_persist keep_going =
  setup_logs verbose;
  set_cpp ~use_cpp ~defines ~incdirs;
  set_ast_cache ~cache_dir ~persist:(not no_cache_persist);
  if files = [] then begin
    Format.eprintf "no input files@.";
    exit 2
  end;
  let exts_src = resolve_checkers checkers metal_files in
  let exts = List.map fst exts_src in
  let store =
    open_store ~cache_dir ~persist:(not no_cache_persist) ~options
      (List.map snd exts_src)
  in
  (* Snapshot the inputs before loading anything: after the run,
     Watch.drifted compares disk against this snapshot, so an edit
     landing mid-run degrades the affected roots loudly instead of
     silently pairing a stale AST with fresh summaries. An unreadable
     input disables drift detection only — loading below warns and
     skips it as before. *)
  let watch = match Watch.create files with Ok w -> Some w | Error _ -> None in
  let t0 = Unix.gettimeofday () in
  let tus, skipped_files =
    List.fold_left
      (fun (tus, skips) f ->
        match load_tunit_result f with
        | Ok tu -> (tu :: tus, skips)
        | Error msg ->
            Diag.warnf "%s: skipping entire file: %s" f msg;
            (tus, skips + 1))
      ([], 0) files
  in
  let tus = List.rev tus in
  let t1 = Unix.gettimeofday () in
  let sg = Supergraph.build tus in
  let t2 = Unix.gettimeofday () in
  let alloc0 = Gc.allocated_bytes () in
  let result = Engine.run ~options ~jobs:(effective_jobs jobs) ?cache:store sg exts in
  let alloc1 = Gc.allocated_bytes () in
  let t3 = Unix.gettimeofday () in
  List.iter
    (fun (d : Engine.degraded) ->
      Diag.warnf "analysis of root %s degraded: %s" d.Engine.d_root
        d.Engine.d_reason)
    result.Engine.degraded;
  let drift_roots =
    match watch with
    | None -> []
    | Some w -> (
        match Watch.drifted w with
        | [] -> []
        | drifted ->
            List.iter
              (fun p ->
                Diag.warnf
                  "%s: file changed on disk during the run; reports reflect \
                   the snapshot read at load time" p)
              drifted;
            let roots = Watch.stale_roots sg drifted in
            List.iter
              (fun root ->
                Diag.warnf
                  "analysis of root %s degraded: source file changed on disk \
                   during the run" root)
              roots;
            roots)
  in
  (* fold the pass-1 AST counters into the store's stats and re-save the
     last-run record so `xgcc cache stats` sees them (the engine saved its
     own counters before the AST atomics were read) *)
  (match store with
  | Some s ->
      let cst = Summary_store.stats s in
      cst.Summary_store.ast_hits <- Atomic.get ast_hits;
      cst.Summary_store.ast_misses <- Atomic.get ast_misses;
      Summary_store.save_last_run s
  | None -> ());
  let skipped_defs =
    List.fold_left
      (fun n tu ->
        List.fold_left
          (fun n g -> match g with Cast.Gskipped _ -> n + 1 | _ -> n)
          n tu.Cast.tu_globals)
      0 sg.Supergraph.tunits
  in
  let reports = result.Engine.reports in
  let reports, suppressed =
    match history_db with
    | Some path ->
        let db = History.load path in
        History.suppress db reports
    | None -> (reports, 0)
  in
  let ranked =
    match rank_mode with
    | "stat" -> Rank.statistical_sort ~counters:result.Engine.counters reports
    | "none" -> reports
    | _ -> Rank.generic_sort reports
  in
  (match fmt with
  | "json" -> print_string (Json_out.reports_to_string ranked)
  | "strata" ->
      List.iter
        (fun (sev, reps) ->
          Format.printf "== %s (%d) ==@."
            (match sev with
            | Rank.Security -> "SECURITY"
            | Rank.Error_path -> "ERROR PATHS"
            | Rank.Normal -> "OTHER"
            | Rank.Minor -> "MINOR")
            (List.length reps);
          List.iteri (fun i r -> Format.printf "%3d. %a@." (i + 1) Report.pp r) reps)
        (Rank.stratified ranked)
  | _ -> List.iteri (fun i r -> Format.printf "%3d. %a@." (i + 1) Report.pp r) ranked);
  if suppressed > 0 then
    Format.printf "(%d report(s) suppressed by history database)@." suppressed;
  (match history_db with
  | Some path when update_history ->
      let db = History.load path in
      let db = List.fold_left History.add db result.Engine.reports in
      History.save path db;
      Format.printf "history database %s updated (%d entries)@." path (History.size db)
  | _ -> ());
  if result.Engine.counters <> [] && stats then begin
    Format.printf "@.rule statistics (z-ranked):@.";
    List.iter
      (fun (rule, z) ->
        let e, c =
          match
            List.find_opt (fun (r, _, _) -> String.equal r rule) result.Engine.counters
          with
          | Some (_, e, c) -> (e, c)
          | None -> (0, 0)
        in
        Format.printf "  z=%6.2f  e=%-4d c=%-4d %s@." z e c rule)
      (Zstat.rank_rules result.Engine.counters)
  end;
  if stats then begin
    let st = result.Engine.stats in
    if skipped_files + skipped_defs + List.length result.Engine.degraded > 0 then
      Format.printf
        "@.fault containment: %d file(s) skipped, %d definition(s) skipped, %d root(s) degraded@."
        skipped_files skipped_defs
        (List.length result.Engine.degraded);
    Format.printf
      "@.stats: %d blocks, %d nodes, %d paths, %d cache hits, %d calls followed, %d summary hits, %d pruned branches@."
      st.Engine.blocks_visited st.Engine.nodes_visited st.Engine.paths_explored
      st.Engine.cache_hits st.Engine.calls_followed st.Engine.summary_hits
      st.Engine.pruned_branches;
    Format.printf
      "interning: %d cache probes (%.1f%% hit), %d atoms, %d tuples interned, \
       %d expression ids@."
      st.Engine.cache_probes
      (if st.Engine.cache_probes = 0 then 0.
       else
         100.
         *. float_of_int st.Engine.cache_hits
         /. float_of_int st.Engine.cache_probes)
      st.Engine.intern_atoms st.Engine.intern_tuples
      (Exprid.n sg.Supergraph.ids);
    Format.printf "dispatch: %d match attempts, %d index hits, %d blocks skipped@."
      st.Engine.match_attempts st.Engine.index_hits st.Engine.blocks_skipped;
    if effective_jobs jobs > 1 then
      Format.printf
        "scheduler: %d summary units published, %d replayed, %d recomputed, %d steals, %d waits@."
        st.Engine.shared_published st.Engine.shared_replayed
        st.Engine.shared_recomputed st.Engine.sched_steals
        st.Engine.sched_waits;
    let flat = sg.Supergraph.flat in
    let mib words = float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.) in
    Format.printf
      "memory: flat tables %.1f KiB (%d blocks, %d functions), id table \
       %.1f KiB, analysis allocated %.1f MiB, major heap peak %.1f MiB@."
      (float_of_int (Flat.table_bytes flat) /. 1024.)
      flat.Flat.n_blocks
      (Flat.n_functions flat)
      (float_of_int (Exprid.table_bytes sg.Supergraph.ids) /. 1024.)
      ((alloc1 -. alloc0 +. float_of_int st.Engine.worker_alloc_bytes)
       /. (1024. *. 1024.))
      (* the runtime's own figure, summed over domains, as OCAMLRUNPARAM=v=0x400
         reports it at exit *)
      (mib (Gc.quick_stat ()).Gc.top_heap_words);
    let total =
      List.length (Ctyping.fundefs sg.Supergraph.typing)
    in
    Format.printf "coverage: %d / %d functions traversed@."
      st.Engine.functions_traversed total;
    Format.printf
      "phases: preprocess+parse %.3fs, cfg+supergraph %.3fs, analysis %.3fs@."
      (t1 -. t0) (t2 -. t1) (t3 -. t2);
    match store with
    | Some s -> Format.printf "%a@." Summary_store.pp_stats s
    | None -> ()
  end;
  if ranked = [] && not (String.equal fmt "json") then
    Format.printf "no errors found@.";
  (* Exit protocol: 2 = usage error (handled above / by cmdliner);
     3 = the run was incomplete — files or definitions skipped, or roots
     degraded — unless --keep-going downgrades that; 1 = complete run
     that produced reports; 0 = complete and clean. *)
  let faults =
    skipped_files + skipped_defs
    + List.length result.Engine.degraded
    + List.length drift_roots
  in
  if faults > 0 && not keep_going then exit 3;
  if ranked <> [] then exit 1

let check_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let checkers =
    Arg.(value & opt_all string [] & info [ "c"; "checker" ] ~docv:"NAME"
           ~doc:"Built-in checker to run (repeatable); defaults to 'free'.")
  in
  let metal_files =
    Arg.(value & opt_all file [] & info [ "m"; "metal" ] ~docv:"FILE.metal"
           ~doc:"Compile and run the metal extensions in $(docv) (repeatable).")
  in
  let rank =
    Arg.(value & opt string "generic" & info [ "rank" ] ~docv:"MODE"
           ~doc:"Report ranking: 'generic', 'stat' (z-statistic), or 'none'.")
  in
  let fmt =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: 'text', 'json', or 'strata' (severity classes).")
  in
  let history =
    Arg.(value & opt (some string) None & info [ "history" ] ~docv:"DB"
           ~doc:"Suppress reports recorded in the history database $(docv).")
  in
  let update =
    Arg.(value & flag & info [ "update-history" ]
           ~doc:"Record this run's reports into the history database.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics.") in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the analysis (debug logs).")
  in
  let use_cpp =
    Arg.(value & flag & info [ "cpp" ] ~doc:"Preprocess C sources (mini cpp).")
  in
  let defines =
    Arg.(value & opt_all string [] & info [ "D" ] ~docv:"NAME[=VAL]"
           ~doc:"Predefine a macro (implies --cpp).")
  in
  let incdirs =
    Arg.(value & opt_all dir [] & info [ "I" ] ~docv:"DIR"
           ~doc:"Include search directory (implies --cpp).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Analyse callgraph roots on $(docv) worker domains (0 = all \
                 cores; default 1 = sequential). Reports are identical to a \
                 sequential run.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent incremental cache: reuse parsed ASTs and per-root \
                 analysis results whose content fingerprints still match, \
                 recompute only what an edit invalidated. Reports are \
                 byte-identical to an uncached run.")
  in
  let no_cache_persist =
    Arg.(value & flag & info [ "no-cache-persist" ]
           ~doc:"Read from --cache-dir but do not write new entries back.")
  in
  let keep_going =
    Arg.(value & flag & info [ "k"; "keep-going" ]
           ~doc:"Do not signal skipped or degraded units in the exit code: \
                 exit 1/0 on reports/clean even when parts of the input were \
                 abandoned (they are still warned about on stderr).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run checkers over C files")
    Term.(
      const do_check $ files $ checkers $ metal_files $ rank $ fmt $ history $ update
      $ engine_options $ stats $ verbose $ use_cpp $ defines $ incdirs $ jobs
      $ cache_dir $ no_cache_persist $ keep_going)

(* ------------------------------------------------------------------ *)
(* list-checkers / show-checker                                        *)
(* ------------------------------------------------------------------ *)

let do_list () =
  Format.printf "%-10s %5s  %s@." "NAME" "LOC" "DESCRIPTION";
  List.iter
    (fun e ->
      Format.printf "%-10s %5d  %s@." e.Registry.e_name (Registry.loc e)
        e.Registry.e_description)
    (Registry.all ())

let list_cmd =
  Cmd.v
    (Cmd.info "list-checkers" ~doc:"List built-in checkers and their metal size")
    Term.(const do_list $ const ())

let do_show name =
  match Registry.find name with
  | Some { Registry.e_source = Some src; _ } -> print_string src
  | Some { Registry.e_source = None; _ } ->
      Format.printf "(checker '%s' is written against the OCaml API)@." name
  | None ->
      Format.eprintf "unknown checker '%s'@." name;
      exit 2

let show_cmd =
  let checker_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "show-checker" ~doc:"Print a checker's metal source")
    Term.(const do_show $ checker_name)

(* ------------------------------------------------------------------ *)
(* dump-cfg / dump-summaries                                           *)
(* ------------------------------------------------------------------ *)

let do_dump_cfg files fname =
  let sg = load_program files in
  match fname with
  | Some f -> (
      match Supergraph.cfg_of sg f with
      | Some cfg -> Format.printf "%a@." Cfg.pp cfg
      | None ->
          Format.eprintf "no function '%s'@." f;
          exit 2)
  | None ->
      Hashtbl.iter (fun _ cfg -> Format.printf "%a@.@." Cfg.pp cfg) sg.Supergraph.cfgs

let dump_cfg_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let fname =
    Arg.(value & opt (some string) None & info [ "function" ] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "dump-cfg" ~doc:"Print control-flow graphs")
    Term.(const do_dump_cfg $ files $ fname)

let do_dump_summaries files checkers metal_files =
  let sg = load_program files in
  let exts = List.map fst (resolve_checkers checkers metal_files) in
  let _result, per_ext = Engine.run_with_summaries sg exts in
  Engine.pp_summaries sg Format.std_formatter per_ext

let dump_summaries_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let checker =
    Arg.(value & opt_all string [] & info [ "c"; "checker" ] ~docv:"NAME"
           ~doc:"Checker to run (repeatable); summaries are reported per \
                 extension.")
  in
  let metal_files =
    Arg.(value & opt_all file [] & info [ "m"; "metal" ] ~docv:"FILE.metal")
  in
  Cmd.v
    (Cmd.info "dump-summaries"
       ~doc:"Print block and suffix summaries after a run (Figure 5), one \
             section per function in name order")
    Term.(const do_dump_summaries $ files $ checker $ metal_files)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

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

let do_demo what =
  match what with
  | "fig2" ->
      let tu = Cparse.parse_tunit ~file:"fig2.c" fig2_code in
      let sg = Supergraph.build [ tu ] in
      let result, summaries =
        Engine.run_with_summaries sg [ Free_checker.checker () ]
      in
      Format.printf "reports:@.";
      List.iter (fun r -> Format.printf "  %a@." Report.pp r) result.Engine.reports;
      Format.printf "@.supergraph summaries (cf. Figure 5):@.@.";
      Engine.pp_summaries sg Format.std_formatter summaries
  | "fig3" ->
      Format.printf "Figure 3 lock checker:@.%s@." Lock_checker.source;
      let code =
        {|struct lk { int h; };
int good(struct lk *l) { if (trylock(l)) { unlock(l); } return 0; }
int leak(struct lk *l, int n) { lock(l); if (n < 0) { return n; } unlock(l); return n; }
int unheld(struct lk *l) { unlock(l); return 0; }
|}
      in
      let tu = Cparse.parse_tunit ~file:"fig3.c" code in
      let sg = Supergraph.build [ tu ] in
      let result = Engine.run sg [ Lock_checker.checker () ] in
      Format.printf "reports:@.";
      List.iter (fun r -> Format.printf "  %a@." Report.pp r) result.Engine.reports
  | other ->
      Format.eprintf "unknown demo '%s' (try: fig2, fig3)@." other;
      exit 2

let demo_cmd =
  let what = Arg.(value & pos 0 string "fig2" & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "demo" ~doc:"Reproduce the paper's running example")
    Term.(const do_demo $ what)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let do_gen seed funcs bug_rate out check =
  let g = Gen.generate ~seed ~n_funcs:funcs ~bug_rate in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc g.Gen.source;
      close_out oc;
      Format.printf "wrote %s (%d planted bugs)@." path (List.length g.Gen.planted)
  | None -> print_string g.Gen.source);
  List.iter
    (fun (p : Gen.planted) ->
      Format.printf "// planted: %s in %s (checker: %s)@."
        (Gen.bug_kind_to_string p.kind) p.in_function
        (Gen.checker_of_kind p.kind))
    g.Gen.planted;
  if check then begin
    let tu = Cparse.parse_tunit ~file:"gen.c" g.Gen.source in
    let sg = Supergraph.build [ tu ] in
    let exts = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
    let result = Engine.run sg exts in
    let found (p : Gen.planted) =
      List.exists
        (fun (r : Report.t) -> String.equal r.func p.in_function)
        result.Engine.reports
    in
    let detected = List.filter found g.Gen.planted in
    Format.printf "@.detected %d / %d planted bugs; %d reports total@."
      (List.length detected)
      (List.length g.Gen.planted)
      (List.length result.Engine.reports)
  end

let gen_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let funcs = Arg.(value & opt int 20 & info [ "funcs" ] ~docv:"N") in
  let rate = Arg.(value & opt float 0.3 & info [ "bug-rate" ] ~docv:"P") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Run all checkers on the generated code.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random workload with ground-truth bugs")
    Term.(const do_gen $ seed $ funcs $ rate $ out $ check)

(* ------------------------------------------------------------------ *)
(* emit (pass 1)                                                       *)
(* ------------------------------------------------------------------ *)

let do_emit files outdir use_cpp defines incdirs jobs cache_dir no_cache_persist =
  set_cpp ~use_cpp ~defines ~incdirs;
  set_ast_cache ~cache_dir ~persist:(not no_cache_persist);
  (* Pass-1 per-file emission is embarrassingly parallel: each task
     preprocesses, parses and writes one file; messages are printed in
     input order afterwards so the output is scheduling-independent.
     Output names come from emit_targets, which keeps the plain basename
     unless two inputs share it (a/util.c and b/util.c used to silently
     overwrite each other) and errors on residual collisions. *)
  let targets =
    try Array.of_list (Cast_io.emit_targets files)
    with Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  let outputs =
    Pool.run ~jobs:(effective_jobs jobs) (Array.length targets) (fun i ->
        let f, base = targets.(i) in
        let tu = load_tunit f in
        let out = Filename.concat outdir base in
        Cast_io.emit_file out tu;
        out)
  in
  Array.iteri
    (fun i out -> Format.printf "%s -> %s@." (fst targets.(i)) out)
    outputs

let emit_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.c") in
  let outdir =
    Arg.(value & opt string "." & info [ "d"; "outdir" ] ~docv:"DIR"
           ~doc:"Directory for the emitted .mcast AST files.")
  in
  let use_cpp =
    Arg.(value & flag & info [ "cpp" ] ~doc:"Preprocess before parsing.")
  in
  let defines = Arg.(value & opt_all string [] & info [ "D" ] ~docv:"NAME[=VAL]") in
  let incdirs = Arg.(value & opt_all dir [] & info [ "I" ] ~docv:"DIR") in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Emit files on $(docv) worker domains (0 = all cores).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Reuse cached ASTs for unchanged inputs instead of re-parsing.")
  in
  let no_cache_persist =
    Arg.(value & flag & info [ "no-cache-persist" ]
           ~doc:"Read from --cache-dir but do not write new entries back.")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Pass 1: (preprocess and) parse C files in isolation, emit ASTs (.mcast)")
    Term.(
      const do_emit $ files $ outdir $ use_cpp $ defines $ incdirs $ jobs $ cache_dir
      $ no_cache_persist)

(* ------------------------------------------------------------------ *)
(* cache (inspect the persistent incremental cache)                    *)
(* ------------------------------------------------------------------ *)

let human_bytes n =
  if n >= 1024 * 1024 then Printf.sprintf "%.1f MiB" (float_of_int n /. (1024. *. 1024.))
  else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%d B" n

let do_cache_stats dir =
  if not (Sys.file_exists dir) then begin
    Format.eprintf "no cache directory %s@." dir;
    exit 2
  end;
  let d = Summary_store.disk_stats ~dir in
  Format.printf "store %s@." dir;
  (match d.Summary_store.d_version with
  | Some v when String.equal v Summary_store.store_version ->
      Format.printf "version %s@." v
  | Some v ->
      Format.printf "version %s (current build writes %s; old entries are orphaned)@."
        v Summary_store.store_version
  | None -> Format.printf "version (unstamped)@.");
  let line ?(packs = false) name (k : Summary_store.disk_kind) =
    Format.printf "%-9s %6d entries  %s%s@." name k.Summary_store.dk_entries
      (human_bytes k.Summary_store.dk_bytes)
      (if not packs then ""
       else
         let n = k.Summary_store.dk_files in
         Printf.sprintf " in %d pack%s" n (if n = 1 then "" else "s"))
  in
  line "ast" d.Summary_store.d_ast;
  line ~packs:true "summary" d.Summary_store.d_sum;
  line ~packs:true "root" d.Summary_store.d_root;
  let strays f =
    List.fold_left (fun n (k : Summary_store.disk_kind) -> n + f k) 0
      [ d.Summary_store.d_ast; d.Summary_store.d_sum; d.Summary_store.d_root ]
  in
  (match strays (fun k -> k.Summary_store.dk_tmp) with
  | 0 -> ()
  | n -> Format.printf "stray temp files: %d (left by a killed writer; never read)@." n);
  (match strays (fun k -> k.Summary_store.dk_legacy) with
  | 0 -> ()
  | n ->
      Format.printf "orphaned sumstore-3 entry files: %d (one file per entry; never read)@." n);
  match Summary_store.load_last_run ~dir with
  | None -> Format.printf "last run: (none recorded)@."
  | Some kvs ->
      Format.printf "last run:@.";
      List.iter (fun (k, v) -> Format.printf "  %-18s %d@." k v) kvs

let do_cache_dump files =
  let failed = ref false in
  List.iter
    (fun path ->
      (* file kind is recognised by magic: summary-store packs (one line
         per entry) first, then AST objects (cache objects and emitted
         .mcast files alike), printed as C *)
      match Summary_store.dump_pack path with
      | Ok d -> Summary_store.pp_dump Format.std_formatter d
      | Error store_err -> (
          match Cast_io.read_file path with
          | Ok tu -> Cprint.pp_tunit Format.std_formatter tu
          | Error _ ->
              Format.eprintf "%s: %s@." path store_err;
              failed := true))
    files;
  if !failed then exit 2

let cache_stats_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show a cache directory's store version, entry counts and sizes, \
             and the counters of the last cached run")
    Term.(const do_cache_stats $ dir)

let cache_dump_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Decode binary cache files and print them: function-summary \
             and root replay packs one line per entry, in name order \
             ($(b,fn) or $(b,root), the name and key, then the summaries or \
             the reports); AST objects (cache objects and emitted .mcast \
             files) as C")
    Term.(const do_cache_dump $ files)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect the persistent incremental cache")
    [ cache_stats_cmd; cache_dump_cmd ]

(* ------------------------------------------------------------------ *)
(* triage                                                              *)
(* ------------------------------------------------------------------ *)

let do_triage files checkers metal_files out apply_file history_db =
  let sg = load_program files in
  let exts = List.map fst (resolve_checkers checkers metal_files) in
  let result = Engine.run sg exts in
  let ranked = Rank.generic_sort result.Engine.reports in
  match apply_file with
  | None ->
      let path = Option.value out ~default:"triage.txt" in
      Triage.export_file path ranked;
      Format.printf "wrote %d report(s) to %s; mark each line R/F and re-run with --apply@."
        (List.length ranked) path
  | Some path ->
      let entries = Triage.import_file ~reports:ranked path in
      let db_path = Option.value history_db ~default:"xgcc-history.db" in
      let db, rule_stats = Triage.apply entries (History.load db_path) in
      History.save db_path db;
      let count v =
        List.length (List.filter (fun (e : Triage.entry) -> e.Triage.verdict = v) entries)
      in
      Format.printf "verdicts: %d real, %d false positive, %d undecided@."
        (count Triage.Real)
        (count Triage.False_positive)
        (count Triage.Undecided);
      Format.printf "history database %s now holds %d suppressed report(s)@." db_path
        (History.size db);
      if rule_stats <> [] then begin
        Format.printf "per-rule verdict counts (real, false):@.";
        List.iter
          (fun (rule, real, fp) -> Format.printf "  %-24s %d, %d@." rule real fp)
          rule_stats
      end

let triage_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let checkers =
    Arg.(value & opt_all string [] & info [ "c"; "checker" ] ~docv:"NAME")
  in
  let metal_files =
    Arg.(value & opt_all file [] & info [ "m"; "metal" ] ~docv:"FILE.metal")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let apply_file =
    Arg.(value & opt (some file) None & info [ "apply" ] ~docv:"FILE"
           ~doc:"Read verdicts back from a marked triage file.")
  in
  let history =
    Arg.(value & opt (some string) None & info [ "history" ] ~docv:"DB")
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:"Export ranked reports for inspection / fold verdicts into history")
    Term.(
      const do_triage $ files $ checkers $ metal_files $ out $ apply_file $ history)

(* ------------------------------------------------------------------ *)
(* serve (long-lived analysis daemon)                                  *)
(* ------------------------------------------------------------------ *)

let do_serve files checkers metal_files rank verbose use_cpp defines incdirs
    jobs cache_dir no_cache_persist socket options =
  setup_logs verbose;
  set_cpp ~use_cpp ~defines ~incdirs;
  set_ast_cache ~cache_dir ~persist:(not no_cache_persist);
  if files = [] then begin
    Format.eprintf "no input files@.";
    exit 2
  end;
  (* a client vanishing mid-reply must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let exts_src = resolve_checkers checkers metal_files in
  let ext_keys =
    Summary_store.ext_keys_of
      ~options_digest:(Engine.options_digest options)
      ~sources:(List.map snd exts_src)
  in
  (* Always memory-backed: warm re-checks never read the disk store.
     Without --cache-dir the incremental state is purely in-process —
     the store points at a path that is never created or written. *)
  let store =
    match cache_dir with
    | Some dir ->
        Summary_store.create ~dir ~persist:(not no_cache_persist) ~memory:true
          ~ext_keys ()
    | None ->
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "xgcc-serve-mem-%d" (Unix.getpid ()))
        in
        Summary_store.create ~dir ~persist:false ~memory:true ~ext_keys ()
  in
  let cfg =
    {
      Server.c_files = files;
      c_parse = parse_source;
      c_exts = List.map fst exts_src;
      c_options = options;
      c_jobs = effective_jobs jobs;
      c_store = Some store;
      c_rank = rank;
    }
  in
  match Server.create cfg with
  | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  | Ok server ->
      (* warm-up: load, parse, and analyse once, so the first request is
         answered from hot state *)
      let o = Server.check server in
      Format.eprintf
        "xgcc serve: %d file(s), %d checker(s), warm-up %.3fs (%d report(s)); %s@."
        (List.length files) (List.length exts_src) o.Server.o_recheck_s
        o.Server.o_reports
        (match socket with
        | Some p -> "listening on " ^ p
        | None -> "reading requests from stdin");
      (match socket with
      | Some path -> Server.serve_socket server ~path
      | None -> Server.serve_stdio server)

let serve_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let checkers =
    Arg.(value & opt_all string [] & info [ "c"; "checker" ] ~docv:"NAME"
           ~doc:"Built-in checker to run (repeatable); defaults to 'free'.")
  in
  let metal_files =
    Arg.(value & opt_all file [] & info [ "m"; "metal" ] ~docv:"FILE.metal"
           ~doc:"Compile and run the metal extensions in $(docv) (repeatable).")
  in
  let rank =
    Arg.(value & opt string "generic" & info [ "rank" ] ~docv:"MODE"
           ~doc:"Report ranking inside each reply: 'generic', 'stat', or 'none'.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the analysis (debug logs).")
  in
  let use_cpp =
    Arg.(value & flag & info [ "cpp" ] ~doc:"Preprocess C sources (mini cpp).")
  in
  let defines =
    Arg.(value & opt_all string [] & info [ "D" ] ~docv:"NAME[=VAL]"
           ~doc:"Predefine a macro (implies --cpp).")
  in
  let incdirs =
    Arg.(value & opt_all dir [] & info [ "I" ] ~docv:"DIR"
           ~doc:"Include search directory (implies --cpp).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Analyse callgraph roots on $(docv) worker domains (0 = all cores).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Warm the in-memory store from this persistent cache at \
                 startup and (unless --no-cache-persist) write results back, \
                 so a daemon restart or a concurrent batch check starts warm. \
                 Without it the incremental state lives only in the process.")
  in
  let no_cache_persist =
    Arg.(value & flag & info [ "no-cache-persist" ]
           ~doc:"Read from --cache-dir but do not write new entries back.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen for clients on a Unix socket at $(docv) instead of \
                 reading requests from stdin (one client served at a time).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-lived analysis daemon: load once, re-check edits warm \
             (newline-delimited JSON requests on stdin or a Unix socket)")
    Term.(
      const do_serve $ files $ checkers $ metal_files $ rank $ verbose
      $ use_cpp $ defines $ incdirs $ jobs $ cache_dir $ no_cache_persist
      $ socket $ engine_options)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "metacompilation: system-specific static analysis with metal extensions" in
  Cmd.group
    (Cmd.info "xgcc" ~version:"1.0.0" ~doc)
    [
      check_cmd; serve_cmd; list_cmd; show_cmd; dump_cfg_cmd; dump_summaries_cmd;
      demo_cmd; gen_cmd; emit_cmd; triage_cmd; cache_cmd;
    ]

(* The traversal allocates short-lived state clones at a rate that keeps the
   default 256Kw minor heap promoting live data; a 4Mw nursery lets most
   per-path state die young (measured in the gc_minor_heap bench line). An
   explicit s=... in OCAMLRUNPARAM/CAMLRUNPARAM still wins. [Gc.set] sizes
   only the calling (main) domain's nursery: under OCaml 5.1 the worker
   domains that -j N spawns start with the default 256Kw, or with s=...
   when the environment sets it. *)
let () =
  let user_set_minor_heap v =
    match Sys.getenv_opt v with
    | None -> None
    | Some s ->
        if
          List.exists
            (fun p -> String.length p > 0 && p.[0] = 's')
            (String.split_on_char ',' s)
        then Some () else None
  in
  match (user_set_minor_heap "OCAMLRUNPARAM", user_set_minor_heap "CAMLRUNPARAM") with
  | None, None -> Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 }
  | _ -> ()

let () = exit (Cmd.eval main_cmd)
