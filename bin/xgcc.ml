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

(* dump-cfg, dump-summaries and triage load without preprocessing or
   cache, and stop at a file they cannot load *)
let load_program files = Supergraph.build (List.map (Loader.load (Loader.create ())) files)

(* Each extension comes with its defining source text, which the
   persistent cache digests into its keys: editing a checker (or anything
   earlier in the composition chain) invalidates its cached results. A
   metal file that does not lex, parse or compile is a usage error at
   its position. *)
let resolve_checkers (names, metal_files) =
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
        match Metal_compile.load ~file:f src with
        | sms -> List.map (fun sm -> (sm, src)) sms
        | exception
            ( Metal_parse.Metal_error (loc, msg)
            | Metal_compile.Compile_error (loc, msg)
            | Clex.Lex_error (loc, msg) ) ->
            Format.eprintf "%a: %s@." Srcloc.pp loc msg;
            exit 2)
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

(* ------------------------------------------------------------------ *)
(* Flag groups, each defined once for every subcommand that takes it   *)
(* ------------------------------------------------------------------ *)

(* The engine-option flags of [check] and [serve]. *)
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

(* -c/-m: the checker names and metal files, resolved by resolve_checkers *)
let extensions =
  Term.(
    const (fun names metal_files -> (names, metal_files))
    $ Arg.(value & opt_all string [] & info [ "c"; "checker" ] ~docv:"NAME"
             ~doc:"Built-in checker to run (repeatable); defaults to 'free'.")
    $ Arg.(value & opt_all file [] & info [ "m"; "metal" ] ~docv:"FILE.metal"
             ~doc:"Compile and run the metal extensions in $(docv) (repeatable)."))

(* --cpp/-D/-I: the preprocessor configuration, [None] when off *)
let cpp =
  let make use_cpp defines incdirs =
    let define d =
      match String.index_opt d '=' with
      | Some i -> (String.sub d 0 i, String.sub d (i + 1) (String.length d - i - 1))
      | None -> (d, "")
    in
    if use_cpp || defines <> [] || incdirs <> [] then
      Some (List.map define defines, incdirs)
    else None
  in
  Term.(
    const make
    $ Arg.(value & flag & info [ "cpp" ] ~doc:"Preprocess C sources (mini cpp).")
    $ Arg.(value & opt_all string [] & info [ "D" ] ~docv:"NAME[=VAL]"
             ~doc:"Predefine a macro (implies --cpp).")
    $ Arg.(value & opt_all dir [] & info [ "I" ] ~docv:"DIR"
             ~doc:"Include search directory (implies --cpp)."))

(* -j: the worker-domain count; 0 means "use every core" *)
let jobs =
  Term.(
    const (fun jobs -> if jobs = 0 then Pool.recommended_jobs () else max 1 jobs)
    $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Run on $(docv) worker domains (0 = all cores; default 1 = \
                   sequential). Output is identical to a sequential run."))

(* --cache-dir/--no-cache-persist: the cache directory and whether to
   write new entries back, [None] without a directory *)
let cache =
  Term.(
    const (fun dir no_persist -> Option.map (fun dir -> (dir, not no_persist)) dir)
    $ Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent incremental cache: reuse what it holds for \
                   inputs whose content fingerprints still match (parsed ASTs; \
                   for check and serve also per-root analysis results) and \
                   recompute only what an edit invalidated. Output is \
                   byte-identical to an uncached run; serve also warms its \
                   in-memory store from it at startup.")
    $ Arg.(value & flag & info [ "no-cache-persist" ]
             ~doc:"Read from --cache-dir but do not write new entries back."))

let rank =
  Arg.(value & opt string "generic" & info [ "rank" ] ~docv:"MODE"
         ~doc:"Report ranking: 'generic', 'stat' (z-statistic), or 'none'.")

let history =
  Arg.(value & opt (some string) None & info [ "history" ] ~docv:"DB"
         ~doc:"History database: check suppresses the reports recorded in \
               $(docv); triage --apply records verdicts in it (default \
               xgcc-history.db).")

let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")

(* -v: set up logging before the subcommand runs *)
let verbose =
  let setup verbose =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(
    const setup
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the analysis (debug logs)."))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let do_check files exts rank_mode fmt history_db update_history options stats () cpp
    jobs cache keep_going =
  if files = [] then begin
    Format.eprintf "no input files@.";
    exit 2
  end;
  let exts_src = resolve_checkers exts in
  let loader = Loader.create ?cpp ?ast_cache:cache () in
  let store = Pass.open_store ~memory:false ~cache ~options (List.map snd exts_src) in
  let p =
    Pass.run
      (Pass.create ~loader
         {
           Pass.c_files = files;
           c_parse = Loader.parse loader;
           c_exts = List.map fst exts_src;
           c_options = options;
           c_jobs = jobs;
           c_store = store;
           c_rank = rank_mode;
         })
  in
  Option.iter (Loader.record_ast_counts loader) store;
  let result = p.Pass.result and sg = p.Pass.sg in
  let ranked, suppressed =
    match history_db with
    | Some path -> History.suppress (History.load path) p.Pass.ranked
    | None -> (p.Pass.ranked, 0)
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
  let degraded = List.length result.Engine.degraded in
  if stats then begin
    let st = result.Engine.stats in
    if p.Pass.skipped_files + p.Pass.skipped_defs + degraded > 0 then
      Format.printf
        "@.fault containment: %d file(s) skipped, %d definition(s) skipped, %d root(s) degraded@."
        p.Pass.skipped_files p.Pass.skipped_defs degraded;
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
    if jobs > 1 then Format.printf "scheduler: %d steals@." st.Engine.sched_steals;
    let flat = sg.Supergraph.flat in
    let mib words = float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.) in
    Format.printf
      "memory: flat tables %.1f KiB (%d blocks, %d functions), id table \
       %.1f KiB, analysis allocated %.1f MiB, major heap peak %.1f MiB@."
      (float_of_int (Flat.table_bytes flat) /. 1024.)
      flat.Flat.n_blocks
      (Flat.n_functions flat)
      (float_of_int (Exprid.table_bytes sg.Supergraph.ids) /. 1024.)
      ((p.Pass.analysis_alloc +. float_of_int st.Engine.worker_alloc_bytes)
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
      p.Pass.load_s p.Pass.graph_s p.Pass.analysis_s;
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
    p.Pass.skipped_files + p.Pass.skipped_defs + degraded
    + List.length p.Pass.stale_roots
  in
  if faults > 0 && not keep_going then exit 3;
  if ranked <> [] then exit 1

let check_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let fmt =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: 'text', 'json', or 'strata' (severity classes).")
  in
  let update =
    Arg.(value & flag & info [ "update-history" ]
           ~doc:"Record this run's reports into the history database.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics.") in
  let keep_going =
    Arg.(value & flag & info [ "k"; "keep-going" ]
           ~doc:"Do not signal skipped or degraded units in the exit code: \
                 exit 1/0 on reports/clean even when parts of the input were \
                 abandoned (they are still warned about on stderr).")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run checkers over C files")
    Term.(
      const do_check $ files $ extensions $ rank $ fmt $ history $ update
      $ engine_options $ stats $ verbose $ cpp $ jobs $ cache $ keep_going)

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

let do_dump_summaries files exts =
  let sg = load_program files in
  let exts = List.map fst (resolve_checkers exts) in
  let _result, per_ext = Engine.run_with_summaries sg exts in
  Engine.pp_summaries sg Format.std_formatter per_ext

let dump_summaries_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "dump-summaries"
       ~doc:"Print block and suffix summaries after a run (Figure 5), one \
             section per function in name order")
    Term.(const do_dump_summaries $ files $ extensions)

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
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Run all checkers on the generated code.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random workload with ground-truth bugs")
    Term.(const do_gen $ seed $ funcs $ rate $ output $ check)

(* ------------------------------------------------------------------ *)
(* emit (pass 1)                                                       *)
(* ------------------------------------------------------------------ *)

let do_emit files outdir cpp jobs cache =
  let loader = Loader.create ?cpp ?ast_cache:cache () in
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
  (* a path that is, or lies under, a regular file cannot hold the
     outputs: a usage error, before any task writes *)
  (match Wire.mkdir_p outdir with
  | () when Sys.is_directory outdir -> ()
  | () | (exception Sys_error _) ->
      Format.eprintf "%s: not a directory@." outdir;
      exit 2);
  let outputs =
    Pool.run ~jobs (Array.length targets) (fun i ->
        let f, base = targets.(i) in
        let tu = Loader.load loader f in
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
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Pass 1: (preprocess and) parse C files in isolation, emit ASTs (.mcast)")
    Term.(const do_emit $ files $ outdir $ cpp $ jobs $ cache)

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
         let n = k.Summary_store.dk_files and s = k.Summary_store.dk_segments in
         Printf.sprintf " in %d pack%s (%d segment%s, %d of %d bytes superseded)" n
           (if n = 1 then "" else "s")
           s
           (if s = 1 then "" else "s")
           k.Summary_store.dk_superseded k.Summary_store.dk_bytes)
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
  (* what the next check reads to probe only what its edit can reach *)
  (match Unix.stat (Summary_store.carry_path ~dir) with
  | exception Unix.Unix_error _ -> Format.printf "carry     absent@."
  | { Unix.st_size; _ } -> (
      match Engine.carry_file ~dir with
      | Ok c ->
          let n k what = Printf.sprintf "%d %s%s" k what (if k = 1 then "" else "s") in
          Format.printf "carry     valid: %s, %s, %s  %s@." (n c.Engine.cf_units "unit")
            (n c.Engine.cf_functions "function") (n c.Engine.cf_extensions "extension")
            (human_bytes st_size)
      | Error why -> Format.printf "carry     invalid (%s)  %s@." why (human_bytes st_size)));
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
       ~doc:"Show a cache directory's store version, live entry counts and \
             sizes, pack segments and the superseded bytes the next rewrite \
             of each pack would reclaim, and the counters of the last cached \
             run")
    Term.(const do_cache_stats $ dir)

let cache_dump_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Decode binary cache files and print them: function-summary \
             and root replay packs one line per live entry, in name order \
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

let do_triage files exts out apply_file history_db =
  let sg = load_program files in
  let exts = List.map fst (resolve_checkers exts) in
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
  let apply_file =
    Arg.(value & opt (some file) None & info [ "apply" ] ~docv:"FILE"
           ~doc:"Read verdicts back from a marked triage file.")
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:"Export ranked reports for inspection / fold verdicts into history")
    Term.(
      const do_triage $ files $ extensions $ output $ apply_file $ history)

(* ------------------------------------------------------------------ *)
(* serve (long-lived analysis daemon)                                  *)
(* ------------------------------------------------------------------ *)

let do_serve files exts rank () cpp jobs cache socket options =
  if files = [] then begin
    Format.eprintf "no input files@.";
    exit 2
  end;
  (* a client vanishing mid-reply must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let exts_src = resolve_checkers exts in
  let loader = Loader.create ?cpp ?ast_cache:cache () in
  (* Always memory-backed: warm re-checks never read the disk store. *)
  let cfg =
    {
      Server.c_files = files;
      c_parse = Loader.parse loader;
      c_exts = List.map fst exts_src;
      c_options = options;
      c_jobs = jobs;
      c_store = Pass.open_store ~memory:true ~cache ~options (List.map snd exts_src);
      c_rank = rank;
    }
  in
  match Server.create ~loader cfg with
  | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  | Ok server ->
      (* warm-up: load, parse, and analyse once, so the first request is
         answered from hot state; its warnings follow the first stderr
         line, as batch check prints them *)
      let o = Server.check server in
      Format.eprintf
        "xgcc serve: %d file(s), %d checker(s), warm-up %.3fs (%d report(s)); %s@."
        (List.length files) (List.length exts_src) o.Server.o_recheck_s
        o.Server.o_reports
        (match socket with
        | Some p -> "listening on " ^ p
        | None -> "reading requests from stdin");
      List.iter prerr_endline o.Server.o_warnings;
      (match socket with
      | Some path -> Server.serve_socket server ~path
      | None -> Server.serve_stdio server)

let serve_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
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
      const do_serve $ files $ extensions $ rank $ verbose $ cpp $ jobs $ cache
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
