(* Whole-program audit: the full pipeline on a multi-file code base.

   Generates a three-file "kernel module" with planted bugs, runs pass 1
   (emit ASTs) and pass 2 (reassemble + analyse) exactly as Section 6
   describes, applies every built-in checker, ranks the reports, and shows
   detection against the generator's ground truth. *)

let () =
  Format.printf "=== whole-program audit ===@.@.";
  (* a shared-helpers file plus three client files: every planted
     use-after-free crosses a file boundary through a helper *)
  let files =
    Gen.generate_linked ~seed:2026 ~n_files:3 ~funcs_per_file:10 ~bug_rate:0.35
  in
  let tmpdir = Filename.temp_file "mc_wp" "" in
  Sys.remove tmpdir;
  Sys.mkdir tmpdir 0o755;

  (* pass 1: each file parsed in isolation, AST emitted *)
  let ast_files =
    List.map
      (fun (name, (g : Gen.t)) ->
        let tu = Cparse.parse_tunit ~file:name g.Gen.source in
        let path = Filename.concat tmpdir (name ^ ".mcast") in
        Cast_io.emit_file path tu;
        Format.printf "pass 1: %-10s -> %s (%d bytes of AST)@." name path
          (String.length (Cast_io.emit_string tu));
        path)
      files
  in

  (* pass 2: reassemble ASTs, build the supergraph *)
  let tus =
    List.map
      (fun path ->
        match Cast_io.read_file path with Ok tu -> tu | Error msg -> failwith msg)
      ast_files
  in
  let sg = Supergraph.build tus in
  Format.printf "@.pass 2: %d translation units, roots: %s@." (List.length tus)
    (String.concat ", " (Supergraph.roots sg));

  (* run every checker *)
  let checkers = List.map (fun e -> e.Registry.e_make ()) (Registry.all ()) in
  let result = Engine.run sg checkers in
  let ranked = Rank.generic_sort result.Engine.reports in
  Format.printf "@.%d reports (severity-ranked):@." (List.length ranked);
  List.iteri (fun i r -> Format.printf "  %2d. %a@." (i + 1) Report.pp r) ranked;

  (* ground truth *)
  let planted = List.concat_map (fun (_, (g : Gen.t)) -> g.Gen.planted) files in
  let detected =
    List.filter
      (fun (p : Gen.planted) ->
        List.exists
          (fun (r : Report.t) -> String.equal r.Report.func p.Gen.in_function)
          result.Engine.reports)
      planted
  in
  Format.printf "@.detection: %d / %d planted bugs@." (List.length detected)
    (List.length planted);
  List.iter
    (fun (p : Gen.planted) ->
      let hit =
        List.exists
          (fun (r : Report.t) -> String.equal r.Report.func p.Gen.in_function)
          result.Engine.reports
      in
      Format.printf "  %-24s %-22s %s@." p.Gen.in_function
        (Gen.bug_kind_to_string p.Gen.kind)
        (if hit then "found" else "MISSED"))
    planted;

  (* engine statistics *)
  let st = result.Engine.stats in
  Format.printf
    "@.engine: %d blocks, %d nodes, %d paths, %d cache hits, %d calls followed, %d summary hits@."
    st.Engine.blocks_visited st.Engine.nodes_visited st.Engine.paths_explored
    st.Engine.cache_hits st.Engine.calls_followed st.Engine.summary_hits;

  (* cleanup *)
  List.iter Sys.remove ast_files;
  Sys.rmdir tmpdir
