(* The sequential driver's release schedule: every function's summary
   tables are dropped after the last root, in root order, that can reach
   the function. Exactness rests on two facts checked here — a traversal
   only enters callees the callgraph records, and the schedule is the
   last-reader assignment — and the pinned runs check that the release
   changes no count, counter or summary table of a sequential run.
   [Engine.run]'s sequential driver also asserts that the table is empty
   after each extension's last root, so every run below checks that too. *)

let t = Alcotest.test_case

let sg_of_files = Test_annot_pos.sg_of_files

let gen_sources gs = List.map (fun (f, (g : Gen.t)) -> (f, g.Gen.source)) gs

(* A helper reached from three roots, and a recursion-only component
   whose root ([ping], the first of it by name) has a caller ([pong]). *)
let shapes_src =
  "int helper(int *p) { return *p; }\n\
   int r1(int *p) { return helper(p); }\n\
   int r2(int *p) { kfree(p); return helper(p) + leaf(p); }\n\
   int leaf(int *p) { return 0; }\n\
   int ping(int *p) { return pong(p); }\n\
   int pong(int *p) { if (p) { return ping(p); } return helper(p); }\n"

let corpora () =
  Test_annot_pos.corpora ()
  @ [
      ("shapes", sg_of_files [ ("shapes.c", shapes_src) ]);
      ( "gen linked seed 5 (3x8)",
        sg_of_files
          (gen_sources
             (Gen.generate_linked ~seed:5 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.4)) );
    ]

(* The engine follows a node's call exactly when it is [f(args)] with [f]
   a defined function (the engine's [call_target]). *)
let call_target sg (e : Cast.expr) =
  match e.enode with
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, _) when Supergraph.cfg_of sg f <> None ->
      Some f
  | _ -> None

(* Brute force: each function's slot is the last root whose closure
   contains it. *)
let reference_schedule cg =
  let roots = Array.of_list (Callgraph.roots cg) in
  let closure = Callgraph.closure cg in
  let slots = Array.make (Array.length roots) [] in
  List.iter
    (fun f ->
      let last = ref (-1) in
      Array.iteri (fun i r -> if List.mem f (closure r) then last := i) roots;
      if !last < 0 then Alcotest.failf "%s is in no root's closure" f;
      slots.(!last) <- f :: slots.(!last))
    (Callgraph.functions cg);
  Array.map (List.sort String.compare) slots

let sorted_slots s = Array.map (List.sort String.compare) s

(* ------------------------------------------------------------------ *)
(* Pinned sequential runs                                              *)
(* ------------------------------------------------------------------ *)

let all_exts () = List.map (fun (e : Registry.entry) -> e.e_make ()) (Registry.all ())

(* The counts of the --stats [stats:], [interning:] and [dispatch:] lines,
   plus coverage and the transition and instance counters. *)
let render_stats (s : Engine.stats) =
  Printf.sprintf
    "blocks %d nodes %d paths %d hits %d calls %d sums %d pruned %d | probes %d \
     atoms %d tuples %d | attempts %d index %d skipped %d | fns %d fired %d inst %d"
    s.blocks_visited s.nodes_visited s.paths_explored s.cache_hits s.calls_followed
    s.summary_hits s.pruned_branches s.cache_probes s.intern_atoms s.intern_tuples
    s.match_attempts s.index_hits s.blocks_skipped s.functions_traversed
    s.transitions_fired s.instances_created

let render_counters (r : Engine.result) =
  String.concat ";"
    (List.map (fun (rule, e, c) -> Printf.sprintf "%s=%d/%d" rule e c) r.counters)

(* Every extension's tables, functions in name order, each block's
   summary and suffix summary printed. *)
let render_tables per_ext =
  let b = Buffer.create 4096 in
  List.iter
    (fun (ext, tbl) ->
      Buffer.add_string b ("## " ^ ext ^ "\n");
      List.iter
        (fun (f, ((bs : Summary.t array), (sfx : Summary.t array))) ->
          Buffer.add_string b ("= " ^ f ^ "\n");
          Array.iteri
            (fun i s ->
              Buffer.add_string b
                (Format.asprintf "B%d %a | %a\n" i Summary.pp s Summary.pp sfx.(i)))
            bs)
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (Hashtbl.fold (fun f s acc -> (f, s) :: acc) tbl [])))
    per_ext;
  Buffer.contents b

(* Recorded from the sequential driver before it released anything: it
   kept every table until the extension ended. The linked corpus reuses
   summaries across roots (490 summary hits), so a table released while a
   later root could still hit it changes its counts. *)
type pinned = {
  p_stats : string;
  p_counters : string;
  p_reports : int;
  p_tables_md5 : string;
  p_tables_len : int;
}

let pinned_runs () =
  [
    (* r2 enters helper, which r1 summarised, with p freed: a new entry
       tuple, so r2's frame copies helper's tables before extending them.
       Recorded from the sequential driver before roots ran in frames, when
       every root extended the run's tables in place. *)
    ( "shapes",
      sg_of_files [ ("shapes.c", shapes_src) ],
      {
        p_stats =
          "blocks 212 nodes 366 paths 99 hits 15 calls 83 sums 40 pruned 0 | probes 295 \
           atoms 12 tuples 4 | attempts 220 index 207 skipped 92 | fns 6 fired 4 inst 2";
        p_counters = "";
        p_reports = 2;
        p_tables_md5 = "5cb9d2c696167589a5cf16ab917ea04b";
        p_tables_len = 12289;
      } );
    ( "gen seed 21",
      sg_of_files
        (gen_sources (Gen.generate_files ~seed:21 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.4)),
      {
        p_stats =
          "blocks 1623 nodes 5378 paths 670 hits 241 calls 68 sums 0 pruned 0 | probes \
           1691 atoms 65 tuples 32 | attempts 3737 index 3775 skipped 523 | fns 29 fired \
           179 inst 58";
        p_counters =
          "f0_gen_fn_2=0/1;f0_gen_fn_2_finish=1/0;f0_gen_fn_5_finish=1/0;f0_gen_fn_6=1/0;\
           f1_gen_fn_3=1/0;f1_gen_fn_4=1/1;f1_gen_fn_5=1/0;f1_gen_fn_6=1/0;f2_gen_fn_1=1/0;\
           f2_gen_fn_3_finish=1/0";
        p_reports = 15;
        p_tables_md5 = "bc7e957515890d543edb29c6d798207e";
        p_tables_len = 89654;
      } );
    ( "gen linked seed 5",
      sg_of_files
        (gen_sources
           (Gen.generate_linked ~seed:5 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.4)),
      {
        p_stats =
          "blocks 1470 nodes 4522 paths 616 hits 197 calls 532 sums 490 pruned 0 | probes \
           2002 atoms 45 tuples 16 | attempts 3044 index 3070 skipped 495 | fns 27 fired \
           81 inst 38";
        p_counters = "f0_xfn_3=0/1;f1_xfn_7=0/1;f2_xfn_4=0/1;shared_unlock=1/0";
        p_reports = 16;
        p_tables_md5 = "3ba2f583dea9199ce7acad7686d5d6f8";
        p_tables_len = 80400;
      } );
    ( "vfs fixture",
      Fixture_vfs.supergraph (),
      {
        p_stats =
          "blocks 721 nodes 1840 paths 281 hits 130 calls 69 sums 40 pruned 0 | probes 790 \
           atoms 45 tuples 20 | attempts 1230 index 1216 skipped 240 | fns 10 fired 52 inst \
           11";
        p_counters = "sb_remount=1/1;sb_sync=1/0";
        p_reports = 8;
        p_tables_md5 = "07757f599958e2a79e470aa7dd1abe33";
        p_tables_len = 37821;
      } );
  ]

let section_names text =
  List.filter_map
    (fun line ->
      let n = String.length line in
      if n > 8 && String.sub line 0 4 = "=== " && String.sub line (n - 4) 4 = " ===" then
        Some (String.sub line 4 (n - 8))
      else None)
    (String.split_on_char '\n' text)

let suite =
  [
    t "every followed call is a callgraph edge" `Quick (fun () ->
        let calls = ref 0 in
        List.iter
          (fun (name, (sg : Supergraph.t)) ->
            let cg = sg.callgraph and flat = sg.flat in
            List.iter
              (fun g ->
                let cfg = Option.get (Supergraph.cfg_of sg g) in
                let base = Flat.fbase flat g in
                for bid = 0 to Cfg.n_blocks cfg - 1 do
                  Array.iter
                    (function
                      | Flat.Ev_node e -> (
                          match call_target sg e with
                          | Some f ->
                              incr calls;
                              if not (List.mem f (Callgraph.callees cg g)) then
                                Alcotest.failf "%s: %s calls %s, not a callgraph edge" name
                                  g f
                          | None -> ())
                      | Flat.Ev_fresh _ | Flat.Ev_scope_end _ -> ())
                    (Flat.events flat (base + bid))
                done)
              (Callgraph.functions cg))
          (corpora ());
        Alcotest.(check bool) "calls were checked" true (!calls > 50));
    t "each function is released after its last reader" `Quick (fun () ->
        List.iter
          (fun (name, (sg : Supergraph.t)) ->
            let cg = sg.callgraph in
            let got = Callgraph.release_schedule cg in
            Alcotest.(check (array (list string)))
              (name ^ ": last root whose closure holds it")
              (reference_schedule cg) (sorted_slots got);
            Alcotest.(check (list string))
              (name ^ ": every function in exactly one slot")
              (Callgraph.functions cg)
              (List.sort String.compare (List.concat (Array.to_list got))))
          (corpora ());
        let cg = (sg_of_files [ ("shapes.c", shapes_src) ]).callgraph in
        Alcotest.(check (list string)) "roots" [ "r1"; "r2"; "ping" ] (Callgraph.roots cg);
        Alcotest.(check (list string)) "ping is a root with a caller" [ "pong" ]
          (Callgraph.callers cg "ping");
        Alcotest.(check (array (list string)))
          "the shared helper goes with the recursion root, the last to reach it"
          [| [ "r1" ]; [ "leaf"; "r2" ]; [ "helper"; "ping"; "pong" ] |]
          (sorted_slots (Callgraph.release_schedule cg)));
    t "releasing changes no count, counter or table at -j 1" `Quick (fun () ->
        List.iter
          (fun (name, sg, p) ->
            let r = Engine.run ~jobs:1 sg (all_exts ()) in
            let r2, per_ext = Engine.run_with_summaries sg (all_exts ()) in
            let label what = name ^ ": " ^ what in
            Alcotest.(check string) (label "stats") p.p_stats (render_stats r.Engine.stats);
            Alcotest.(check string)
              (label "run_with_summaries stats") p.p_stats
              (render_stats r2.Engine.stats);
            Alcotest.(check string) (label "counters") p.p_counters (render_counters r);
            Alcotest.(check int) (label "reports") p.p_reports (List.length r.Engine.reports);
            let tables = render_tables per_ext in
            Alcotest.(check int) (label "tables length") p.p_tables_len (String.length tables);
            Alcotest.(check string)
              (label "tables") p.p_tables_md5
              (Digest.to_hex (Digest.string tables)))
          (pinned_runs ()));
    t "dump-summaries prints sections in name order" `Quick (fun () ->
        (* release order (slot by slot) is not name order here *)
        let sg = sg_of_files [ ("shapes.c", shapes_src) ] in
        let released = List.concat (Array.to_list (Callgraph.release_schedule sg.callgraph)) in
        Alcotest.(check bool) "release order differs from name order" true
          (released <> List.sort String.compare released);
        let _, per_ext = Engine.run_with_summaries sg [ Free_checker.checker () ] in
        let text = Format.asprintf "%a" (Engine.pp_summaries sg) per_ext in
        let names = List.concat_map (fun (_, tbl) -> Hashtbl.fold (fun f _ acc -> f :: acc) tbl []) per_ext in
        Alcotest.(check (list string))
          "every table once, sorted" (List.sort String.compare names) (section_names text);
        Alcotest.(check (list string))
          "all six functions" [ "helper"; "leaf"; "ping"; "pong"; "r1"; "r2" ]
          (section_names text));
  ]
