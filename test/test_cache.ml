(* The persistent incremental cache: fingerprints, the pass-1 AST object
   cache (including emit-target disambiguation), summary serialisation,
   and the engine's cached mode — warm runs must be byte-identical to
   cold runs at any job count, and a leaf edit must invalidate exactly
   the leaf and its transitive callers. *)

let t = Alcotest.test_case

let temp_dir () =
  let f = Filename.temp_file "xgcc_test_cache" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let free () = [ Free_checker.checker () ]

let sg_of_files files =
  Supergraph.build
    (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files)

let store_over dir =
  Summary_store.create ~dir
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources:[ "free" ])
    ()

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* the pack files of one kind ("sum" or "root"), sorted *)
let packs dir kind =
  let d = Filename.concat dir kind in
  Sys.readdir d |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pack")
  |> List.sort String.compare
  |> List.map (Filename.concat d)

let the_pack dir kind =
  match packs dir kind with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one %s pack, found %d" kind (List.length ps)

(* A pack is [6-byte magic | 16-byte digest | payload]. Each of these must
   turn every entry of the pack into a miss. *)
let flip i d = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c) d

let manglings =
  [
    ("truncated", fun d -> String.sub d 0 (String.length d / 2));
    ("payload byte flipped", fun d -> flip (String.length d - 1) d);
    ("digest byte flipped", flip 10);
    ("bad magic", fun d -> "XGXX1\n" ^ String.sub d 6 (String.length d - 6));
    ("sexp garbage", fun _ -> "(fn f c () ())\n");
  ]

(* inode and mtime: a rewrite renames a new file into place *)
let identity path =
  let st = Unix.stat path in
  (st.Unix.st_ino, st.Unix.st_mtime)

(* emission-order report lines: the byte-identity contract is about output
   order, so no sorting here *)
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

let leaf_v1 =
  "static void leaf(int *p) { int e = 1; (void)e; kfree(p); }\n\
   int caller(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
   int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"

(* same program with the leaf's body edited in place: the dead constant
   changes, so the body hash changes, but no source location moves and no
   analysis behaviour changes — the summary-neutral edit shape. (An edit
   that inserts or removes text shifts the locations of everything after
   it, and locations are observable through report and tuple trees, so
   such an edit IS a content change.) *)
let leaf_v2 =
  "static void leaf(int *p) { int e = 2; (void)e; kfree(p); }\n\
   int caller(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
   int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"

let suite =
  [
    t "fingerprints are stable and content-sensitive" `Quick (fun () ->
        Alcotest.(check string)
          "same input, same digest"
          (Fingerprint.of_string "hello")
          (Fingerprint.of_string "hello");
        Alcotest.(check bool)
          "different input, different digest" false
          (String.equal (Fingerprint.of_string "a") (Fingerprint.of_string "b"));
        Alcotest.(check bool)
          "salt changes the digest" false
          (String.equal
             (Fingerprint.of_string ~salt:"v1" "x")
             (Fingerprint.of_string ~salt:"v2" "x"));
        Alcotest.(check bool)
          "combine is order-sensitive" false
          (String.equal
             (Fingerprint.combine [ "a"; "b" ])
             (Fingerprint.combine [ "b"; "a" ])));
    t "ast fingerprint includes the file name" `Quick (fun () ->
        (* locations are baked into the AST, so the same text under two
           names must yield two cache objects *)
        Alcotest.(check bool)
          "same source, different file" false
          (String.equal
             (Cast_io.ast_fingerprint ~file:"a.c" ~source:"int x;")
             (Cast_io.ast_fingerprint ~file:"b.c" ~source:"int x;")));
    t "AST object cache round-trips a translation unit" `Quick (fun () ->
        let cache_dir = temp_dir () in
        let src = "int f(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"rt.c" src in
        let fp = Cast_io.ast_fingerprint ~file:"rt.c" ~source:src in
        Alcotest.(check bool)
          "miss before write" true
          (Cast_io.read_cached ~cache_dir fp = None);
        Cast_io.write_cached ~cache_dir fp tu;
        match Cast_io.read_cached ~cache_dir fp with
        | None -> Alcotest.fail "expected a cache hit"
        | Some tu' ->
            Alcotest.(check string)
              "identical emitted form" (Cast_io.emit_string tu)
              (Cast_io.emit_string tu'));
    t "emit targets keep unique basenames, disambiguate collisions" `Quick
      (fun () ->
        Alcotest.(check (list (pair string string)))
          "unique basenames unchanged"
          [ ("dir/x.c", "x.mcast"); ("dir/y.c", "y.mcast") ]
          (Cast_io.emit_targets [ "dir/x.c"; "dir/y.c" ]);
        (* the regression: a/util.c and b/util.c used to overwrite each
           other's util.mcast *)
        let targets = Cast_io.emit_targets [ "a/util.c"; "b/util.c" ] in
        let outs = List.map snd targets in
        Alcotest.(check int)
          "two distinct outputs" 2
          (List.length (List.sort_uniq String.compare outs));
        List.iter
          (fun o ->
            Alcotest.(check bool) "keeps .mcast suffix" true
              (Filename.check_suffix o ".mcast"))
          outs;
        match Cast_io.emit_targets [ "dup.c"; "./dup.c" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument on a residual collision");
    t "written files honour the umask; a failed write leaves nothing" `Quick
      (fun () ->
        let dir = temp_dir () in
        let old = Unix.umask 0o022 in
        Fun.protect
          ~finally:(fun () -> ignore (Unix.umask old))
          (fun () ->
            let tu = Cparse.parse_tunit ~file:"m.c" leaf_v1 in
            let emitted = Filename.concat dir "m.mcast" in
            Cast_io.emit_file emitted tu;
            let store = store_over dir in
            let run = Engine.run ~cache:store (sg_of_files [ ("m.c", leaf_v1) ]) (free ()) in
            Summary_store.save_last_run store;
            let fp = Cast_io.ast_fingerprint ~file:"m.c" ~source:leaf_v1 in
            Cast_io.write_cached ~cache_dir:dir fp tu;
            let triage = Filename.concat dir "triage.txt" in
            Triage.export_file triage run.Engine.reports;
            let history = Filename.concat dir "history.db" in
            History.save history (History.of_reports run.Engine.reports);
            List.iter
              (fun path ->
                Alcotest.(check int) (Filename.basename path ^ " mode") 0o644
                  (Unix.stat path).Unix.st_perm)
              [
                emitted; the_pack dir "sum"; the_pack dir "root";
                Filename.concat dir "VERSION"; Filename.concat dir "last-run";
                Cast_io.cached_path ~cache_dir:dir fp; triage; history;
              ]);
        (* a write that raises leaves neither the target nor a temp file,
           and an existing target keeps its contents *)
        let target = Filename.concat dir "t.out" in
        let failing () =
          Wire.write_file target (fun oc ->
              output_string oc "partial";
              failwith "injected")
        in
        Alcotest.check_raises "new target" (Failure "injected") failing;
        Alcotest.(check bool) "no target" false (Sys.file_exists target);
        write_bytes target "old";
        Alcotest.check_raises "existing target" (Failure "injected") failing;
        Alcotest.(check string) "target untouched" "old" (read_bytes target);
        (* a final flush that fails (here the descriptor is gone) must not
           rename a torn file into place *)
        (match
           Wire.write_file target (fun oc ->
               output_string oc "new contents";
               Unix.close (Unix.descr_of_out_channel oc))
         with
        | () -> Alcotest.fail "a failed flush was renamed into place"
        | exception Sys_error _ -> ());
        Alcotest.(check string) "target untouched by a failed flush" "old" (read_bytes target);
        Alcotest.(check (list string)) "no temp file" []
          (List.filter
             (fun f -> Filename.check_suffix f ".tmp")
             (Array.to_list (Sys.readdir dir))));
    t "root entries round-trip through the store" `Quick (fun () ->
        let dir = temp_dir () in
        let store = store_over dir in
        let ext = Summary_store.ext_key store 0 in
        let r = Engine.check_source ~file:"r.c" leaf_v1 (free ()) in
        Alcotest.(check bool) "have a report" true (r.Engine.reports <> []);
        let entry =
          {
            Summary_store.r_root = "caller";
            r_key = Fingerprint.of_string "key";
            r_reports = r.Engine.reports;
            r_counters = [ ("rule", 3, 1) ];
            r_annots = [];
            r_traversed = [ "caller"; "leaf" ];
            r_stats = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
          }
        in
        Summary_store.store_root store ~ext entry;
        (match
           Summary_store.load_root store ~ext ~root:"caller"
             ~key:(Fingerprint.of_string "key")
         with
        | None -> Alcotest.fail "expected a root hit"
        | Some e ->
            Alcotest.(check (list string))
              "reports round-trip"
              (List.map Report.to_string entry.Summary_store.r_reports)
              (List.map Report.to_string e.Summary_store.r_reports);
            Alcotest.(check (list (triple string int int)))
              "counters round-trip" entry.Summary_store.r_counters
              e.Summary_store.r_counters;
            Alcotest.(check (list string))
              "traversed round-trips" entry.Summary_store.r_traversed
              e.Summary_store.r_traversed);
        Alcotest.(check bool)
          "stale key misses" true
          (Summary_store.load_root store ~ext ~root:"caller"
             ~key:(Fingerprint.of_string "other")
          = None);
        (* written to its pack and read back through a fresh handle *)
        Summary_store.flush store;
        match
          Summary_store.load_root (store_over dir) ~ext ~root:"caller"
            ~key:(Fingerprint.of_string "key")
        with
        | None -> Alcotest.fail "expected a root hit from the pack"
        | Some e ->
            Alcotest.(check (list string))
              "reports round-trip through the pack"
              (List.map Report.to_string entry.Summary_store.r_reports)
              (List.map Report.to_string e.Summary_store.r_reports));
    t "warm run is byte-identical to cold, including -j" `Quick (fun () ->
        let files =
          Gen.generate_files ~seed:31 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
          |> List.map (fun (file, g) -> (file, g.Gen.source))
        in
        let sg = sg_of_files files in
        let uncached = Engine.run sg (free ()) in
        let dir = temp_dir () in
        let cold = Engine.run ~cache:(store_over dir) sg (free ()) in
        let warm_store = store_over dir in
        let warm = Engine.run ~cache:warm_store sg (free ()) in
        let warm4 = Engine.run ~jobs:4 ~cache:(store_over dir) sg (free ()) in
        Alcotest.(check (list string))
          "cold = uncached" (report_lines uncached) (report_lines cold);
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        Alcotest.(check (list string))
          "warm -j 4 = uncached" (report_lines uncached) (report_lines warm4);
        let st = Summary_store.stats warm_store in
        Alcotest.(check int)
          "warm run recomputes nothing" 0 st.Summary_store.roots_recomputed;
        Alcotest.(check bool)
          "warm run replays roots" true (st.Summary_store.roots_replayed > 0));
    t "summary-neutral leaf edit cuts off at the leaf" `Quick (fun () ->
        let dir = temp_dir () in
        (* cold run populates the store for v1 *)
        let _ =
          Engine.run
            ~cache:(store_over dir)
            (sg_of_files [ ("inv.c", leaf_v1) ])
            (free ())
        in
        let store = store_over dir in
        let v2 =
          Engine.run ~cache:store (sg_of_files [ ("inv.c", leaf_v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        (* functions: leaf, caller, unrelated. The edit changes a dead
           constant in leaf, so leaf's own key (body hash) goes stale and
           it recomputes — but its canonical summary content is unchanged,
           so the cutoff fires: caller's key folds leaf's CONTENT and
           still validates. This is the early-cutoff upgrade over
           body-hash closure keying, which recomputed caller too. *)
        Alcotest.(check int) "caller and unrelated still valid" 2
          st.Summary_store.fn_hits;
        Alcotest.(check int) "only leaf stale" 1 st.Summary_store.fn_stale;
        Alcotest.(check int) "nothing absent" 0 st.Summary_store.fn_absent;
        Alcotest.(check int) "only leaf recomputed" 1
          st.Summary_store.fns_recomputed;
        Alcotest.(check int) "leaf's content unchanged" 1
          st.Summary_store.sums_unchanged;
        (* roots: both replay — caller only because the cutoff fired *)
        Alcotest.(check int) "both roots replay" 2
          st.Summary_store.roots_replayed;
        Alcotest.(check int) "no root recomputes" 0
          st.Summary_store.roots_recomputed;
        Alcotest.(check int) "caller was salvaged by the cutoff" 1
          st.Summary_store.roots_salvaged;
        (* and the result still matches an uncached run of v2 *)
        let uncached = Engine.check_source ~file:"inv.c" leaf_v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines v2));
    t "summary-changing edit invalidates exactly the transitive callers"
      `Quick (fun () ->
        (* chain top -> mid -> leaf, plus an unrelated root: editing leaf
           so its summary content changes (it now frees its argument) must
           recompute exactly the chain's entries and the chain's root, and
           leave unrelated untouched *)
        let v1 =
          "static void leaf(int *p) { (void)p; }\n\
           static void mid(int *p) { leaf(p); }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let v2 =
          "static void leaf(int *p) { kfree(p); }\n\
           static void mid(int *p) { leaf(p); }\n\
           int top(int n) { int *x = kmalloc(n); mid(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("ch.c", v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("ch.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        (* leaf stale on body hash; its new content propagates, so mid and
           top go stale in turn — no cutoff anywhere on the chain *)
        Alcotest.(check int) "unrelated still valid" 1 st.Summary_store.fn_hits;
        Alcotest.(check int) "the chain is stale" 3 st.Summary_store.fn_stale;
        Alcotest.(check int) "chain recomputed" 3 st.Summary_store.fns_recomputed;
        Alcotest.(check int) "no content survived the edit" 0
          st.Summary_store.sums_unchanged;
        Alcotest.(check int) "unrelated replays" 1 st.Summary_store.roots_replayed;
        Alcotest.(check int) "top recomputes" 1 st.Summary_store.roots_recomputed;
        let uncached = Engine.check_source ~file:"ch.c" v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines warm));
    t "comment-only edit replays everything" `Quick (fun () ->
        (* comments never reach the AST, so every fingerprint — body,
           declarations, annotations — is unchanged: the warm run must
           recompute no summaries and no roots. Trailing comments only:
           a comment on its own line before the code would shift every
           source location, which IS a content change *)
        let v2 = leaf_v1 ^ "/* tidy: reviewed 2026-08 */\n" in
        let dir = temp_dir () in
        let cold =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("cm.c", leaf_v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("cm.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        Alcotest.(check int) "no summaries recomputed" 0
          st.Summary_store.fns_recomputed;
        Alcotest.(check int) "no summaries stale" 0 st.Summary_store.fn_stale;
        Alcotest.(check int) "no roots recomputed" 0
          st.Summary_store.roots_recomputed;
        Alcotest.(check (list string))
          "reports byte-identical" (report_lines cold) (report_lines warm));
    t "persist:false stores replay but never write" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("ro.c", leaf_v1) ] in
        let ro =
          Summary_store.create ~dir ~persist:false
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let _ = Engine.run ~cache:ro sg (free ()) in
        Alcotest.(check bool)
          "no entries written" true
          (not (Sys.file_exists (Filename.concat dir "root")));
        (* a second read-only run still misses — nothing was persisted *)
        let ro2 =
          Summary_store.create ~dir ~persist:false
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let _ = Engine.run ~cache:ro2 sg (free ()) in
        Alcotest.(check int)
          "still cold" 0 (Summary_store.stats ro2).Summary_store.roots_replayed);
    t "options digest carries the analysis version stamp" `Quick (fun () ->
        (* the stamp is what orphans cached results when engine or builtin
           checker semantics change without any checker source changing *)
        let d = Engine.options_digest Engine.default_options in
        let v = Engine.analysis_version in
        Alcotest.(check bool)
          "digest starts with the version stamp" true
          (String.length d > String.length v
          && String.equal (String.sub d 0 (String.length v)) v));
    t "non-function global edit invalidates cached roots" `Quick (fun () ->
        (* the regression: typedefs, struct layouts, enums, prototypes and
           global-variable declarations feed analysis through the typing
           environment but appear in no function-body hash, so editing one
           used to leave every closure key — and the stale cached results —
           untouched *)
        let v1 = "int g = 1;\n" ^ leaf_v1 in
        let v2 = "int g = 2;\n" ^ leaf_v1 in
        let dir = temp_dir () in
        let _ =
          Engine.run ~cache:(store_over dir) (sg_of_files [ ("g.c", v1) ]) (free ())
        in
        let store = store_over dir in
        let warm =
          Engine.run ~cache:store (sg_of_files [ ("g.c", v2) ]) (free ())
        in
        let st = Summary_store.stats store in
        Alcotest.(check int)
          "no root replays across a declaration edit" 0
          st.Summary_store.roots_replayed;
        Alcotest.(check int)
          "no summary hits across a declaration edit" 0 st.Summary_store.fn_hits;
        let uncached = Engine.check_source ~file:"g.c" v2 (free ()) in
        Alcotest.(check (list string))
          "edited run = uncached" (report_lines uncached) (report_lines warm));
    t "corrupt root entries degrade to misses" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("c.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let _ = Engine.run ~cache:(store_over dir) sg (free ()) in
        let pack = the_pack dir "root" in
        let intact = read_bytes pack in
        (* each mangling of the intact pack must read as a miss for every
           root rather than abort the run *)
        List.iter
          (fun (what, mangle) ->
            write_bytes pack (mangle intact);
            let store = store_over dir in
            let warm = Engine.run ~cache:store sg (free ()) in
            Alcotest.(check int)
              (what ^ ": all roots recompute") 0
              (Summary_store.stats store).Summary_store.roots_replayed;
            Alcotest.(check (list string))
              (what ^ ": reports unaffected") (report_lines uncached) (report_lines warm))
          manglings);
    t "truncated and corrupt summary entries degrade to misses" `Quick
      (fun () ->
        let dir = temp_dir () in
        let store = store_over dir in
        let ext = Summary_store.ext_key store 0 in
        let key = Fingerprint.of_string "k" in
        let names = [ "f"; "g" ] in
        List.iter
          (fun fname ->
            Summary_store.store_fn store ~ext ~fname ~key
              ~content:(Fingerprint.of_string "c")
              ~bs:[| Summary.create () |]
              ~sfx:[| Summary.create () |]
              ~rets:[ "rs" ])
          names;
        Summary_store.flush store;
        (match Summary_store.probe_fn (store_over dir) ~ext ~fname:"f" ~key with
        | Summary_store.Hit h -> (
            match Summary_store.hit_entry h with
            | Some e ->
                Alcotest.(check string) "name round-trips" "f" e.Summary_store.f_name;
                Alcotest.(check (list string))
                  "rets round-trip" [ "rs" ] e.Summary_store.f_rets
            | None -> Alcotest.fail "the intact entry must decode")
        | _ -> Alcotest.fail "expected a hit on the intact entry");
        let pack = the_pack dir "sum" in
        let intact = read_bytes pack in
        List.iter
          (fun (what, mangle) ->
            write_bytes pack (mangle intact);
            let reopened = store_over dir in
            List.iter
              (fun fname ->
                match Summary_store.probe_fn reopened ~ext ~fname ~key with
                | Summary_store.Absent -> ()
                | _ -> Alcotest.failf "%s pack: %s must probe Absent" what fname)
              names)
          manglings);
    t "a bad-digest pack is a miss and the next run rewrites it" `Quick
      (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("d.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let _ = Engine.run ~cache:(store_over dir) sg (free ()) in
        let pack = the_pack dir "sum" in
        let intact = read_bytes pack in
        write_bytes pack (flip 10 intact);
        let store = store_over dir in
        let run = Engine.run ~cache:store sg (free ()) in
        let st = Summary_store.stats store in
        Alcotest.(check int) "no summary hits from the bad pack" 0 st.Summary_store.fn_hits;
        Alcotest.(check (list string))
          "reports = uncached" (report_lines uncached) (report_lines run);
        Alcotest.(check int) "only the bad pack is written" 1
          st.Summary_store.packs_written;
        Alcotest.(check bool) "rewritten byte-identically" true
          (String.equal intact (read_bytes pack));
        let store = store_over dir in
        let _ = Engine.run ~cache:store sg (free ()) in
        let st = Summary_store.stats store in
        Alcotest.(check int) "the rewritten pack serves every probe" 0
          (st.Summary_store.fn_stale + st.Summary_store.fn_absent);
        Alcotest.(check int) "and is not written again" 0 st.Summary_store.packs_written);
    t "only packs whose entries changed are rewritten" `Quick (fun () ->
        (* free and lock: the leaf edit below changes free's summaries,
           while lock's analysis of the leaf is the same before and after *)
        let exts () = [ Free_checker.checker (); Lock_checker.checker () ] in
        let store2 dir =
          Summary_store.create ~dir
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free"; "lock" ])
            ()
        in
        let v1 =
          "static void leaf(int *p) { (void)p; }\n\
           int top(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let v2 =
          "static void leaf(int *p) { kfree(p); }\n\
           int top(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
           int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
        in
        let dir = temp_dir () in
        let _ = Engine.run ~cache:(store2 dir) (sg_of_files [ ("p.c", v1) ]) (exts ()) in
        let all () = packs dir "sum" @ packs dir "root" in
        Alcotest.(check int) "one pack per kind and extension" 4 (List.length (all ()));
        let snapshot () =
          List.map
            (fun p ->
              match Summary_store.dump_pack p with
              | Ok d -> (p, (identity p, Format.asprintf "%a" Summary_store.pp_dump d))
              | Error e -> Alcotest.failf "%s: %s" p e)
            (all ())
        in
        let before = snapshot () in
        (* comment-only: no entry changes, so no pack is written *)
        let store = store2 dir in
        let _ =
          Engine.run ~cache:store
            (sg_of_files [ ("p.c", v1 ^ "/* reviewed */\n") ])
            (exts ())
        in
        Alcotest.(check int) "comment edit writes no pack" 0
          (Summary_store.stats store).Summary_store.packs_written;
        List.iter2
          (fun (p, (id, _)) (_, (id', _)) ->
            Alcotest.(check bool) (p ^ ": inode and mtime unchanged") true (id = id'))
          before (snapshot ());
        (* summary-changing: a pack is rewritten exactly when its entries
           changed *)
        let store = store2 dir in
        let _ = Engine.run ~cache:store (sg_of_files [ ("p.c", v2) ]) (exts ()) in
        let after = snapshot () in
        let changed =
          List.map2
            (fun (p, ((ino, _), entries)) (_, ((ino', _), entries')) ->
              let rewritten = ino <> ino' in
              Alcotest.(check bool)
                (p ^ ": rewritten iff its entries changed")
                (entries <> entries') rewritten;
              rewritten)
            before after
        in
        Alcotest.(check int) "packs written = packs changed"
          (List.length (List.filter Fun.id changed))
          (Summary_store.stats store).Summary_store.packs_written;
        Alcotest.(check bool) "some pack rewritten" true (List.mem true changed);
        Alcotest.(check bool) "some pack untouched" true (List.mem false changed));
    t "cold populates at -j 1 and -j 4 write byte-identical packs" `Quick
      (fun () ->
        let files =
          Gen.generate_files ~seed:31 ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
          |> List.map (fun (file, g) -> (file, g.Gen.source))
        in
        let sg = sg_of_files files in
        let d1 = temp_dir () and d4 = temp_dir () in
        let _ = Engine.run ~jobs:1 ~cache:(store_over d1) sg (free ()) in
        let _ = Engine.run ~jobs:4 ~cache:(store_over d4) sg (free ()) in
        List.iter
          (fun kind ->
            let p1 = packs d1 kind and p4 = packs d4 kind in
            Alcotest.(check (list string))
              (kind ^ ": same pack names") (List.map Filename.basename p1)
              (List.map Filename.basename p4);
            List.iter2
              (fun a b ->
                Alcotest.(check bool)
                  (Filename.basename a ^ " byte-identical") true
                  (String.equal (read_bytes a) (read_bytes b)))
              p1 p4)
          [ "sum"; "root" ]);
    t "sumstore-3 per-entry files are never read" `Quick (fun () ->
        (* a store directory as the per-entry format left it: one .bin file
           per entry, at the paths the old format derived from its own
           extension key. The root entry claims no reports, so misreading
           it would drop caller's report. *)
        let dir = temp_dir () in
        write_bytes (Filename.concat dir "VERSION") "sumstore-3\n";
        let old_ext =
          Fingerprint.combine
            [
              Fingerprint.of_string ~salt:"sumstore-3"
                (Engine.options_digest Engine.default_options);
              Fingerprint.of_string "free";
            ]
        in
        let old_entry kind name magic fields =
          let d = Filename.concat dir kind in
          if not (Sys.file_exists d) then Sys.mkdir d 0o755;
          let b = Wire.writer ~magic () in
          Wire.string b name;
          Wire.string b (Fingerprint.of_string "old-key");
          fields b;
          write_bytes
            (Filename.concat d
               (Fingerprint.combine [ old_ext; Fingerprint.of_string name ] ^ ".bin"))
            (Wire.contents b)
        in
        List.iter
          (fun f ->
            old_entry "sum" f "XGFN1\n" (fun b ->
                Wire.string b (Fingerprint.of_string "old-content");
                Wire.list b Wire.string [];
                Wire.int b 0))
          [ "leaf"; "caller"; "unrelated" ];
        List.iter
          (fun r ->
            old_entry "root" r "XGRT1\n" (fun b ->
                for _ = 1 to 5 do
                  Wire.list b Wire.int []
                done))
          [ "caller"; "unrelated" ];
        let sg = sg_of_files [ ("o.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let store = store_over dir in
        let run = Engine.run ~cache:store sg (free ()) in
        let st = Summary_store.stats store in
        Alcotest.(check int) "no summary read" 0
          (st.Summary_store.fn_hits + st.Summary_store.fn_stale);
        Alcotest.(check int) "no root replayed" 0 st.Summary_store.roots_replayed;
        Alcotest.(check int) "no pack read" 0 st.Summary_store.packs_read;
        Alcotest.(check (list string))
          "reports = uncached" (report_lines uncached) (report_lines run);
        let d = Summary_store.disk_stats ~dir in
        Alcotest.(check int) "old summary files left alone" 3
          d.Summary_store.d_sum.Summary_store.dk_legacy;
        Alcotest.(check int) "old root files left alone" 2
          d.Summary_store.d_root.Summary_store.dk_legacy;
        Alcotest.(check (option string))
          "VERSION restamped" (Some Summary_store.store_version)
          d.Summary_store.d_version);
    t "cache stats counts packs, stray temp files and legacy files apart"
      `Quick (fun () ->
        let dir = temp_dir () in
        let _ = Engine.run ~cache:(store_over dir) (sg_of_files [ ("s.c", leaf_v1) ]) (free ()) in
        (* a writer killed between creating its temp file and renaming it,
           and a leftover per-entry file of the previous format *)
        write_bytes (Filename.concat dir "sum/xgcc1a2b3c.tmp") "XGSP1\ntorn";
        write_bytes (Filename.concat dir "sum/0123abcd.bin") "XGFN1\nold";
        let d = Summary_store.disk_stats ~dir in
        let sum = d.Summary_store.d_sum and root = d.Summary_store.d_root in
        Alcotest.(check int) "one summary pack" 1 sum.Summary_store.dk_files;
        Alcotest.(check int) "its three entries" 3 sum.Summary_store.dk_entries;
        Alcotest.(check int) "one stray temp file" 1 sum.Summary_store.dk_tmp;
        Alcotest.(check int) "one legacy file" 1 sum.Summary_store.dk_legacy;
        Alcotest.(check int) "pack bytes only" (String.length (read_bytes (the_pack dir "sum")))
          sum.Summary_store.dk_bytes;
        Alcotest.(check (list int)) "root: one pack, two entries, no strays" [ 1; 2; 0; 0 ]
          Summary_store.[ root.dk_files; root.dk_entries; root.dk_tmp; root.dk_legacy ];
        match Summary_store.dump_pack (the_pack dir "sum") with
        | Ok (Summary_store.Fn_entries es) ->
            Alcotest.(check int) "dump decodes every entry" 3 (List.length es)
        | Ok (Root_entries _) -> Alcotest.fail "summary pack dumped as root entries"
        | Error e -> Alcotest.fail e);
    t "binary summary round-trip is lossless" `Quick (fun () ->
        let src =
          "int use(int *p, int c) { if (c) { kfree(p); } return *p; }\n\
           int top(int *p, int c) { use(p, c); return 0; }"
        in
        let sg = sg_of_files [ ("sb.c", src) ] in
        let _, per_ext = Engine.run_with_summaries sg (free ()) in
        let checked = ref 0 in
        List.iter
          (fun (_, tbl) ->
            Hashtbl.iter
              (fun _ (bs, sfx) ->
                Array.iter
                  (fun s ->
                    incr checked;
                    let bin s =
                      let b = Wire.writer () in
                      Summary.to_bin b s;
                      Wire.contents b
                    in
                    let bytes = bin s in
                    let s' = Summary.of_bin (Wire.reader bytes) in
                    (* byte-stable round-trip: decoded tables reserialise
                       identically, which is what makes content hashes
                       agree between disk-loaded and fresh summaries *)
                    Alcotest.(check string)
                      "to_bin . of_bin . to_bin = to_bin" bytes (bin s'))
                  (Array.append bs sfx))
              tbl)
          per_ext;
        Alcotest.(check bool) "exercised some summaries" true (!checked > 0));
    t "old store version is orphaned cleanly" `Quick (fun () ->
        let dir = temp_dir () in
        let sg = sg_of_files [ ("ov.c", leaf_v1) ] in
        let uncached = Engine.run sg (free ()) in
        let _ = Engine.run ~cache:(store_over dir) sg (free ()) in
        (* forge an older store: stamp the VERSION back. The version is
           salted into every extension key, so the existing entries become
           unreachable — a run against the "upgraded" store recomputes
           from cold without ever decoding them, and restamps VERSION *)
        let oc = open_out (Filename.concat dir "VERSION") in
        output_string oc "sumstore-0\n";
        close_out oc;
        let old_keys =
          Summary_store.ext_keys_of
            ~options_digest:(Engine.options_digest Engine.default_options)
            ~sources:[ "free" ]
        in
        let forged =
          Summary_store.create ~dir
            ~ext_keys:(List.map (fun k -> Fingerprint.combine [ k; "old" ]) old_keys)
            ()
        in
        let forged_run = Engine.run ~cache:forged sg (free ()) in
        Alcotest.(check int)
          "nothing replays from the orphaned generation" 0
          (Summary_store.stats forged).Summary_store.roots_replayed;
        Alcotest.(check (list string))
          "reports unaffected" (report_lines uncached) (report_lines forged_run);
        (* creating the store restamped the directory *)
        let ic = open_in (Filename.concat dir "VERSION") in
        let v = input_line ic in
        close_in ic;
        Alcotest.(check string)
          "VERSION restamped" Summary_store.store_version v);
    t "corrupt AST cache objects degrade to misses" `Quick (fun () ->
        let cache_dir = temp_dir () in
        let src = "int f(int *p) { kfree(p); return *p; }" in
        let tu = Cparse.parse_tunit ~file:"cc.c" src in
        let fp = Cast_io.ast_fingerprint ~file:"cc.c" ~source:src in
        Cast_io.write_cached ~cache_dir fp tu;
        (* an s-expression object as older builds wrote: no magic *)
        let astdir = Filename.concat cache_dir "ast" in
        Array.iter
          (fun f ->
            let oc = open_out (Filename.concat astdir f) in
            output_string oc "(tunit cc.c (enumdef E (k zz)))\n";
            close_out oc)
          (Sys.readdir astdir);
        Alcotest.(check bool)
          "corrupt object reads as a miss" true
          (Cast_io.read_cached ~cache_dir fp = None));
    t "positional twins replay byte-identically" `Quick (fun () ->
        (* two translation units claiming the same file name (a header
           parsed into two units), with textually identical expressions at
           identical positions inside different functions: the persisted
           annotation delta must resolve back to exactly the node the
           worker annotated, not to every node sharing its position *)
        let files =
          [
            ("twin.h", "int a(int *p) { if (p) { kfree(p); } return 0; }\n");
            ("twin.h", "int b(int *p) { if (p) { kfree(p); } return 0; }\n");
          ]
        in
        let exts () = [ Free_checker.checker (); Leak_checker.checker () ] in
        let store2 dir =
          Summary_store.create ~dir
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free"; "leak" ])
            ()
        in
        let sg = sg_of_files files in
        let uncached = Engine.run sg (exts ()) in
        let dir = temp_dir () in
        let _ = Engine.run ~cache:(store2 dir) sg (exts ()) in
        let warm_store = store2 dir in
        let warm = Engine.run ~cache:warm_store sg (exts ()) in
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        Alcotest.(check int)
          "warm run replays every root" 0
          (Summary_store.stats warm_store).Summary_store.roots_recomputed);
    t "sleeping instances do not crowd out a real bug" `Quick (fun () ->
        (* [g] frees a static of b.c, so back in [f] (a.c) that instance
           sleeps. A block entry must keep exactly one copy of it: when
           each entry doubled the sleeping instances, [f]'s list reached
           the 64-instance cap before [kmalloc], and the double free went
           unreported at every -j and cache state. *)
        let files =
          [
            ( "a.c",
              "void g(void); void h(void) { }\n\
               int f(int a0, int a1, int a2) { int *p; int y = 0; g(); h();\n\
               if (a0) y = 0; if (a1) y = 1; if (a2) y = 2;\n\
               p = kmalloc(4); kfree(p); kfree(p); return y; }\n" );
            ("b.c", "static int *gp; void g(void) { kfree(gp); }\n");
          ]
        in
        let sg = sg_of_files files in
        let double_frees (r : Engine.result) =
          List.length
            (List.filter
               (fun (rep : Report.t) ->
                 String.equal rep.Report.message "double free of p!")
               r.Engine.reports)
        in
        List.iter
          (fun jobs ->
            Alcotest.(check int)
              (Printf.sprintf "uncached -j%d" jobs)
              1
              (double_frees (Engine.run ~jobs sg (free ())));
            let dir = temp_dir () in
            List.iter
              (fun run ->
                Alcotest.(check int)
                  (Printf.sprintf "%s -j%d" run jobs)
                  1
                  (double_frees
                     (Engine.run ~jobs ~cache:(store_over dir) sg (free ()))))
              [ "cold"; "warm" ])
          [ 1; 2 ]);
  ]
