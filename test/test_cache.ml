(* The persistent incremental cache: fingerprints, the pass-1 AST object
   cache (including emit-target disambiguation), summary serialisation,
   and the engine's cached mode — warm runs must be byte-identical to
   cold runs at any job count, and a leaf edit must invalidate exactly
   the leaf and its transitive callers. *)

let t = Alcotest.test_case

let temp_dir () = Temp.dir "xgcc_test_cache"

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

(* A pack is a 6-byte magic, then segments of [4-byte payload length |
   16-byte digest | payload]; byte 10 is the first segment's first digest
   byte. Each of these breaks the magic or the first segment of a
   one-segment pack, and must turn every entry of the pack into a miss. *)
let flip i d = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x01) else c) d

let manglings =
  [
    ("truncated", fun d -> String.sub d 0 (String.length d / 2));
    ("payload byte flipped", fun d -> flip (String.length d - 1) d);
    ("digest byte flipped", flip 10);
    ("bad magic", fun d -> "XGXX1\n" ^ String.sub d 6 (String.length d - 6));
    ("sexp garbage", fun _ -> "(fn f c () ())\n");
  ]

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


(* [leaf_v1]'s program, with three more unrelated roots, the leaf's dead
   constant set to [e], and the leaf freeing its argument or not:
   toggling [frees] is a summary edit, changing [e] a neutral one. Both
   keep every location after the leaf's own line in place, and each
   changes a minority of the entries. *)
let leaf_text ~e ~frees =
  Printf.sprintf
    "static void leaf(int *p) { int e = %d; (void)e; %s }\n\
     int caller(int n) { int *x = kmalloc(n); leaf(x); return *x; }\n\
     int unrelated(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n\
     int other1(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n\
     int other2(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n\
     int other3(int n) { int *y = kmalloc(n); kfree(y); return *y; }\n"
    e (if frees then "kfree(p);" else "(void)p;")

(* The end offsets of a pack's valid segments, read by the framing the
   store writes: after the 6-byte magic, segments of [4-byte big-endian
   payload length | MD5 of the payload | payload]. *)
let segment_ends bytes =
  let size = String.length bytes in
  let rec go pos acc =
    if size - pos < 20 then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_be bytes pos) land 0xffff_ffff in
      if
        len > size - pos - 20
        || not
             (String.equal (String.sub bytes (pos + 4) 16) (Digest.substring bytes (pos + 20) len))
      then List.rev acc
      else go (pos + 20 + len) ((pos + 20 + len) :: acc)
  in
  go 6 []

(* Is every byte of the pack part of a valid segment? *)
let whole bytes =
  match List.rev (segment_ends bytes) with [] -> false | last :: _ -> last = String.length bytes

(* Populate a one-checker store over [v1], edit to [v2] (so the packs
   hold a second segment), then break one pack ([sum] or [root]) in one
   of four ways. A run over the broken store raises nothing and reports
   what an uncached run does, and a pack it writes is whole again; the
   run after it probes no stale or absent function and recomputes no
   root. *)
let framing_fault (sum, how, r1, r2) =
  let v1 = leaf_text ~e:1 ~frees:true and v2 = leaf_text ~e:1 ~frees:false in
  let sg = sg_of_files [ ("ff.c", v2) ] in
  let uncached = report_lines (Engine.run sg (free ())) in
  let dir = temp_dir () in
  ignore (Engine.run ~cache:(store_over dir) (sg_of_files [ ("ff.c", v1) ]) (free ()));
  ignore (Engine.run ~cache:(store_over dir) sg (free ()));
  let pack = the_pack dir (if sum then "sum" else "root") in
  let intact = read_bytes pack in
  let size = String.length intact in
  let last_start =
    match List.rev (segment_ends intact) with
    | _ :: prev :: _ -> prev
    | _ -> QCheck2.Test.fail_reportf "the edit appended no segment"
  in
  (* odd [r1]: a byte of the last segment; even: a byte of the file *)
  let at =
    let from = if r1 mod 2 = 1 then last_start else 0 in
    from + (r1 / 2 * (size - from) / 10_000)
  in
  let mangled, what =
    match how with
    | 0 -> (String.sub intact 0 at, Printf.sprintf "truncated at %d of %d" at size)
    | 1 ->
        let flip j c = if j = at then Char.chr (Char.code c lxor (1 + (r2 mod 255))) else c in
        (String.mapi flip intact, Printf.sprintf "byte %d of %d flipped" at size)
    | 2 ->
        let st = Random.State.make [| r1 |] in
        let n = 1 + (r2 mod 64) in
        ( intact ^ String.init n (fun _ -> Char.chr (Random.State.int st 256)),
          Printf.sprintf "%d random bytes appended" n )
    | _ ->
        ( intact ^ String.sub intact last_start (size - last_start),
          "last segment appended again" )
  in
  write_bytes pack mangled;
  let observe label =
    let store = store_over dir in
    match Engine.run ~cache:store sg (free ()) with
    | exception e ->
        QCheck2.Test.fail_reportf "%s, %s run raised %s" what label (Printexc.to_string e)
    | r ->
        if report_lines r <> uncached then
          QCheck2.Test.fail_reportf "%s, %s run: reports differ from an uncached run" what label;
        Summary_store.stats store
  in
  ignore (observe "broken-store");
  let after = read_bytes pack in
  if (not (String.equal after mangled)) && not (whole after) then
    QCheck2.Test.fail_reportf "%s: the pack was written but is not whole" what;
  let st = observe "next" in
  if st.Summary_store.fn_stale + st.Summary_store.fn_absent + st.Summary_store.roots_recomputed <> 0
  then
    QCheck2.Test.fail_reportf "%s: next run: %d stale, %d absent, %d roots recomputed" what
      st.Summary_store.fn_stale st.Summary_store.fn_absent st.Summary_store.roots_recomputed;
  true

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
        let key d = Summary_store.key_of_digest (Fingerprint.of_string d) in
        Summary_store.store_root store ~ext ~key:(key "key") entry;
        (match Summary_store.load_root store ~ext ~root:"caller" ~key:(key "key") with
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
          (Summary_store.load_root store ~ext ~root:"caller" ~key:(key "other") = None);
        (* written to its pack and read back through a fresh handle *)
        Summary_store.flush store;
        match
          Summary_store.load_root (store_over dir) ~ext ~root:"caller" ~key:(key "key")
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
        let key = Summary_store.key_of_digest (Fingerprint.of_string "k") in
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
        (* a write appends to a pack, truncates it or renames a new file
           into place: each changes its length or its bytes *)
        let snapshot () =
          List.map
            (fun p ->
              match Summary_store.dump_pack p with
              | Ok d -> (p, (read_bytes p, Format.asprintf "%a" Summary_store.pp_dump d))
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
          (fun (p, (bytes, _)) (_, (bytes', _)) ->
            Alcotest.(check bool) (p ^ ": length and bytes unchanged") true
              (String.equal bytes bytes'))
          before (snapshot ());
        (* summary-changing: a pack is written exactly when its entries
           changed *)
        let store = store2 dir in
        let _ = Engine.run ~cache:store (sg_of_files [ ("p.c", v2) ]) (exts ()) in
        let after = snapshot () in
        let changed =
          List.map2
            (fun (p, (bytes, entries)) (_, (bytes', entries')) ->
              let written =
                String.length bytes <> String.length bytes' || not (String.equal bytes bytes')
              in
              Alcotest.(check bool)
                (p ^ ": written iff its entries changed")
                (entries <> entries') written;
              written)
            before after
        in
        Alcotest.(check int) "packs written = packs changed"
          (List.length (List.filter Fun.id changed))
          (Summary_store.stats store).Summary_store.packs_written;
        Alcotest.(check bool) "some pack written" true (List.mem true changed);
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
    t "cache keys: each input counts, and no byte shifts between fields"
      `Quick (fun () ->
        let h = Fingerprint.of_string in
        let body = h "body" and decls = h "decls" and misc = h "misc" in
        (* f's closure is f, g and h; g and f have annotation groups *)
        let groups = [ ("f", h "gf"); ("g", h "gg") ] in
        let callees = [ ("g", h "cg"); ("h", h "ch") ] in
        let store = Summary_store.create ~dir:(temp_dir ()) ~persist:false ~ext_keys:[] () in
        let cache_key ~prefix ~misc ~groups ~contents =
          Summary_store.digest store (Summary_store.key ~prefix ~misc ~groups ~contents)
        in
        let key ?(prefix = body ^ decls) ?(misc = misc) ?(groups = groups)
            ?(contents = callees) () =
          cache_key ~prefix ~misc ~groups ~contents
        in
        let fn_key = key () in
        Alcotest.(check string) "equal inputs, equal keys" fn_key (key ());
        let differs what k =
          Alcotest.(check bool) (what ^ " changes the key") false (String.equal fn_key k)
        in
        differs "the body prefix" (key ~prefix:(h "body2" ^ decls) ());
        differs "the declarations hash" (key ~prefix:(body ^ h "decls2") ());
        differs "the misc hash" (key ~misc:(h "misc2") ());
        differs "one member's group hash" (key ~groups:[ ("f", h "gf"); ("g", h "gg2") ] ());
        differs "one callee's content hash"
          (key ~contents:[ ("g", h "cg"); ("h", h "ch2") ] ());
        differs "a member's name"
          (key ~groups:[ ("f", h "gf"); ("k", h "gg") ]
             ~contents:[ ("k", h "cg"); ("h", h "ch") ] ());
        differs "the root key over the same closure"
          (key ~prefix:decls ~contents:(("f", h "cf") :: callees) ());
        (* the same bytes split at another place: move one byte across
           each boundary between adjacent fields, both ways *)
        let fields =
          [ body ^ decls; misc ]
          @ List.concat_map (fun (n, v) -> [ n; v ]) (groups @ callees)
        in
        let of_fields ?(n_groups = 2) = function
          | prefix :: misc :: rest ->
              let rec pairs = function a :: b :: r -> (a, b) :: pairs r | _ -> [] in
              let ps = pairs rest in
              cache_key ~prefix ~misc
                ~groups:(List.filteri (fun i _ -> i < n_groups) ps)
                ~contents:(List.filteri (fun i _ -> i >= n_groups) ps)
          | _ -> assert false
        in
        Alcotest.(check string) "the fields rebuild the key" fn_key (of_fields fields);
        differs "a pair moved from the groups to the contents"
          (of_fields ~n_groups:1 fields);
        differs "a pair moved from the contents to the groups"
          (of_fields ~n_groups:3 fields);
        let n = List.length fields in
        for i = 0 to n - 2 do
          let a = List.nth fields i and b = List.nth fields (i + 1) in
          let with_pair a' b' =
            List.mapi (fun j f -> if j = i then a' else if j = i + 1 then b' else f) fields
          in
          let la = String.length a and lb = String.length b in
          differs
            (Printf.sprintf "a byte moved from field %d into field %d" i (i + 1))
            (of_fields
               (with_pair (String.sub a 0 (la - 1)) (String.sub a (la - 1) 1 ^ b)));
          differs
            (Printf.sprintf "a byte moved from field %d into field %d" (i + 1) i)
            (of_fields
               (with_pair (a ^ String.sub b 0 1) (String.sub b 1 (lb - 1))))
        done);
    t "call-structure edits under --cache-dir match an uncached run" `Quick
      (fun () ->
        (* top -> mid -> leaf and alt -> leaf, with side a root of its own.
           The edits move call edges: a direct top -> leaf call that was
           already in top's closure through mid, its removal, then a call
           from top to side, outside top's closure until then *)
        let text extra =
          Printf.sprintf
            "static void leaf(int *p) { kfree(p); }\n\
             static void mid(int *p) { leaf(p); }\n\
             int side(int *p) { return *p; }\n\
             int top(int n) { int *x = kmalloc(n); mid(x);%s return *x; }\n\
             int alt(int n) { int *y = kmalloc(n); leaf(y); return *y; }\n"
            extra
        in
        (* summaries hit / stale / absent, roots replayed / recomputed,
           cutoff fns recomputed / summaries unchanged / roots salvaged,
           packs read / written: the counts the nested-digest keys gave,
           so one digest per key decides every hit, stale and salvage
           alike *)
        let counters (st : Summary_store.stats) =
          Summary_store.
            [
              st.fn_hits; st.fn_stale; st.fn_absent; st.roots_replayed;
              st.roots_recomputed; st.fns_recomputed; st.sums_unchanged;
              st.roots_salvaged; st.packs_read; st.packs_written;
            ]
        in
        let edits =
          [
            (" leaf(x);", [ 4; 1; 0; 2; 1; 1; 0; 0; 2; 2 ]);
            ("", [ 4; 1; 0; 2; 1; 1; 0; 0; 2; 2 ]);
            (" side(x);", [ 4; 1; 0; 1; 1; 1; 0; 0; 2; 2 ]);
          ]
        in
        List.iter
          (fun jobs ->
            let dir = temp_dir () in
            let _ =
              Engine.run ~jobs ~cache:(store_over dir)
                (sg_of_files [ ("cs.c", text "") ])
                (free ())
            in
            List.iter
              (fun (extra, expected) ->
                let sg = sg_of_files [ ("cs.c", text extra) ] in
                let store = store_over dir in
                let warm = Engine.run ~jobs ~cache:store sg (free ()) in
                let what = Printf.sprintf "edit %S -j%d" extra jobs in
                Alcotest.(check (list string))
                  (what ^ ": reports = uncached -j1")
                  (report_lines (Engine.run ~jobs:1 sg (free ())))
                  (report_lines warm);
                Alcotest.(check (list int))
                  (what ^ ": store counters")
                  expected
                  (counters (Summary_store.stats store)))
              edits)
          [ 1; 2 ]);
    t "an edit appends a segment and its revert truncates back" `Quick (fun () ->
        let v1 = leaf_text ~e:1 ~frees:true and v2 = leaf_text ~e:1 ~frees:false in
        let dir = temp_dir () in
        let run text =
          let store = store_over dir in
          ignore (Engine.run ~cache:store (sg_of_files [ ("ar.c", text) ]) (free ()));
          (Summary_store.stats store).Summary_store.packs_written
        in
        ignore (run v1);
        let populated = List.map read_bytes [ the_pack dir "sum"; the_pack dir "root" ] in
        Alcotest.(check int) "the summary edit writes both packs" 2 (run v2);
        List.iter2
          (fun kind before ->
            let after = read_bytes (the_pack dir kind) in
            Alcotest.(check bool) (kind ^ ": the populate is a prefix") true
              (String.starts_with ~prefix:before after);
            Alcotest.(check int) (kind ^ ": two segments") 2 (List.length (segment_ends after));
            Alcotest.(check bool) (kind ^ ": whole") true (whole after))
          [ "sum"; "root" ] populated;
        Alcotest.(check int) "the revert writes both packs" 2 (run v1);
        List.iter2
          (fun kind before ->
            Alcotest.(check bool) (kind ^ ": truncated to the populate") true
              (String.equal before (read_bytes (the_pack dir kind))))
          [ "sum"; "root" ] populated);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |])
      (QCheck2.Test.make ~name:"a broken pack costs recomputes, never a wrong report" ~count:40
         ~print:(fun (sum, how, r1, r2) ->
           Printf.sprintf "%s pack, mangling %d, %d, %d" (if sum then "sum" else "root") how r1 r2)
         QCheck2.Gen.(quad bool (int_bound 3) (int_bound 19_999) nat)
         framing_fault);
    t "two stores that read one pack, then each write an edit" `Quick (fun () ->
        let v1 = leaf_text ~e:1 ~frees:true in
        let edits = [ leaf_text ~e:1 ~frees:false; leaf_text ~e:2 ~frees:true ] in
        let dir = temp_dir () in
        ignore (Engine.run ~cache:(store_over dir) (sg_of_files [ ("tw.c", v1) ]) (free ()));
        (* both stores read every pack before either writes *)
        let stores =
          List.map
            (fun _ ->
              let store = store_over dir in
              let ext = Summary_store.ext_key store 0 in
              let key = Summary_store.key_of_digest "" in
              ignore (Summary_store.probe_fn store ~ext ~fname:"leaf" ~key);
              ignore (Summary_store.load_root store ~ext ~root:"caller" ~key);
              store)
            edits
        in
        List.iter2
          (fun store text ->
            let sg = sg_of_files [ ("tw.c", text) ] in
            Alcotest.(check (list string))
              "the writer = uncached"
              (report_lines (Engine.run sg (free ())))
              (report_lines (Engine.run ~cache:store sg (free ()))))
          stores edits;
        (* the first writer appended to both packs; the second, whose
           neutral edit changes one summary entry and no root, found the
           summary pack longer than it read and rewrote it *)
        Alcotest.(check (list int))
          "segments of the sum and root packs" [ 1; 2 ]
          (List.map
             (fun kind -> List.length (segment_ends (read_bytes (the_pack dir kind))))
             [ "sum"; "root" ]);
        List.iter
          (fun text ->
            let sg = sg_of_files [ ("tw.c", text) ] in
            let store = store_over dir in
            Alcotest.(check (list string))
              "a third run = uncached"
              (report_lines (Engine.run sg (free ())))
              (report_lines (Engine.run ~cache:store sg (free ()))))
          (v1 :: edits);
        List.iter
          (fun kind ->
            Alcotest.(check bool) (kind ^ ": whole") true (whole (read_bytes (the_pack dir kind))))
          [ "sum"; "root" ]);
    t "alternating edits compact a pack to a fresh populate" `Quick (fun () ->
        let dir = temp_dir () in
        let run dir text =
          ignore (Engine.run ~cache:(store_over dir) (sg_of_files [ ("cp.c", text) ]) (free ()))
        in
        run dir (leaf_text ~e:1 ~frees:true);
        (* odd steps toggle what the leaf frees, even steps its dead
           constant, which never returns to the populate's *)
        let compacted = Hashtbl.create 2 in
        let rec step k ~e ~frees segs =
          if Hashtbl.length compacted < 2 then begin
            if k > 20 then Alcotest.fail "no pack compacted in 20 edits";
            let e, frees = if k mod 2 = 1 then (e, not frees) else ((e mod 8) + 2, frees) in
            let text = leaf_text ~e ~frees in
            run dir text;
            let d = Summary_store.disk_stats ~dir in
            let segs' =
              List.map
                (fun (kind, (dk : Summary_store.disk_kind)) ->
                  let live = dk.dk_bytes - dk.dk_superseded in
                  if dk.dk_bytes > 2 * live then
                    Alcotest.failf "%s after edit %d: %d bytes for %d live" kind k dk.dk_bytes live;
                  (kind, dk.dk_segments))
                [ ("sum", d.d_sum); ("root", d.d_root) ]
            in
            List.iter2
              (fun (kind, before) (_, now) ->
                if before > 1 && now = 1 then begin
                  Hashtbl.replace compacted kind ();
                  let fresh = temp_dir () in
                  run fresh text;
                  Alcotest.(check bool)
                    (Printf.sprintf "%s compacted at edit %d = a fresh populate" kind k)
                    true
                    (String.equal
                       (read_bytes (the_pack fresh kind))
                       (read_bytes (the_pack dir kind)))
                end)
              segs segs';
            step (k + 1) ~e ~frees segs'
          end
        in
        step 1 ~e:1 ~frees:true [ ("sum", 1); ("root", 1) ]);
  ]
