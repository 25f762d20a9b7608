(* The analysis daemon: protocol decode, edit-storm coalescing,
   byte-identity of warm diagnostics against a cold batch run, restart
   recovery from the persisted store (including a store a crash left
   torn), concurrent batch runs against the same cache dir, and the
   stale-snapshot / per-request Diag plumbing the daemon relies on. *)

let t = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_dir () = Temp.dir "xgcc_serve_test"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let a_src =
  "int use_after(int *p) { kfree(p); return *p; }\n\
   int fine(int *p) { kfree(p); return 0; }\n"

let b_src = "int other(int *q) { kfree(q); q = 0; return 0; }\n"

(* an edit that changes summaries and adds a report *)
let a_src_buggy = a_src ^ "int extra(int *r) { kfree(r); return *r; }\n"

(* an edit that changes bytes but no token *)
let a_src_comment = a_src ^ "/* reviewed */\n"

let mk_corpus () =
  let dir = fresh_dir () in
  let a = Filename.concat dir "a.c" and b = Filename.concat dir "b.c" in
  write_file a a_src;
  write_file b b_src;
  (dir, a, b)

let parse ~path ~source =
  match Cparse.parse_tunit ~file:path source with
  | tu -> Ok tu
  | exception Clex.Lex_error (loc, msg) ->
      Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)

let sources = [ "free" ]
let options = Engine.default_options

let mk_store ~dir ~persist =
  let ext_keys =
    Summary_store.ext_keys_of
      ~options_digest:(Engine.options_digest options)
      ~sources
  in
  Summary_store.create ~dir ~persist ~memory:true ~ext_keys ()

let mk_server ?store files =
  let cfg =
    {
      Server.c_files = files;
      c_parse = parse;
      c_exts = [ Free_checker.checker () ];
      c_options = options;
      c_jobs = 1;
      c_store = store;
      c_rank = "generic";
    }
  in
  match Server.create cfg with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

(* What a cold `xgcc check --format json` of the current on-disk tree
   prints — the byte-identity oracle. *)
let cold_check files =
  let tus =
    List.map (fun p -> Cparse.parse_tunit ~file:p (read_file p)) files
  in
  let sg = Supergraph.build tus in
  let result = Engine.run ~options sg [ Free_checker.checker () ] in
  Json_out.reports_to_string (Rank.generic_sort result.Engine.reports)

(* ------------------------------------------------------------------ *)
(* Reply plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let field reply k =
  match reply with
  | Json_out.Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "reply lacks field %S" k))
  | _ -> Alcotest.fail "reply is not an object"

let sfield reply k =
  match field reply k with
  | Json_out.Str s -> s
  | _ -> Alcotest.fail (Printf.sprintf "field %S is not a string" k)

let ifield reply k =
  match field reply k with
  | Json_out.Int i -> i
  | _ -> Alcotest.fail (Printf.sprintf "field %S is not an int" k)

let bfield reply k =
  match field reply k with
  | Json_out.Bool b -> b
  | _ -> Alcotest.fail (Printf.sprintf "field %S is not a bool" k)

let req server ~more_pending r =
  let reply, _quit = Server.handle_request server ~more_pending r in
  reply

let did_change ~path ~text = Proto.Did_change { path; text = Some text }

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let json_roundtrip () =
  let samples =
    [
      Json_out.Null;
      Json_out.Bool true;
      Json_out.Int (-42);
      Json_out.Str "line1\nline2\ttab \"quoted\" back\\slash";
      Json_out.Arr [ Json_out.Int 1; Json_out.Str "x"; Json_out.Null ];
      Json_out.Obj
        [ ("a", Json_out.Arr []); ("b", Json_out.Obj [ ("c", Json_out.Bool false) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json_out.to_string v in
      Alcotest.(check string)
        ("roundtrip " ^ s) s
        (Json_out.to_string (Json_out.of_string s)))
    samples;
  (* whitespace and \u escapes *)
  (match Json_out.of_string " { \"k\" : [ 1 , 2.5 , \"\\u0041\" ] } " with
  | Json_out.Obj [ ("k", Json_out.Arr [ Json_out.Int 1; Json_out.Float f; Json_out.Str "A" ]) ]
    when Float.equal f 2.5 ->
      ()
  | _ -> Alcotest.fail "structured parse mismatch");
  List.iter
    (fun bad ->
      match Json_out.of_string bad with
      | exception Json_out.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad))
    [ ""; "{"; "[1,]"; "\"unterminated"; "{}x"; "{\"a\" 1}"; "nul" ]

let request_decode () =
  (match Proto.request_of_line "{\"cmd\":\"check\"}" with
  | Ok Proto.Check -> ()
  | _ -> Alcotest.fail "check");
  (match Proto.request_of_line "{\"cmd\":\"didChange\",\"path\":\"x.c\",\"text\":\"int f;\"}" with
  | Ok (Proto.Did_change { path = "x.c"; text = Some "int f;" }) -> ()
  | _ -> Alcotest.fail "didChange with text");
  (match Proto.request_of_line "{\"cmd\":\"didChange\",\"path\":\"x.c\"}" with
  | Ok (Proto.Did_change { path = "x.c"; text = None }) -> ()
  | _ -> Alcotest.fail "didChange without text");
  List.iter
    (fun line ->
      match Proto.request_of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" line))
    [
      "not json"; "[1]"; "{\"cmd\":\"didChange\"}"; "{\"cmd\":\"nope\"}";
      "{\"path\":\"x.c\"}";
    ]

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let coalescing () =
  let _dir, a, b = mk_corpus () in
  let server = mk_server [ a; b ] in
  let r1 = req server ~more_pending:false Proto.Check in
  Alcotest.(check bool) "first check rechecks" true (bfield r1 "rechecked");
  (* edit storm: three rapid didChange lines, only the last drains *)
  let r2 = req server ~more_pending:true (did_change ~path:a ~text:a_src_buggy) in
  Alcotest.(check string) "queued" "queued" (sfield r2 "event");
  let r3 = req server ~more_pending:true (did_change ~path:a ~text:a_src) in
  Alcotest.(check string) "queued again" "queued" (sfield r3 "event");
  let r4 = req server ~more_pending:false (did_change ~path:a ~text:a_src_buggy) in
  Alcotest.(check string) "storm drains to diagnostics" "diagnostics" (sfield r4 "event");
  Alcotest.(check bool) "drain rechecks" true (bfield r4 "rechecked");
  let st = req server ~more_pending:false Proto.Stats in
  Alcotest.(check int) "edits seen" 3 (ifield st "edits");
  Alcotest.(check int) "two coalesced" 2 (ifield st "coalesced");
  Alcotest.(check int) "exactly two rechecks" 2 (ifield st "rechecks");
  (* an unchanged tree serves the cached result without re-running *)
  let r5 = req server ~more_pending:false Proto.Check in
  Alcotest.(check bool) "clean check is cached" false (bfield r5 "rechecked");
  Alcotest.(check string) "cached diagnostics identical"
    (sfield r4 "diagnostics") (sfield r5 "diagnostics")

let byte_identity_summary_edit () =
  let _dir, a, b = mk_corpus () in
  let server = mk_server [ a; b ] in
  let r1 = req server ~more_pending:false Proto.Check in
  Alcotest.(check string) "cold tree matches batch" (cold_check [ a; b ])
    (sfield r1 "diagnostics");
  (* summary-changing edit through the daemon; same edit on disk for the
     batch oracle *)
  let r2 = req server ~more_pending:false (did_change ~path:a ~text:a_src_buggy) in
  write_file a a_src_buggy;
  Alcotest.(check string) "edited tree matches batch" (cold_check [ a; b ])
    (sfield r2 "diagnostics");
  Alcotest.(check bool) "more reports after the edit" true
    (ifield r2 "reports" > ifield r1 "reports")

let byte_identity_comment_edit () =
  let dir, a, b = mk_corpus () in
  let store = mk_store ~dir:(Filename.concat dir "cache") ~persist:false in
  let server = mk_server ~store [ a; b ] in
  let r1 = req server ~more_pending:false Proto.Check in
  let r2 = req server ~more_pending:false (did_change ~path:a ~text:a_src_comment) in
  Alcotest.(check string) "comment edit: identical diagnostics"
    (sfield r1 "diagnostics") (sfield r2 "diagnostics");
  write_file a a_src_comment;
  Alcotest.(check string) "comment edit matches batch" (cold_check [ a; b ])
    (sfield r2 "diagnostics");
  (* the early-cutoff machinery must have replayed everything *)
  Alcotest.(check int) "no roots recomputed" 0 (ifield r2 "roots_recomputed");
  Alcotest.(check int) "no summaries recomputed" 0 (ifield r2 "fns_recomputed");
  Alcotest.(check bool) "all roots replayed" true (ifield r2 "roots_replayed" > 0)

let restart_recovery () =
  let dir, a, b = mk_corpus () in
  let cache = Filename.concat dir "cache" in
  (* first daemon persists its results, then "dies" mid-session with an
     overlay edit that never reached disk *)
  let s1 = mk_server ~store:(mk_store ~dir:cache ~persist:true) [ a; b ] in
  let r1 = req s1 ~more_pending:false Proto.Check in
  let _queued = req s1 ~more_pending:true (did_change ~path:a ~text:a_src_buggy) in
  (* a crash mid-recheck can also leave a torn entry: emulate the torn
     write surviving a rename-free store by truncating one entry file *)
  let sum_dir = Filename.concat cache "sum" in
  (match Sys.readdir sum_dir with
  | [||] -> Alcotest.fail "no persisted summary entries"
  | entries -> write_file (Filename.concat sum_dir entries.(0)) "XGFN1\ntorn");
  (* restart: overlay is gone (it lived in the dead process), disk tree
     is authoritative, persisted store warms the new daemon *)
  let s2 = mk_server ~store:(mk_store ~dir:cache ~persist:true) [ a; b ] in
  let r2 = req s2 ~more_pending:false Proto.Check in
  Alcotest.(check string) "restart serves the on-disk tree"
    (sfield r1 "diagnostics") (sfield r2 "diagnostics");
  Alcotest.(check string) "restart matches batch" (cold_check [ a; b ])
    (sfield r2 "diagnostics");
  (* everything except the torn entry's root replays from the store *)
  Alcotest.(check bool) "store warms the restart" true
    (ifield r2 "roots_replayed" > 0)

let concurrent_batch_check () =
  let dir, a, b = mk_corpus () in
  let cache = Filename.concat dir "cache" in
  let server = mk_server ~store:(mk_store ~dir:cache ~persist:true) [ a; b ] in
  let r1 = req server ~more_pending:false Proto.Check in
  (* a batch `xgcc check --cache-dir` against the same store directory,
     while the daemon stays up *)
  let batch_run () =
    let ext_keys =
      Summary_store.ext_keys_of
        ~options_digest:(Engine.options_digest options)
        ~sources
    in
    let store = Summary_store.create ~dir:cache ~ext_keys () in
    let tus = List.map (fun p -> Cparse.parse_tunit ~file:p (read_file p)) [ a; b ] in
    let sg = Supergraph.build tus in
    let result = Engine.run ~options ~cache:store sg [ Free_checker.checker () ] in
    let st = Summary_store.stats store in
    (Json_out.reports_to_string (Rank.generic_sort result.Engine.reports),
     st.Summary_store.roots_recomputed)
  in
  let batch_diag, batch_recomputed = batch_run () in
  Alcotest.(check string) "batch replays the daemon's entries"
    (sfield r1 "diagnostics") batch_diag;
  Alcotest.(check int) "batch recomputes nothing" 0 batch_recomputed;
  (* daemon keeps working after the concurrent reader *)
  let r2 = req server ~more_pending:false (did_change ~path:a ~text:a_src_buggy) in
  write_file a a_src_buggy;
  Alcotest.(check string) "daemon still byte-identical after batch run"
    (cold_check [ a; b ]) (sfield r2 "diagnostics");
  (* and the batch run sees the daemon's persisted post-edit entries *)
  let batch_diag2, batch_recomputed2 = batch_run () in
  Alcotest.(check string) "batch sees the edit" (sfield r2 "diagnostics") batch_diag2;
  Alcotest.(check int) "edit already persisted for the batch run" 0 batch_recomputed2

let disk_edit_revalidated () =
  let _dir, a, b = mk_corpus () in
  let server = mk_server [ a; b ] in
  let _r1 = req server ~more_pending:false Proto.Check in
  (* edit lands on disk behind the daemon's back: the pre-run revalidate
     must pick it up without any didChange *)
  write_file a a_src_buggy;
  let r2 = req server ~more_pending:false Proto.Check in
  Alcotest.(check bool) "disk edit forces a recheck" true (bfield r2 "rechecked");
  Alcotest.(check string) "disk edit matches batch" (cold_check [ a; b ])
    (sfield r2 "diagnostics")

let midrun_drift_detection () =
  let _dir, a, b = mk_corpus () in
  (* Watch-level: a file rewritten after the snapshot is reported by
     drifted (read-only) and its roots are the ones to degrade *)
  let w = Watch.create [ a; b ] in
  Alcotest.(check (list string)) "no drift initially" [] (Watch.drifted w);
  write_file a a_src_buggy;
  Alcotest.(check (list string)) "rewritten file drifts" [ a ] (Watch.drifted w);
  let tus = List.map (fun p -> Cparse.parse_tunit ~file:p (read_file p)) [ a; b ] in
  let sg = Supergraph.build tus in
  let stale = Watch.stale_roots sg [ a ] in
  Alcotest.(check bool) "a.c's roots are stale" true (List.mem "use_after" stale);
  Alcotest.(check bool) "b.c's root is not" false (List.mem "other" stale);
  let changed, missing = Watch.revalidate w in
  Alcotest.(check (list string)) "revalidate reloads the change" [ a ] changed;
  Alcotest.(check (list string)) "nothing missing" [] missing;
  Alcotest.(check (list string)) "drift settles after revalidate" [] (Watch.drifted w)

let per_request_diag_sink () =
  let _dir, a, b = mk_corpus () in
  let server = mk_server [ a; b ] in
  (* route the global sink into a leak detector for the duration *)
  let leaked = ref [] in
  let saved = !Diag.sink in
  Diag.sink := (fun s -> leaked := s :: !leaked);
  Fun.protect
    ~finally:(fun () -> Diag.sink := saved)
    (fun () ->
      (* a lexically broken overlay (unterminated comment): the file is
         skipped wholesale with a warning that must land in this
         request's reply, not in the global sink *)
      let broken = "int broken(void) { return 0; } /* unterminated" in
      let r =
        req server ~more_pending:false (did_change ~path:a ~text:broken)
      in
      let warnings =
        match field r "warnings" with
        | Json_out.Arr ws ->
            List.map (function Json_out.Str s -> s | _ -> "") ws
        | _ -> Alcotest.fail "warnings not an array"
      in
      Alcotest.(check bool) "skip warning in the reply" true
        (List.exists
           (fun w ->
             let contains hay needle =
               let n = String.length hay and m = String.length needle in
               let rec go i =
                 i + m <= n
                 && (String.equal (String.sub hay i m) needle || go (i + 1))
               in
               go 0
             in
             contains w "skipping entire file")
           warnings);
      Alcotest.(check (list string)) "nothing leaked to the global sink" []
        !leaked;
      (* the skipped file contributes nothing; b.c still analysed *)
      Alcotest.(check string) "degraded tree still matches batch-style output"
        (cold_check [ b ])
        (sfield r "diagnostics"))

let unknown_path_rejected () =
  let _dir, a, b = mk_corpus () in
  let server = mk_server [ a; b ] in
  let r =
    req server ~more_pending:false
      (did_change ~path:"/nonexistent/c.c" ~text:"int f;")
  in
  Alcotest.(check bool) "rejected" false (bfield r "ok");
  (* server still healthy *)
  let r2 = req server ~more_pending:false Proto.Check in
  Alcotest.(check bool) "still serving" true (bfield r2 "ok")

let with_sink_restores () =
  let captured = ref [] in
  (match
     Diag.with_sink
       (fun s -> captured := s :: !captured)
       (fun () ->
         Diag.warnf "inside";
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "captured inside" 1 (List.length !captured);
  let after = ref [] in
  let saved = !Diag.sink in
  Diag.sink := (fun s -> after := s :: !after);
  Fun.protect
    ~finally:(fun () -> Diag.sink := saved)
    (fun () -> Diag.warnf "outside");
  Alcotest.(check int) "sink restored after exception" 1 (List.length !after)

(* Batch [check] and the daemon run one analysis pass: over a tree with
   an unlexable file, an unparseable definition and a root past its node
   budget, the batch pass and a server session give the same
   diagnostics and the same warning lines, in the same order. *)
let batch_daemon_parity () =
  let dir = fresh_dir () in
  let file name src =
    let p = Filename.concat dir name in
    write_file p src;
    p
  in
  let good = file "good.c" a_src in
  let unlexable =
    file "unlexable.c" "int lexbad(void) { return 0; } /* unterminated\n"
  in
  let broken =
    file "broken.c" "int oops(void) { return }\nint g(int *q) { kfree(q); return *q; }\n"
  in
  let heavy =
    file "heavy.c"
      ("int heavy(int *p, int x) {\n  int y = 0;\n  kfree(p);\n"
      ^ String.concat ""
          (List.init 12 (fun i -> Printf.sprintf "  if (x > %d) y = y + %d;\n" i i))
      ^ "  return *p + y;\n}\n")
  in
  let cfg files =
    {
      Pass.c_files = files;
      c_parse = parse;
      c_exts = [ Free_checker.checker () ];
      c_options = { options with Engine.max_nodes_per_root = 100 };
      c_jobs = 1;
      c_store = None;
      c_rank = "generic";
    }
  in
  let batch files =
    let warnings = ref [] in
    let p =
      Diag.with_sink
        (fun w -> warnings := w :: !warnings)
        (fun () -> Pass.run (Pass.create (cfg files)))
    in
    (p, List.rev !warnings)
  in
  let files = [ good; unlexable; broken; heavy ] in
  let p, warnings = batch files in
  let server =
    match Server.create (cfg files) with Ok s -> s | Error msg -> Alcotest.fail msg
  in
  let o = Server.check server in
  Alcotest.(check string) "same diagnostics"
    (Json_out.reports_to_string p.Pass.ranked) o.Server.o_diagnostics;
  Alcotest.(check (list string)) "same warning lines" warnings o.Server.o_warnings;
  let has needle =
    List.exists
      (fun w ->
        let n = String.length w and m = String.length needle in
        let rec go i =
          i + m <= n && (String.equal (String.sub w i m) needle || go (i + 1))
        in
        go 0)
      warnings
  in
  Alcotest.(check bool) "unlexable file skipped" true
    (has "unlexable.c: skipping entire file");
  Alcotest.(check bool) "unparseable definition skipped" true
    (has "skipped unparseable definition 'oops'");
  Alcotest.(check bool) "heavy root degraded" true
    (has "analysis of root heavy degraded: node budget of 100 exhausted");
  Alcotest.(check (list int)) "fault counts" [ 1; 1; 1 ]
    [
      p.Pass.skipped_files; p.Pass.skipped_defs; List.length p.Pass.result.Engine.degraded;
    ];
  (* an unreadable input: check skips it with a warning, the daemon
     refuses to start *)
  let missing = Filename.concat dir "missing.c" in
  let p, warnings = batch [ good; missing ] in
  Alcotest.(check int) "batch skips the unreadable input" 1 p.Pass.skipped_files;
  Alcotest.(check bool) "skip warning" true
    (List.exists
       (String.starts_with
          ~prefix:("xgcc: warning: " ^ missing ^ ": skipping entire file"))
       warnings);
  Alcotest.(check string) "the readable file still reports" (cold_check [ good ])
    (Json_out.reports_to_string p.Pass.ranked);
  match Server.create (cfg [ good; missing ]) with
  | Ok _ -> Alcotest.fail "server started over an unreadable input"
  | Error msg ->
      Alcotest.(check bool) "refusal names the file" true
        (String.starts_with ~prefix:(missing ^ ": ") msg)

(* A [check] served from the last clean result describes that result:
   a client whose first request after the warm-up is [check] still sees
   the warm-up's skipped definition and degraded root. *)
let served_check_keeps_warnings () =
  let dir = fresh_dir () in
  let file name src =
    let p = Filename.concat dir name in
    write_file p src;
    p
  in
  let broken =
    file "broken.c" "int oops(void) { return }\nint g(int *q) { kfree(q); return *q; }\n"
  in
  let heavy =
    file "heavy.c"
      ("int heavy(int *p, int x) {\n  int y = 0;\n  kfree(p);\n"
      ^ String.concat ""
          (List.init 12 (fun i -> Printf.sprintf "  if (x > %d) y = y + %d;\n" i i))
      ^ "  return *p + y;\n}\n")
  in
  let server =
    match
      Server.create
        {
          Server.c_files = [ broken; heavy ];
          c_parse = parse;
          c_exts = [ Free_checker.checker () ];
          c_options = { options with Engine.max_nodes_per_root = 100 };
          c_jobs = 1;
          c_store = None;
          c_rank = "generic";
        }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let warm = Server.check server in
  Alcotest.(check bool) "the warm-up warns" true (List.length warm.Server.o_warnings >= 2);
  Alcotest.(check int) "the warm-up degrades one root" 1 warm.Server.o_degraded;
  let r = req server ~more_pending:false Proto.Check in
  Alcotest.(check bool) "served from the last result" false (bfield r "rechecked");
  Alcotest.(check int) "degraded count kept" 1 (ifield r "degraded");
  Alcotest.(check (list string)) "warnings kept" warm.Server.o_warnings
    (match field r "warnings" with
    | Json_out.Arr ws -> List.map (function Json_out.Str s -> s | _ -> "") ws
    | _ -> Alcotest.fail "warnings not an array")

(* Anonymous aggregates are named per unit: re-parsing the unit that
   holds one names it as before, so a comment-only edit to that unit
   replays every root and builds no key digest. *)
let anon_comment_edit_replays () =
  let dir = fresh_dir () in
  let a = Filename.concat dir "a.c" and b = Filename.concat dir "b.c" in
  let b_src =
    "struct { int h; } s;\nstatic int *gp;\nint g(int *p) { kfree(p); return s.h; }\n"
  in
  write_file a "int f(int *x) { g(x); return *x; }\nint k(int *y) { kfree(y); return 0; }\n";
  write_file b b_src;
  let server = mk_server ~store:(mk_store ~dir:(Filename.concat dir "cache") ~persist:false) [ a; b ] in
  let r1 = req server ~more_pending:false Proto.Check in
  let r2 = req server ~more_pending:false (did_change ~path:b ~text:(b_src ^ "/* c */\n")) in
  Alcotest.(check string) "same diagnostics" (sfield r1 "diagnostics") (sfield r2 "diagnostics");
  Alcotest.(check int) "every root replays" (ifield r1 "roots_recomputed")
    (ifield r2 "roots_replayed");
  Alcotest.(check int) "no root recomputed" 0 (ifield r2 "roots_recomputed");
  Alcotest.(check int) "no summary recomputed" 0 (ifield r2 "fns_recomputed");
  Alcotest.(check int) "no key digested" 0 (ifield r2 "keys_computed");
  let st = req server ~more_pending:false Proto.Stats in
  Alcotest.(check int) "stats carry the digest count" 0 (ifield st "keys_computed")

(* Under [--cpp] a unit is what its headers make it: editing a header the
   unit includes must reach the next [check], as a batch [check --cpp] of
   the edited tree sees it. *)
let header_edit_reaches_check () =
  let dir = fresh_dir () in
  let h = Filename.concat dir "h.h" and u = Filename.concat dir "u.c" in
  write_file h "static void rel(int *p) { }\n";
  write_file u
    "#include \"h.h\"\nint f(int n) { int *p = kmalloc(n); rel(p); kfree(p); return 0; }\n";
  let loader = Loader.create ~cpp:([], [ dir ]) () in
  let server =
    match
      Server.create ~loader
        {
          Server.c_files = [ u ];
          c_parse = Loader.parse loader;
          c_exts = [ Free_checker.checker () ];
          c_options = options;
          c_jobs = 1;
          c_store = Some (mk_store ~dir:(Filename.concat dir "cache") ~persist:false);
          c_rank = "generic";
        }
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let batch () =
    let tu = Loader.load (Loader.create ~cpp:([], [ dir ]) ()) u in
    let result = Engine.run ~options (Supergraph.build [ tu ]) [ Free_checker.checker () ] in
    Json_out.reports_to_string (Rank.generic_sort result.Engine.reports)
  in
  let r1 = req server ~more_pending:false Proto.Check in
  Alcotest.(check string) "no report before the edit" (batch ()) (sfield r1 "diagnostics");
  write_file h "static void rel(int *p) { kfree(p); }\n";
  let r2 = req server ~more_pending:false Proto.Check in
  let expected = batch () in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "the edited header frees p twice" true
    (contains expected "double free of p!");
  Alcotest.(check string) "the daemon sees the header edit" expected (sfield r2 "diagnostics")

let suite =
  [
    t "json roundtrip and errors" `Quick json_roundtrip;
    t "request decode" `Quick request_decode;
    t "edit-storm coalescing" `Quick coalescing;
    t "byte identity: summary-changing edit" `Quick byte_identity_summary_edit;
    t "byte identity: comment-only edit replays" `Quick byte_identity_comment_edit;
    t "kill and restart recovers from persisted store" `Quick restart_recovery;
    t "concurrent batch check shares the cache dir" `Quick concurrent_batch_check;
    t "on-disk edit revalidated at check" `Quick disk_edit_revalidated;
    t "mid-run drift detection and stale roots" `Quick midrun_drift_detection;
    t "per-request diag sink" `Quick per_request_diag_sink;
    t "unknown didChange path rejected" `Quick unknown_path_rejected;
    t "with_sink restores on exception" `Quick with_sink_restores;
    t "batch check and daemon run one pass" `Quick batch_daemon_parity;
    t "a served check keeps the warm-up's warnings" `Quick served_check_keeps_warnings;
    t "comment-only edit of an anonymous struct's unit replays" `Quick
      anon_comment_edit_replays;
    t "a header edit reaches the next check under --cpp" `Quick header_edit_reaches_check;
  ]
