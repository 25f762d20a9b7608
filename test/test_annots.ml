(* AST annotations as extensions compose them (Section 9): tags one
   extension lays must reach later extensions — through report severity
   annotations, pattern callouts and action callouts alike — with the
   same output at any job count, cached or not, and through the daemon,
   and a degraded root's tags must vanish with it. The path-kill tag is
   one such tag: a later extension's paths must end at it in every one
   of those runs. *)

let t = Alcotest.test_case

let metal src =
  match Metal_compile.load ~file:"<m>" src with
  | [ sm ] -> sm
  | _ -> Alcotest.fail "expected exactly one sm"

(* emission-order lines: Report.pp prints annotations too *)
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"t.c" src ]

let quietly f =
  let saved = !Diag.sink in
  Diag.sink := ignore;
  Fun.protect ~finally:(fun () -> Diag.sink := saved) f

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1))
  in
  go 0

let count_matching needle lines =
  List.length (List.filter (fun l -> contains l needle) lines)

(* Tags every dereference SECURITY (a severity the free checker's reports
   pick up) and every seal() call "sealed" (read by [reader]'s pattern). *)
let tagger_src =
  {|sm tagger { decl any_expr x;
     start: { *x } ==> { annotate_ast(mc_stmt, "SECURITY"); }
          | { seal() } ==> { annotate_ast(mc_stmt, "sealed"); }; }|}

let reader_src =
  {|sm reader { decl any_fn_call fn; decl any_arguments args;
     start: { fn(args) } && ${ mc_annotated(mc_stmt, "sealed") } ==>
       { err("saw sealed call"); }; }|}

(* [helper] is a callee of two roots and is entered with no live
   instances, so each root's context at -j > 1 lays its tags itself. *)
let composed_v1 =
  "void helper(int *q) { seal(); use(*q); }\n\
   int f1(int *p) { kfree(p); return *p; }\n\
   int f2(int *p) { helper(p); seal(); return 0; }\n\
   int f3(int *p) { helper(p); kfree(p); return *p; }\n"

(* f2 edited in place (one constant), so no location moves *)
let composed_v2 =
  "void helper(int *q) { seal(); use(*q); }\n\
   int f1(int *p) { kfree(p); return *p; }\n\
   int f2(int *p) { helper(p); seal(); return 1; }\n\
   int f3(int *p) { helper(p); kfree(p); return *p; }\n"

let composed () =
  [ metal tagger_src; Free_checker.checker (); metal reader_src ]

let temp_dir () = Temp.dir "xgcc_test_annots"

let store_over dir =
  Summary_store.create ~dir
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources:[ tagger_src; "free"; reader_src ])
    ()

(* Both tags laid by the first extension, visible downstream: the two
   use-after-free reports carry SECURITY and the reader's pattern sees
   both sealed calls. *)
let check_composed label lines =
  Alcotest.(check int) (label ^ ": SECURITY reaches free reports") 2
    (count_matching "SECURITY" lines);
  Alcotest.(check int) (label ^ ": reader sees sealed calls") 2
    (count_matching "saw sealed call" lines)

let tag_probe_src =
  {|sm tag_probe { state decl any_pointer v;
     start: { v } && ${ mc_annotated(mc_stmt, "mc_branch") } ==> v.seen,
       { err("tagged=%s", mc_annotated(mc_stmt, "mc_branch")); }; }|}

(* [explode] arms the tagger, so sealer()'s seal() gets tagged only from
   there, then runs far past the node budget; [g] reaches the same node
   unarmed and stays well under it. *)
let armed_tagger_src =
  {|sm armed_tagger {
     start: { arm() } ==> armed;
     armed: { seal() } ==> { annotate_ast(mc_stmt, "sealed"); }; }|}

let budget_src =
  let body =
    String.concat " " (List.init 30 (fun i -> Printf.sprintf "x = %d;" i))
  in
  "void sealer(void) { seal(); }\n\
   int g(void) { sealer(); return 0; }\n\
   int explode(int x) { arm(); sealer(); " ^ body ^ " return x; }\n"

(* The two pathkill compositions of test_checkers.ml, and the second
   with its killer moved into a callee, entered with no instance live.
   [k_edited] changes one constant, so no location moves. *)
type kill_case = {
  k_name : string;
  k_src : string;
  k_edited : string;
  k_with : unit -> Sm.t list;  (* pathkill first *)
  k_without : unit -> Sm.t list;  (* the same checker alone *)
  k_sources : string list;  (* store chain of [k_with] *)
}

let kill_cases =
  let custom name src edited =
    {
      k_name = name;
      k_src = src;
      k_edited = edited;
      k_with =
        (fun () ->
          [ Pathkill.checker_for ~killers:[ "my_die" ]; Free_checker.checker () ]);
      k_without = (fun () -> [ Free_checker.checker () ]);
      k_sources = [ "pathkill:my_die"; "free" ];
    }
  in
  [
    {
      k_name = "panic";
      k_src = "int f(void) { cli(); panic(\"x\"); return 0; }\n";
      k_edited = "int f(void) { cli(); panic(\"x\"); return 1; }\n";
      k_with = (fun () -> [ Pathkill.checker (); Intr_checker.checker () ]);
      k_without = (fun () -> [ Intr_checker.checker () ]);
      k_sources = [ Pathkill.source; "intr" ];
    };
    custom "custom killer" "int f(int *p) { kfree(p); my_die(); return *p; }\n"
      "int f(int *p) { kfree(p); my_die(); return *p + 1; }\n";
    custom "custom killer in a shared callee"
      "void helper(void) { int *q = kmalloc(4); kfree(q); my_die(); use(*q); }\n\
       int f(void) { helper(); return 0; }\n"
      "void helper(void) { int *q = kmalloc(4); kfree(q); my_die(); use(*q); }\n\
       int f(void) { helper(); return 1; }\n";
  ]

let kill_store dir sources =
  Summary_store.create ~dir ~memory:true
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources)
    ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let kill_suite =
  [
    t "kill tags from an earlier extension end paths at any -j" `Quick
      (fun () ->
        List.iter
          (fun c ->
            let sg = sg_of c.k_src in
            let seq = report_lines (Engine.run ~jobs:1 sg (c.k_with ())) in
            Alcotest.(check (list string)) (c.k_name ^ ": -j 1 suppressed") [] seq;
            List.iter
              (fun jobs ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: -j %d matches -j 1" c.k_name jobs)
                  seq
                  (report_lines (Engine.run ~jobs sg (c.k_with ())));
                Alcotest.(check int)
                  (Printf.sprintf "%s: -j %d reports without pathkill" c.k_name
                     jobs)
                  1
                  (List.length (Engine.run ~jobs sg (c.k_without ())).Engine.reports))
              [ 1; 2; 4 ])
          kill_cases);
    t "kill tags from an earlier extension end paths cold, warm and edited"
      `Quick (fun () ->
        List.iter
          (fun c ->
            List.iter
              (fun jobs ->
                let label what =
                  Printf.sprintf "%s: -j %d %s" c.k_name jobs what
                in
                let dir = temp_dir () in
                let cached src =
                  report_lines
                    (Engine.run ~jobs ~cache:(kill_store dir c.k_sources)
                       (sg_of src) (c.k_with ()))
                in
                List.iter
                  (fun (what, src) ->
                    Alcotest.(check (list string)) (label what) [] (cached src))
                  [
                    ("cold", c.k_src);
                    ("warm", c.k_src);
                    ("edited", c.k_edited);
                    ("warm after the edit", c.k_edited);
                  ];
                let bare = temp_dir () in
                Alcotest.(check int)
                  (label "cold, reports without pathkill")
                  1
                  (List.length
                     (Engine.run ~jobs
                        ~cache:(kill_store bare (List.tl c.k_sources))
                        (sg_of c.k_src) (c.k_without ()))
                       .Engine.reports))
              [ 1; 2; 4 ])
          kill_cases);
    t "kill tags from an earlier extension end paths through didChange"
      `Quick (fun () ->
        List.iter
          (fun c ->
            List.iter
              (fun jobs ->
                let dir = temp_dir () in
                let path = Filename.concat dir "t.c" in
                write_file path c.k_src;
                let server exts sources =
                  match
                    Server.create
                      {
                        Server.c_files = [ path ];
                        c_parse =
                          (fun ~path ~source ->
                            Ok (Cparse.parse_tunit ~file:path source));
                        c_exts = exts;
                        c_options = Engine.default_options;
                        c_jobs = jobs;
                        c_store =
                          Some
                            (kill_store (Filename.concat dir "cache") sources);
                        c_rank = "generic";
                      }
                  with
                  | Ok s -> s
                  | Error msg -> Alcotest.fail msg
                in
                (* the batch -j 1 oracle, as [xgcc check --format json] prints it *)
                let batch src exts =
                  let sg = Supergraph.build [ Cparse.parse_tunit ~file:path src ] in
                  Json_out.reports_to_string
                    (Rank.generic_sort (Engine.run sg exts).Engine.reports)
                in
                let edit s =
                  ignore
                    (Server.handle_request s ~more_pending:false
                       (Proto.Did_change { path; text = Some c.k_edited }));
                  Server.check s
                in
                let label what =
                  Printf.sprintf "%s: -j %d %s" c.k_name jobs what
                in
                let s = server (c.k_with ()) c.k_sources in
                let before = Server.check s in
                Alcotest.(check int) (label "suppressed") 0 before.Server.o_reports;
                Alcotest.(check string) (label "matches batch")
                  (batch c.k_src (c.k_with ())) before.Server.o_diagnostics;
                let after = edit s in
                Alcotest.(check int) (label "suppressed after didChange") 0
                  after.Server.o_reports;
                Alcotest.(check string) (label "matches batch after didChange")
                  (batch c.k_edited (c.k_with ())) after.Server.o_diagnostics;
                let bare = server (c.k_without ()) (List.tl c.k_sources) in
                Alcotest.(check int) (label "reports without pathkill") 1
                  (Server.check bare).Server.o_reports;
                Alcotest.(check int)
                  (label "reports without pathkill after didChange")
                  1 (edit bare).Server.o_reports)
              [ 1; 2 ])
          kill_cases);
  ]

let suite =
  [
    t "action callouts read the annotations patterns read" `Quick (fun () ->
        let sg = sg_of "int f(int *p) { if (p) return 1; return 0; }" in
        List.iter
          (fun jobs ->
            let r = Engine.run ~jobs sg [ metal tag_probe_src ] in
            Alcotest.(check (list string))
              (Printf.sprintf "messages at -j %d" jobs)
              [ "tagged=true" ]
              (List.map (fun (r : Report.t) -> r.Report.message) r.Engine.reports))
          [ 1; 2 ]);
    t "tags reach the next extension at any -j" `Quick (fun () ->
        let sg = sg_of composed_v1 in
        let seq = report_lines (Engine.run ~jobs:1 sg (composed ())) in
        check_composed "-j 1" seq;
        List.iter
          (fun jobs ->
            Alcotest.(check (list string))
              (Printf.sprintf "-j %d byte-identical" jobs)
              seq
              (report_lines (Engine.run ~jobs sg (composed ()))))
          [ 2; 4 ]);
    t "tags reach the next extension cold, warm and after an edit" `Quick
      (fun () ->
        let dir = temp_dir () in
        let cached jobs src =
          report_lines
            (Engine.run ~jobs ~cache:(store_over dir) (sg_of src) (composed ()))
        in
        let uncached src = report_lines (Engine.run (sg_of src) (composed ())) in
        let v1 = uncached composed_v1 in
        check_composed "uncached" v1;
        Alcotest.(check (list string)) "cold" v1 (cached 1 composed_v1);
        Alcotest.(check (list string)) "warm" v1 (cached 1 composed_v1);
        Alcotest.(check (list string)) "warm -j 2" v1 (cached 2 composed_v1);
        let v2 = uncached composed_v2 in
        check_composed "edited, uncached" v2;
        Alcotest.(check (list string)) "after edit" v2 (cached 2 composed_v2);
        Alcotest.(check (list string)) "warm after edit" v2 (cached 1 composed_v2));
    t "a degraded root's tags are rolled back at any -j" `Quick (fun () ->
        let sg = sg_of budget_src in
        let exts () = [ metal armed_tagger_src; metal reader_src ] in
        (* control: unbudgeted, explode's arming tags the shared node and
           the reader reports it *)
        let free_run = Engine.run sg (exts ()) in
        Alcotest.(check int) "control: tag visible without a budget" 1
          (count_matching "saw sealed call" (report_lines free_run));
        let options = { Engine.default_options with max_nodes_per_root = 40 } in
        let run jobs = quietly (fun () -> Engine.run ~options ~jobs sg (exts ())) in
        let seq = run 1 in
        Alcotest.(check (list string)) "explode degraded in both extensions"
          [ "explode"; "explode" ]
          (List.map (fun (d : Engine.degraded) -> d.Engine.d_root) seq.Engine.degraded);
        Alcotest.(check int) "-j 1: the reader never sees the tag" 0
          (count_matching "saw sealed call" (report_lines seq));
        List.iter
          (fun jobs ->
            let par = run jobs in
            Alcotest.(check (list string))
              (Printf.sprintf "-j %d reports match -j 1" jobs)
              (report_lines seq) (report_lines par);
            Alcotest.(check int)
              (Printf.sprintf "-j %d degraded roots" jobs)
              2 (List.length par.Engine.degraded))
          [ 2; 4 ]);
  ] @ kill_suite
