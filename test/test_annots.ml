(* AST annotations as extensions compose them (Section 9): tags one
   extension lays must reach later extensions — through report severity
   annotations, pattern callouts and action callouts alike — with the
   same output at any job count, cached or not, and a degraded root's
   tags must vanish with it. *)

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
   instances, so at -j > 1 it is a shared summary unit whose tags travel
   in its publication. *)
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

let temp_dir () =
  let f = Filename.temp_file "xgcc_test_annots" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

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
  ]
