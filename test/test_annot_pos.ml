(* The lazy annotation-position index and the incremental group hashes
   against references computed from scratch: an eager index that prints
   every node of the program up front, and a full re-render of every
   annotation group at every extension boundary. Positions and hashes are
   persisted in store keys and entries, so any disagreement would orphan
   or misread a store. *)

let t = Alcotest.test_case

let temp_dir () = Temp.dir "xgcc_test_annot_pos"

let sg_of_files files =
  Supergraph.build
    (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files)

let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

(* ------------------------------------------------------------------ *)
(* The eager reference                                                 *)
(* ------------------------------------------------------------------ *)

let annot_base (loc : Srcloc.t) ~printed ~ctx =
  Printf.sprintf "%s:%d:%d|%s|%s" loc.file loc.line loc.col printed ctx

type ref_index = {
  ai_exprs : (int, Cast.expr) Hashtbl.t;  (* eid -> node *)
  ai_pos : (int, string * int) Hashtbl.t;  (* eid -> (enclosing def, occurrence) *)
  ai_ids : (string, int) Hashtbl.t;  (* full positional key -> eid *)
}

let rec iter_exprs_expr f (e : Cast.expr) =
  f e;
  let children =
    match e.enode with
    | Cast.Eunary (_, e1)
    | Cast.Ecast (_, e1)
    | Cast.Esizeof_expr e1
    | Cast.Efield (e1, _)
    | Cast.Earrow (e1, _) ->
        [ e1 ]
    | Cast.Ebinary (_, l, r)
    | Cast.Eassign (_, l, r)
    | Cast.Eindex (l, r)
    | Cast.Ecomma (l, r) ->
        [ l; r ]
    | Cast.Econd (c, t, fe) -> [ c; t; fe ]
    | Cast.Ecall (fn, args) -> fn :: args
    | Cast.Einit_list es -> es
    | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ | Cast.Eident _
    | Cast.Esizeof_type _ ->
        []
  in
  List.iter (iter_exprs_expr f) children

let rec iter_exprs_stmt f (s : Cast.stmt) =
  match s.snode with
  | Cast.Sexpr e -> iter_exprs_expr f e
  | Cast.Sdecl ds ->
      List.iter
        (fun (d : Cast.decl) -> Option.iter (iter_exprs_expr f) d.dinit)
        ds
  | Cast.Sif (c, t, e) ->
      iter_exprs_expr f c;
      iter_exprs_stmt f t;
      Option.iter (iter_exprs_stmt f) e
  | Cast.Swhile (c, b) ->
      iter_exprs_expr f c;
      iter_exprs_stmt f b
  | Cast.Sdo (b, c) ->
      iter_exprs_stmt f b;
      iter_exprs_expr f c
  | Cast.Sfor (init, c, step, b) ->
      Option.iter (iter_exprs_stmt f) init;
      Option.iter (iter_exprs_expr f) c;
      Option.iter (iter_exprs_expr f) step;
      iter_exprs_stmt f b
  | Cast.Sreturn e -> Option.iter (iter_exprs_expr f) e
  | Cast.Sblock ss -> List.iter (iter_exprs_stmt f) ss
  | Cast.Sswitch (e, cases) ->
      iter_exprs_expr f e;
      List.iter
        (fun (c : Cast.case) -> List.iter (iter_exprs_stmt f) c.case_body)
        cases
  | Cast.Slabel (_, s1) -> iter_exprs_stmt f s1
  | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> ()

let build_ref_index (sg : Supergraph.t) =
  let ix =
    {
      ai_exprs = Hashtbl.create 1024;
      ai_pos = Hashtbl.create 1024;
      ai_ids = Hashtbl.create 1024;
    }
  in
  let occs : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let visit ctx (e : Cast.expr) =
    if not (Hashtbl.mem ix.ai_exprs e.Cast.eid) then begin
      Hashtbl.replace ix.ai_exprs e.Cast.eid e;
      let base = annot_base e.eloc ~printed:(Cprint.expr_to_string e) ~ctx in
      let occ = Option.value (Hashtbl.find_opt occs base) ~default:0 in
      Hashtbl.replace occs base (occ + 1);
      Hashtbl.replace ix.ai_pos e.Cast.eid (ctx, occ);
      Hashtbl.replace ix.ai_ids (base ^ "#" ^ string_of_int occ) e.Cast.eid
    end
  in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gfun fd -> iter_exprs_stmt (visit fd.fname) fd.fbody
          | Cast.Gvar { gdecl = { dname; dinit = Some e; _ }; _ } ->
              iter_exprs_expr (visit dname) e
          | _ -> ())
        tu.tu_globals)
    sg.Supergraph.tunits;
  ix

let ref_key rix eid =
  let e = Hashtbl.find rix.ai_exprs eid in
  let ctx, occ = Hashtbl.find rix.ai_pos eid in
  annot_base e.Cast.eloc ~printed:(Cprint.expr_to_string e) ~ctx
  ^ "#" ^ string_of_int occ

(* Every group re-rendered from the eager index. *)
let ref_group_hashes rix ~is_group annots =
  let groups : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let misc = ref [] in
  Hashtbl.iter
    (fun eid tags ->
      if Hashtbl.mem rix.ai_exprs eid then begin
        let ctx, _ = Hashtbl.find rix.ai_pos eid in
        let entry = ref_key rix eid ^ "=" ^ String.concat "," (List.rev tags) in
        if is_group ctx then
          match Hashtbl.find_opt groups ctx with
          | Some r -> r := entry :: !r
          | None -> Hashtbl.replace groups ctx (ref [ entry ])
        else misc := entry :: !misc
      end)
    annots;
  let group_hash entries =
    Fingerprint.of_string ~salt:"annot-1"
      (String.concat "\x00" (List.sort String.compare entries))
  in
  {
    Annot_pos.misc = group_hash !misc;
    by_def =
      List.sort compare
        (Hashtbl.fold (fun d r acc -> (d, group_hash !r) :: acc) groups []);
  }

(* ------------------------------------------------------------------ *)
(* Corpora                                                             *)
(* ------------------------------------------------------------------ *)

(* Two units claiming one file name (a header parsed into two units) with
   textually identical expressions at identical positions inside
   different functions. *)
let twin_files =
  [
    ("twin.h", "int a(int *p) { if (p) { kfree(p); } return 0; }\n");
    ("twin.h", "int b(int *p) { if (p) { kfree(p); } return 0; }\n");
  ]

(* One file built in two configurations through cpp: both units define
   [put], whose body expands RELEASE at the same spots, so every node of
   the second [put] repeats an expression of the first at one location
   inside one function — same location, printed form and definition —
   and ranks 1. SLACK expands to a different constant in each build at
   one spot, so that spot holds two printed forms, each of rank 0. Only
   the DEBUG build defines [probe]. *)
let cfg_src =
  "#define RELEASE(p) kfree(p)\n\
   #define GUARD(p) if (!(p)) { return -1; }\n\
   #ifdef DEBUG\n\
   #define SLACK 8\n\
   #else\n\
   #define SLACK 4\n\
   #endif\n\
   static int put(int *p) { int *t = kmalloc(SLACK); GUARD(p); RELEASE(t); RELEASE(p); return *p; }\n\
   #ifdef DEBUG\n\
   int probe(int *q) { int *r = kmalloc(4); GUARD(r); RELEASE(r); return put(q); }\n\
   #endif\n\
   int drive(int *s) { return put(s); }\n"

let cpp_twin_files =
  [
    ("cfg.c", Cpp.preprocess ~file:"cfg.c" cfg_src);
    ("cfg.c", Cpp.preprocess ~defines:[ ("DEBUG", "1") ] ~file:"cfg.c" cfg_src);
  ]

(* Both units define [put] and [drive]; the supergraph keeps the first
   of each and warns about the second. *)
let cpp_twins_sg () =
  let saved = !Diag.sink in
  Diag.sink := ignore;
  Fun.protect ~finally:(fun () -> Diag.sink := saved) (fun () -> sg_of_files cpp_twin_files)

let gen_files seed =
  List.map
    (fun (f, (g : Gen.t)) -> (f, g.Gen.source))
    (Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.4)

let corpora () =
  [
    ("driver fixture", Fixture_driver.supergraph ());
    ("vfs fixture", Fixture_vfs.supergraph ());
    ("gen seed 1", sg_of_files (gen_files 1));
    ("gen seed 7", sg_of_files (gen_files 7));
    ("gen seed 21", sg_of_files (gen_files 21));
    ( "gen linked seed 5",
      sg_of_files
        (List.map
           (fun (f, (g : Gen.t)) -> (f, g.Gen.source))
           (Gen.generate_linked ~seed:5 ~n_files:2 ~funcs_per_file:6 ~bug_rate:0.4)) );
    ("twin.h", sg_of_files twin_files);
    ("cpp twins", cpp_twins_sg ());
  ]

(* Every position the lazy index gives, against the eager reference; and
   every position resolves back to its node. [resolve_first] resolves each
   node's reference position on a fresh index before asking for any
   position, so ranking is reached from both entry points. *)
let check_index ?ix name sg ~resolve_first =
  let rix = build_ref_index sg in
  let ix = match ix with Some ix -> ix | None -> Annot_pos.build sg.Supergraph.tunits in
  Hashtbl.iter
    (fun eid (e : Cast.expr) ->
      let ctx, occ = Hashtbl.find rix.ai_pos eid in
      let printed = Cprint.expr_to_string e in
      let label = Printf.sprintf "%s: node %s in %s" name (ref_key rix eid) ctx in
      if resolve_first then
        Alcotest.(check (option int))
          (label ^ " resolves before any position")
          (Some eid)
          (Annot_pos.resolve ix e.eloc ~printed ~def:ctx ~occ);
      match Annot_pos.position ix eid with
      | None -> Alcotest.failf "%s: no position" label
      | Some p ->
          Alcotest.(check bool) (label ^ " loc") true (p.Annot_pos.loc = e.eloc);
          Alcotest.(check string) (label ^ " printed") printed p.printed;
          Alcotest.(check string) (label ^ " def") ctx p.def;
          Alcotest.(check int) (label ^ " occ") occ p.occ;
          Alcotest.(check string) (label ^ " key") (ref_key rix eid) p.key;
          Alcotest.(check int) (label ^ " key maps back") eid
            (Hashtbl.find rix.ai_ids p.key);
          Alcotest.(check (option int))
            (label ^ " resolves") (Some eid)
            (Annot_pos.resolve ix p.loc ~printed:p.printed ~def:p.def ~occ:p.occ))
    rix.ai_exprs;
  Alcotest.(check bool)
    (name ^ ": a node outside the program has no position") true
    (Option.is_none (Annot_pos.position ix (Cast.mk_expr (Cast.Eident "x")).eid));
  rix

let max_occ rix = Hashtbl.fold (fun _ (_, occ) m -> max m occ) rix.ai_pos 0

(* (location, definition) spots holding nodes of more than one printed form *)
let mixed_spots rix =
  let forms = Hashtbl.create 64 in
  Hashtbl.iter
    (fun eid (e : Cast.expr) ->
      let ctx, _ = Hashtbl.find rix.ai_pos eid in
      let k = (e.eloc, ctx) in
      let printed = Cprint.expr_to_string e in
      let prev = Option.value (Hashtbl.find_opt forms k) ~default:[] in
      if not (List.mem printed prev) then Hashtbl.replace forms k (printed :: prev))
    rix.ai_exprs;
  Hashtbl.fold (fun _ ps n -> if List.length ps > 1 then n + 1 else n) forms 0

(* ------------------------------------------------------------------ *)
(* Edits of a Gen corpus, as perfbench's cache_edits cycle makes them   *)
(* ------------------------------------------------------------------ *)

let find_from hay needle from =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub hay i m) needle then Some i
    else go (i + 1)
  in
  go from

let insert_at s i text = String.sub s 0 i ^ text ^ String.sub s i (String.length s - i)

(* The first file with a [static void NAME_release(int *p) {] helper, and
   its texts after a summary-changing edit of the helper, a dead local in
   its caller [int NAME(...) {], a trailing comment, and a revert. *)
let edit_cycle files =
  let helper_at src =
    Option.map
      (fun i ->
        let line = match String.rindex_from_opt src i '\n' with Some j -> j + 1 | None -> 0 in
        let name =
          String.sub src (line + String.length "static void ")
            (i - line - String.length "static void ")
        in
        (i + String.length "_release(int *p) {", name))
      (find_from src "_release(int *p) {" 0)
  in
  let file, src, (at, name) =
    match List.find_map (fun (f, s) -> Option.map (fun h -> (f, s, h)) (helper_at s)) files with
    | Some x -> x
    | None -> Alcotest.fail "no release helper in the corpus"
  in
  let e1 = insert_at src at " int *t = kmalloc(1); kfree(t);" in
  let caller =
    match find_from e1 ("\nint " ^ name ^ "(") 0 with
    | Some i -> Option.get (find_from e1 ") {\n" i) + 3
    | None -> Alcotest.fail "the release helper has no caller"
  in
  let e2 = insert_at e1 caller " int bench_dead = 0;" in
  let e3 = e2 ^ "/* reviewed: comment-only edit */\n" in
  (file, [ ("summary_edit", e1); ("neutral_edit", e2); ("comment_edit", e3); ("revert", src) ])

let all_checkers () =
  List.map
    (fun (e : Registry.entry) ->
      (e.e_make (), Option.value e.e_source ~default:(e.e_name ^ "\n" ^ e.e_description)))
    (Registry.all ())

let store_for dir exts_src =
  Summary_store.create ~dir
    ~ext_keys:
      (Summary_store.ext_keys_of
         ~options_digest:(Engine.options_digest Engine.default_options)
         ~sources:(List.map snd exts_src))
    ()

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* (kind/file, bytes) of every pack, sorted *)
let packs dir =
  List.concat_map
    (fun kind ->
      let d = Filename.concat dir kind in
      Sys.readdir d |> Array.to_list |> List.sort String.compare
      |> List.map (fun f -> (kind ^ "/" ^ f, read_bytes (Filename.concat d f))))
    [ "sum"; "root" ]

(* A cached run over [files] with all 14 checkers, checking at every
   extension boundary that the incrementally kept group hashes equal both
   a recompute over a fresh lazy index and the eager reference. Returns
   the reports and how many boundaries had at least one group. *)
let observed_run ~dir files =
  let sg = sg_of_files files in
  let is_group = Callgraph.is_defined sg.Supergraph.callgraph in
  let rix = build_ref_index sg in
  let boundaries = ref 0 and with_groups = ref 0 in
  let observe (hashes : Annot_pos.hashes) table =
    incr boundaries;
    if hashes.by_def <> [] then incr with_groups;
    let fresh = Annot_pos.group_hashes (Annot_pos.build sg.tunits) ~is_group table in
    let eager = ref_group_hashes rix ~is_group table in
    let label what = Printf.sprintf "boundary %d: %s" !boundaries what in
    Alcotest.(check string) (label "misc = recompute") fresh.misc hashes.misc;
    Alcotest.(check (list (pair string string)))
      (label "groups = recompute") fresh.by_def hashes.by_def;
    Alcotest.(check string) (label "misc = eager") eager.misc hashes.misc;
    Alcotest.(check (list (pair string string)))
      (label "groups = eager") eager.by_def hashes.by_def
  in
  let exts_src = all_checkers () in
  let r =
    Engine.run_observing_groups ~cache:(store_for dir exts_src) ~observe sg
      (List.map fst exts_src)
  in
  Alcotest.(check int) "one boundary per checker" (List.length exts_src) !boundaries;
  (report_lines r, !with_groups)

(* Tags every dereference SECURITY and every seal() call "sealed"; the
   reader reports calls tagged sealed, so a lost tag changes the output. *)
let tagger_src =
  {|sm tagger { decl any_expr x;
     start: { *x } ==> { annotate_ast(mc_stmt, "SECURITY"); }
          | { seal() } ==> { annotate_ast(mc_stmt, "sealed"); }; }|}

let reader_src =
  {|sm reader { decl any_fn_call fn; decl any_arguments args;
     start: { fn(args) } && ${ mc_annotated(mc_stmt, "sealed") } ==>
       { err("saw sealed call"); }; }|}

let metal src =
  match Metal_compile.load ~file:"<m>" src with
  | [ sm ] -> sm
  | _ -> Alcotest.fail "expected exactly one sm"

let sealed_src =
  "int f1(int *p) { seal(); kfree(p); return *p; }\n\
   int f2(int *p) { seal(); return 0; }\n"

let suite =
  [
    t "lazy positions equal the eager index on every corpus" `Quick (fun () ->
        List.iter
          (fun (name, sg) ->
            ignore (check_index name sg ~resolve_first:false);
            ignore (check_index name sg ~resolve_first:true))
          (corpora ()));
    t "positional twins rank 1 in both twin corpora" `Quick (fun () ->
        let sg = cpp_twins_sg () in
        let rix = check_index "cpp twins" sg ~resolve_first:false in
        Alcotest.(check int) "cpp twins: a node of rank 1" 1 (max_occ rix);
        (* SLACK's constant, and the kmalloc call that prints it *)
        Alcotest.(check int) "cpp twins: spots with two printed forms" 2
          (mixed_spots rix);
        Alcotest.(check int) "cpp twins: both units define put" 2
          (List.length
             (List.filter
                (fun (tu : Cast.tunit) ->
                  List.exists
                    (function Cast.Gfun fd -> fd.Cast.fname = "put" | _ -> false)
                    tu.tu_globals)
                sg.Supergraph.tunits));
        let tix = check_index "twin.h" (sg_of_files twin_files) ~resolve_first:false in
        Alcotest.(check int) "twin.h: twins in different definitions rank 0" 0
          (max_occ tix));
    t "cpp twins replay byte-identically" `Quick (fun () ->
        let exts_src = all_checkers () in
        let exts () = List.map fst (all_checkers ()) in
        let sg = cpp_twins_sg () in
        let uncached = report_lines (Engine.run sg (exts ())) in
        Alcotest.(check bool) "the corpus has reports" true (uncached <> []);
        let dir = temp_dir () in
        let cold = Engine.run ~cache:(store_for dir exts_src) sg (exts ()) in
        Alcotest.(check (list string)) "cold = uncached" uncached (report_lines cold);
        let warm_store = store_for dir exts_src in
        let warm = Engine.run ~cache:warm_store sg (exts ()) in
        Alcotest.(check (list string)) "warm = uncached" uncached (report_lines warm);
        Alcotest.(check int) "warm run replays every root" 0
          (Summary_store.stats warm_store).Summary_store.roots_recomputed;
        let warm2 = Engine.run ~jobs:2 ~cache:(store_for dir exts_src) sg (exts ()) in
        Alcotest.(check (list string)) "warm -j 2 = uncached" uncached (report_lines warm2));
    t "incremental group hashes equal a recompute at every boundary" `Quick
      (fun () ->
        let files = gen_files 7 in
        let file, cycle = edit_cycle files in
        let with_text text = List.map (fun (f, s) -> (f, if f = file then text else s)) files in
        let dir = temp_dir () in
        let uncached fs = report_lines (Engine.run (sg_of_files fs) (List.map fst (all_checkers ()))) in
        let run label fs =
          let lines, with_groups = observed_run ~dir fs in
          Alcotest.(check (list string)) (label ^ " = uncached") (uncached fs) lines;
          with_groups
        in
        let cold = run "cold" files in
        Alcotest.(check bool) "some boundary has annotation groups" true (cold > 0);
        ignore (run "warm" files);
        List.iter (fun (kind, text) -> ignore (run kind (with_text text))) cycle);
    t "a root entry whose delta no longer resolves is recomputed" `Quick
      (fun () ->
        (* An entry whose key still matches but whose stored positions name
           no node of the program (as after a printer change) must not
           replay: its tags would be dropped, and later extensions would
           miss them. *)
        let exts_src =
          [ (metal tagger_src, tagger_src); (Free_checker.checker (), "free");
            (metal reader_src, reader_src) ]
        in
        let exts () = List.map fst exts_src in
        let sg = sg_of_files [ ("s.c", sealed_src) ] in
        let uncached = report_lines (Engine.run sg (exts ())) in
        Alcotest.(check int) "the reader sees both sealed calls" 2
          (List.length (List.filter (fun l -> find_from l "saw sealed call" 0 <> None) uncached));
        let dir = temp_dir () in
        ignore (Engine.run ~cache:(store_for dir exts_src) sg (exts ()));
        let store = store_for dir exts_src in
        let ext = Summary_store.ext_key store 0 in
        let pack = Filename.concat (Filename.concat dir "root") (ext ^ ".pack") in
        let root, key =
          match Summary_store.dump_pack pack with
          | Error m -> Alcotest.fail m
          | Ok (Fn_entries _) -> Alcotest.fail "root pack dumped as fn entries"
          | Ok (Root_entries es) -> (
              match
                List.find_opt (fun (e : Summary_store.root_entry) -> e.r_annots <> []) es
              with
              | Some e -> (e.r_root, e.r_key)
              | None -> Alcotest.fail "no tagger root entry with annotations")
        in
        let key = Summary_store.key_of_digest key in
        (match Summary_store.load_root store ~ext ~root ~key with
        | None -> Alcotest.fail "the entry does not load"
        | Some e ->
            Summary_store.store_root store ~ext ~key
              {
                e with
                r_annots =
                  List.map
                    (fun (loc, printed, def, occ, tags) -> (loc, printed ^ " ", def, occ, tags))
                    e.r_annots;
              });
        Summary_store.flush store;
        let warm_store = store_for dir exts_src in
        let warm = Engine.run ~cache:warm_store sg (exts ()) in
        Alcotest.(check (list string)) "warm = uncached" uncached (report_lines warm);
        Alcotest.(check int) "exactly the stale root recomputes" 1
          (Summary_store.stats warm_store).Summary_store.roots_recomputed;
        let again = store_for dir exts_src in
        ignore (Engine.run ~cache:again sg (exts ()));
        Alcotest.(check int) "its rewritten entry replays" 0
          (Summary_store.stats again).Summary_store.roots_recomputed);
    t "packs do not depend on edit history (all checkers)" `Quick (fun () ->
        let files = gen_files 21 in
        let file, cycle = edit_cycle files in
        let exts_src = all_checkers () in
        let run dir fs =
          ignore
            (Engine.run ~cache:(store_for dir exts_src) (sg_of_files fs)
               (List.map fst exts_src))
        in
        let edited = temp_dir () in
        run edited files;
        List.iter
          (fun (_, text) ->
            run edited (List.map (fun (f, s) -> (f, if f = file then text else s)) files))
          cycle;
        let fresh = temp_dir () in
        run fresh files;
        let a = packs edited and b = packs fresh in
        Alcotest.(check (list string)) "same pack files" (List.map fst b) (List.map fst a);
        Alcotest.(check int) "one pack per kind and checker" (2 * List.length exts_src)
          (List.length b);
        List.iter2
          (fun (name, x) (_, y) ->
            Alcotest.(check bool) (name ^ " byte-identical to a fresh populate") true
              (String.equal x y))
          a b);
    t "a carried index equals a fresh one" `Quick (fun () ->
        (* a chain of programs, each supergraph built over the last: an
           edited unit is parsed again, the others stay physically the
           same, and each index must give exactly the positions a fresh
           one gives (check_index), and none to a node of the program
           before that the edit took out *)
        let parse (file, src) = (file, src, Cparse.parse_tunit ~file src) in
        let edit i f units =
          List.mapi (fun j ((file, src, _) as u) -> if j = i then parse (file, f src) else u) units
        in
        let v1 = List.map parse (gen_files 21) in
        let v2 = edit 1 (fun s -> s ^ "/* reviewed */\n") v1 in
        let v3 = edit 0 (fun s -> "int extra(int *p) { kfree(p); return *p; }\n" ^ s) v2 in
        let v4 = List.filteri (fun i _ -> i < 2) v3 in
        (* the dropped unit back, then unit 0 twice: physical twins *)
        let v5 = v4 @ [ List.nth v3 2; List.hd v4 ] in
        (* unit 0 parsed again under its name: positional twins *)
        let v6 = v5 @ [ (let f, s, _ = List.hd v4 in parse (f, s)) ] in
        let v7 = edit 5 (fun s -> s ^ "int late(int *q) { return *q; }\n") v6 in
        let t1 = List.map parse twin_files in
        let t2 = edit 1 (fun s -> "int c(void) { return 1; }\n" ^ s) t1 in
        let programs =
          [ ("v1", v1); ("v2", v2); ("v3", v3); ("v4", v4); ("v5", v5); ("v6", v6);
            ("v7", v7); ("twins", t1); ("edited twin", t2); ("v1 again", v1) ]
        in
        let saved = !Diag.sink in
        Diag.sink := ignore;
        Fun.protect
          ~finally:(fun () -> Diag.sink := saved)
          (fun () ->
            ignore
              (List.fold_left
                 (fun (prev, prev_rix) (name, units) ->
                   let sg =
                     Supergraph.build ?prev (List.map (fun (_, _, tu) -> tu) units)
                   in
                   let ix = Supergraph.positions sg in
                   let rix = check_index ~ix name sg ~resolve_first:false in
                   Option.iter
                     (fun prev_rix ->
                       Hashtbl.iter
                         (fun eid _ ->
                           if not (Hashtbl.mem rix.ai_exprs eid) then
                             Alcotest.(check bool)
                               (Printf.sprintf "%s: a node edited out has no position" name)
                               true
                               (Option.is_none (Annot_pos.position ix eid)))
                         prev_rix.ai_exprs)
                     prev_rix;
                   (Some sg, Some rix))
                 (None, None) programs)));
  ]
