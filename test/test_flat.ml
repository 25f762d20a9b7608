(* The flat supergraph tables ([Flat]) the engine traverses: flat block
   ids must round-trip to (function, block) pairs and replicate the boxed
   CFG views exactly — successors, head summaries, and the per-block
   events and terminator annotations, checked against a rebuild from the
   [Cfg] blocks. Reports are byte-identical at any job count, the default
   options digest that keys every store entry is pinned and a store
   written under it replays, and per-root fault containment rolls back
   the first-visit annotation bits. *)

let t = Alcotest.test_case

let temp_dir () = Temp.dir "xgcc_test_flat"

let free () = [ Free_checker.checker () ]
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"flat.c" src ]

let gen_sg ~seed =
  Supergraph.build
    (Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
    |> List.map (fun (file, g) -> Cparse.parse_tunit ~file g.Gen.source))

(* A small program exercising every block shape the flat tables encode:
   branches (dedup'd equal arms come from the generator tests), a switch,
   returns, calls through names and pointers, decl initialisers. *)
let shapes_src =
  "int helper(int *p) { kfree(p); return 0; }\n\
   int f(int a, int *p) {\n\
  \  int x = a + 1;\n\
  \  if (a) { helper(p); } else { x = 2; }\n\
  \  switch (x) { case 1: a = 3; break; case 2: a = 4; break; default: a = 5; }\n\
  \  while (a) { a = a - 1; }\n\
  \  return *p + x;\n\
   }\n\
   int g(void (*fp)(int)) { fp(1); return 0; }\n"

(* The oracle for [Flat.events]/[Flat.annots], rebuilt from a [Block.t]
   on its own: a declaration with an initialiser is a fresh-variable
   event followed by the nodes of a synthesised [x = init]; a branch
   condition, switch scrutinee or returned expression comes last and is
   the block's one annotated node. Also returns the eids of the
   synthesised nodes, which the flat table necessarily built separately. *)
let rebuild_events (b : Block.t) =
  let synth = Hashtbl.create 4 in
  let nodes e = List.map (fun n -> Flat.Ev_node n) (Cast.exec_order e) in
  let of_elem = function
    | Block.Tree e -> nodes e
    | Block.Decl d -> (
        match d.Cast.dinit with
        | Some init ->
            let lhs = Cast.ident ~loc:init.Cast.eloc d.Cast.dname in
            let asg =
              Cast.mk_expr ~loc:init.Cast.eloc (Cast.Eassign (None, lhs, init))
            in
            Hashtbl.replace synth lhs.Cast.eid ();
            Hashtbl.replace synth asg.Cast.eid ();
            Flat.Ev_fresh d.Cast.dname :: nodes asg
        | None -> [ Flat.Ev_fresh d.Cast.dname ])
    | Block.End_of_scope vars -> [ Flat.Ev_scope_end vars ]
  in
  let term_evs, annots =
    match b.Block.term with
    | Block.Branch (c, _, _) -> (nodes c, [ (c, "mc_branch") ])
    | Block.Switch (e, _) -> (nodes e, [ (e, "mc_branch") ])
    | Block.Return (Some e) -> (nodes e, [ (e, "mc_return") ])
    | Block.Jump _ | Block.Return None | Block.Exit -> ([], [])
  in
  (List.concat_map of_elem b.Block.elems @ term_evs, annots, synth)

let ev_repr = function
  | Flat.Ev_node e ->
      Printf.sprintf "node %s @%s" (Cast.key_of_expr e)
        (Srcloc.to_string e.Cast.eloc)
  | Flat.Ev_fresh v -> "fresh " ^ v
  | Flat.Ev_scope_end vs -> "scope_end " ^ String.concat "," vs

let table_tests =
  [
    t "flat ids round-trip through unflatten" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            Alcotest.(check bool)
              (fname ^ " known to flat table") true (base >= 0);
            Array.iteri
              (fun bid _ ->
                Alcotest.(check (pair string int))
                  (Printf.sprintf "unflatten %s#%d" fname bid)
                  (fname, bid)
                  (Flat.unflatten flat (base + bid)))
              cfg.Cfg.blocks)
          sg.Supergraph.cfgs;
        Alcotest.(check int) "unknown function has no base" (-1)
          (Flat.fbase flat "no_such_function"));
    t "flat successors replicate Cfg.successors" `Quick (fun () ->
        let sg = gen_sg ~seed:7 in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            Array.iteri
              (fun bid _ ->
                let boxed =
                  List.map (fun s -> base + s) (Cfg.successors cfg bid)
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "successors %s#%d" fname bid)
                  boxed
                  (Flat.successors flat (base + bid)))
              cfg.Cfg.blocks)
          sg.Supergraph.cfgs);
    t "flat head masks and calls replicate Block_heads" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        Hashtbl.iter
          (fun fname (cfg : Cfg.t) ->
            let base = Flat.fbase flat fname in
            let heads = Block_heads.of_cfg cfg in
            Array.iteri
              (fun bid (h : Block_heads.t) ->
                Alcotest.(check int)
                  (Printf.sprintf "mask %s#%d" fname bid)
                  h.Block_heads.mask
                  flat.Flat.head_mask.(base + bid);
                Alcotest.(check (list string))
                  (Printf.sprintf "calls %s#%d" fname bid)
                  h.Block_heads.calls
                  (Flat.calls flat (base + bid)))
              heads)
          sg.Supergraph.cfgs);
    t "flat events and terminator annotations replicate a rebuild from Cfg \
       blocks" `Quick (fun () ->
        List.iter
          (fun (corpus, sg) ->
            let flat = sg.Supergraph.flat in
            Hashtbl.iter
              (fun fname (cfg : Cfg.t) ->
                let base = Flat.fbase flat fname in
                Array.iter
                  (fun (b : Block.t) ->
                    let fb = base + b.Block.bid in
                    let what = Printf.sprintf "%s %s#%d" corpus fname b.Block.bid in
                    let evs, annots, synth = rebuild_events b in
                    let flat_evs = Array.to_list (Flat.events flat fb) in
                    Alcotest.(check (list string))
                      ("events " ^ what) (List.map ev_repr evs)
                      (List.map ev_repr flat_evs);
                    (* program nodes are shared, not copied: annotations
                       and the id table key them by eid *)
                    List.iter2
                      (fun rebuilt flat_ev ->
                        match (rebuilt, flat_ev) with
                        | Flat.Ev_node r, Flat.Ev_node f
                          when not (Hashtbl.mem synth r.Cast.eid) ->
                            Alcotest.(check bool)
                              ("program node shared " ^ what) true (r == f)
                        | _ -> ())
                      evs flat_evs;
                    Alcotest.(check (list (pair int string)))
                      ("annots " ^ what)
                      (List.map (fun ((e : Cast.expr), tag) -> (e.eid, tag)) annots)
                      (List.map
                         (fun ((e : Cast.expr), tag) -> (e.eid, tag))
                         (Array.to_list (Flat.annots flat fb))))
                  cfg.Cfg.blocks)
              sg.Supergraph.cfgs)
          [ ("shapes", sg_of shapes_src); ("gen7", gen_sg ~seed:7) ]);
    t "entry/exit ids and table size are sane" `Quick (fun () ->
        let sg = sg_of shapes_src in
        let flat = sg.Supergraph.flat in
        (match (Supergraph.cfg_of sg "f", Flat.fidx flat "f") with
        | Some cfg, Some fi ->
            let base = Flat.fbase flat "f" in
            Alcotest.(check int) "entry" (base + cfg.Cfg.entry)
              flat.Flat.entry.(fi);
            Alcotest.(check int) "exit" (base + cfg.Cfg.exit_)
              flat.Flat.exit_.(fi)
        | _ -> Alcotest.fail "f missing from supergraph or flat table");
        Alcotest.(check bool) "table_bytes positive" true
          (Flat.table_bytes flat > 0));
  ]

let identity_tests =
  [
    t "flat reports byte-identical at -j1/-j2" `Quick (fun () ->
        let sg = gen_sg ~seed:11 in
        let j1 = Engine.run sg (free ()) in
        let j2 = Engine.run ~jobs:2 sg (free ()) in
        Alcotest.(check (list string))
          "reports -j2 = -j1" (report_lines j1) (report_lines j2);
        Alcotest.(check (list (triple string int int)))
          "counters -j2 = -j1" j1.Engine.counters j2.Engine.counters);
    t "warm cache replays across the build boundary (digest pinned)" `Quick
      (fun () ->
        (* Every store entry is keyed on the options digest, so a store is
           replayed by another build exactly when both compute the same
           digest. Pinning the literal makes any change to it deliberate
           (bump [Engine.analysis_version] when output can change) rather
           than a silent orphaning of every existing store. *)
        Alcotest.(check string)
          "default options digest"
          "xgcc-analysis-5 ctrue ptrue itrue ktrue strue d40 m64 n0 t0"
          (Engine.options_digest Engine.default_options);
        let sg = gen_sg ~seed:13 in
        let store_over dir =
          Summary_store.create ~dir
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let dir = temp_dir () in
        let uncached = Engine.run sg (free ()) in
        let cold = Engine.run ~cache:(store_over dir) sg (free ()) in
        let warm_store = store_over dir in
        let warm = Engine.run ~cache:warm_store sg (free ()) in
        Alcotest.(check (list string))
          "cold = uncached" (report_lines uncached) (report_lines cold);
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        let st = Summary_store.stats warm_store in
        Alcotest.(check int)
          "warm run recomputes nothing" 0 st.Summary_store.roots_recomputed;
        Alcotest.(check bool)
          "warm run replays stored roots" true
          (st.Summary_store.roots_replayed > 0));
  ]

(* A root whose path count explodes, placed last so dropping it does not
   shift the healthy roots' output. *)
let explosion_src =
  "int f(int *p) { kfree(p); return *p; }\n\
   int h(int *r) { kfree(r); return *r; }\n"

let explode_fn =
  "int explode(int a, int b, int c, int d) {\n\
  \  int *p1; int *p2; int *p3; int *p4;\n\
  \  if (a) { kfree(p1); } if (b) { kfree(p2); }\n\
  \  if (c) { kfree(p3); } if (d) { kfree(p4); }\n\
  \  if (a) { b = 1; } if (b) { c = 1; } if (c) { d = 1; } if (d) { a = 1; }\n\
  \  return *p1 + *p2 + *p3 + *p4;\n\
   }\n"

let rollback_tests =
  [
    t "degraded root rolls back flat state at -j1/-j2" `Quick (fun () ->
        (* the engine tracks first-visit terminator annotations in a
           per-context bitset; rollback must clear the degraded root's
           bits (and annotations) so healthy roots' output is identical
           to a run that never had the bad root *)
        let options =
          { Engine.default_options with max_nodes_per_root = 40 }
        in
        let healthy = Engine.run (sg_of explosion_src) (free ()) in
        Alcotest.(check int) "baseline sanity" 0
          (List.length healthy.Engine.degraded);
        let faulty_sg = sg_of (explosion_src ^ explode_fn) in
        List.iter
          (fun jobs ->
            let r = Engine.run ~options ~jobs faulty_sg (free ()) in
            Alcotest.(check (list string))
              (Printf.sprintf "degraded root only (j=%d)" jobs)
              [ "explode" ]
              (List.map
                 (fun (d : Engine.degraded) -> d.Engine.d_root)
                 r.Engine.degraded);
            Alcotest.(check (list string))
              (Printf.sprintf "healthy roots identical (j=%d)" jobs)
              (report_lines healthy) (report_lines r))
          [ 1; 2 ]);
  ]

let suite =
  table_tests @ identity_tests @ rollback_tests
