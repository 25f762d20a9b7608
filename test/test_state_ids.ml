(* Hash-consed expression identity ([Exprid]) and integer-coded tuple
   state: ids are equality tokens for rendered keys (same id iff same
   [Cast.key_of_expr], for program and synthesized trees alike), the base
   table is shared read-only across domains, reports are byte-identical
   at any job count, warm caches replay across id numberings (stored
   summaries carry keys, not ids), and a degraded root's int-keyed state
   never reaches the run. *)

let t = Alcotest.test_case
let e s = Cparse.expr_of_string ~file:"<t>" s

let temp_dir () = Temp.dir "xgcc_test_state_ids"

let free () = [ Free_checker.checker () ]
let report_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports
let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"ids.c" src ]

let gen_tunits ~seed =
  Gen.generate_files ~seed ~n_files:3 ~funcs_per_file:8 ~bug_rate:0.5
  |> List.map (fun (file, g) -> Cparse.parse_tunit ~file g.Gen.source)

let gen_sg ~seed = Supergraph.build (gen_tunits ~seed)

let src =
  "int f(int *p, int a) {\n\
  \  int x = a + 1;\n\
  \  if (a) { kfree(p); }\n\
  \  return *p + x;\n\
   }\n"

(* A pool with both program expressions and synthesized trees, including
   the literal pair whose keys collided before contents were escaped. *)
let pool =
  [ "p"; "a"; "*p"; "a + 1"; "kfree(p)"; "q->f[2]"; "'a'"; "97";
    {|f("x\",s\"y")|}; {|f("x", "y")|} ]

let table_tests =
  [
    t "ids are key identity in both base and overflow ranges" `Quick
      (fun () ->
        (* the pool mixes keys of the program (base ids) with keys it
           never contains (overflow ids); each tree is freshly parsed, so
           every lookup goes through the rendered key, not the eid memo *)
        let sg = sg_of src in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        let base = Exprid.n sg.Supergraph.ids in
        Alcotest.(check bool) "both ranges exercised" true
          (List.exists (fun s -> Exprid.id ctx (e s) < base) pool
          && List.exists (fun s -> Exprid.id ctx (e s) >= base) pool);
        List.iter
          (fun s1 ->
            List.iter
              (fun s2 ->
                let e1 = e s1 and e2 = e s2 in
                Alcotest.(check bool)
                  (Printf.sprintf "id eq iff key eq: %s / %s" s1 s2)
                  (String.equal (Cast.key_of_expr e1) (Cast.key_of_expr e2))
                  (Exprid.id ctx e1 = Exprid.id ctx e2))
              pool)
          pool);
    t "ids round-trip to rendered keys" `Quick (fun () ->
        let sg = sg_of src in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        List.iter
          (fun s ->
            let ex = e s in
            let id = Exprid.id ctx ex in
            Alcotest.(check string)
              (Printf.sprintf "key of id: %s" s)
              (Cast.key_of_expr ex) (Exprid.key ctx id);
            Alcotest.(check (option string))
              (Printf.sprintf "find_key: %s" s)
              (Some (Cast.key_of_expr ex))
              (Exprid.find_key ctx id))
          pool;
        (* program nodes resolve through the dense base table *)
        Alcotest.(check bool) "program expr has base id" true
          (Exprid.id ctx (e "a + 1") < Exprid.n sg.Supergraph.ids));
    t "base ids are stable across domains" `Quick (fun () ->
        (* the base table is frozen by Supergraph.build and shared
           read-only: every worker domain's private ctx must assign a
           program expression the same id *)
        let sg = sg_of src in
        let ids_in_domain () =
          Domain.spawn (fun () ->
              let ctx = Exprid.make_ctx sg.Supergraph.ids in
              List.map (fun s -> Exprid.id ctx (e s)) pool)
        in
        let d1 = ids_in_domain () and d2 = ids_in_domain () in
        let v1 = Domain.join d1 and v2 = Domain.join d2 in
        let ctx = Exprid.make_ctx sg.Supergraph.ids in
        let v0 = List.map (fun s -> Exprid.id ctx (e s)) pool in
        List.iter2
          (fun (a, b) s ->
            (* overflow ids are context-private by design; base ids (all
               the program expressions) must agree everywhere *)
            if a < Exprid.n sg.Supergraph.ids || b < Exprid.n sg.Supergraph.ids
            then Alcotest.(check int) (Printf.sprintf "base id of %s" s) a b)
          (List.combine v0 v1) pool;
        List.iter2
          (fun (a, b) s ->
            if a < Exprid.n sg.Supergraph.ids || b < Exprid.n sg.Supergraph.ids
            then Alcotest.(check int) (Printf.sprintf "base id of %s (d2)" s) a b)
          (List.combine v1 v2) pool);
  ]

let identity_tests =
  [
    t "ids reports byte-identical at -j1/-j2" `Quick (fun () ->
        let sg = gen_sg ~seed:17 in
        let j1 = Engine.run sg (free ()) in
        let j2 = Engine.run ~jobs:2 sg (free ()) in
        Alcotest.(check (list string))
          "reports -j2 = -j1" (report_lines j1) (report_lines j2);
        Alcotest.(check (list (triple string int int)))
          "counters -j2 = -j1" j1.Engine.counters j2.Engine.counters);
    t "warm cache replays across the id-table boundary" `Quick (fun () ->
        (* base ids are private to one supergraph, so stored summaries
           must carry rendered keys, never ids: a store written over one
           id numbering has to replay verbatim over another numbering of
           the same program (here, the files in reverse order) *)
        let tunits = gen_tunits ~seed:19 in
        let sg = Supergraph.build tunits in
        let sg_rev = Supergraph.build (List.rev tunits) in
        let keys (sg : Supergraph.t) =
          let ctx = Exprid.make_ctx sg.Supergraph.ids in
          List.init (Exprid.n sg.Supergraph.ids) (Exprid.key ctx)
        in
        Alcotest.(check bool)
          "numberings differ" true
          (keys sg <> keys sg_rev);
        Alcotest.(check (list string))
          "same key set"
          (List.sort compare (keys sg))
          (List.sort compare (keys sg_rev));
        let store_over dir =
          Summary_store.create ~dir
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:[ "free" ])
            ()
        in
        let dir = temp_dir () in
        let uncached = Engine.run sg_rev (free ()) in
        let cold = Engine.run ~cache:(store_over dir) sg (free ()) in
        let warm_store = store_over dir in
        let warm = Engine.run ~cache:warm_store sg_rev (free ()) in
        Alcotest.(check (list string))
          "cold = uncached" (report_lines uncached) (report_lines cold);
        Alcotest.(check (list string))
          "warm = uncached" (report_lines uncached) (report_lines warm);
        let st = Summary_store.stats warm_store in
        Alcotest.(check int)
          "warm run recomputes nothing" 0 st.Summary_store.roots_recomputed;
        Alcotest.(check bool)
          "warm run replays roots written under the other numbering" true
          (st.Summary_store.roots_replayed > 0));
  ]

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
    t "degraded root rolls back int-keyed journals at -j1/-j2" `Quick
      (fun () ->
        (* report dedup and summary sources are keyed by interned ints;
           the degraded root's frame, which holds its entries, must be
           dropped whole, so healthy roots' output matches a run that
           never had the bad root *)
        let options = { Engine.default_options with max_nodes_per_root = 40 } in
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

let suite = table_tests @ identity_tests @ rollback_tests
