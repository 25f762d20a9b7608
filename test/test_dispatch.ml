(* Compiled transition dispatch: head-constructor classification, the
   pruned callsite model, and soundness of the compiled form — on every
   corpus, every transition whose pattern matches a node is among the
   node's candidates and the node's block is live — plus byte-identical
   output at any job count and through a warm persistent cache. *)

let t = Alcotest.test_case

let e s = Cparse.expr_of_string ~file:"<t>" s
let p s = Pattern.Pexpr (e s)

let v_hole = [ ("v", Holes.Any_pointer) ]

let temp_dir () = Temp.dir "xgcc_test_dispatch"

let sg_of src = Supergraph.build [ Cparse.parse_tunit ~file:"dispatch.c" src ]

let all_checkers () = List.map (fun ex -> ex.Registry.e_make ()) (Registry.all ())

(* emission-order lines: the contract is byte-identical output, not
   merely same-set *)
let output_lines (r : Engine.result) =
  List.map Report.to_string r.Engine.reports
  @ List.map
      (fun (rule, ex, cx) -> Printf.sprintf "%s %d %d" rule ex cx)
      r.Engine.counters

let shapes_of = function
  | Dispatch.Rooted { shapes; _ } -> List.map Block_heads.shape_name shapes
  | Dispatch.Wildcard -> Alcotest.fail "expected Rooted, got Wildcard"

let calls_of = function
  | Dispatch.Rooted { calls; _ } -> calls
  | Dispatch.Wildcard -> Alcotest.fail "expected Rooted, got Wildcard"

let is_wild = function Dispatch.Wildcard -> true | Dispatch.Rooted _ -> false

let classification_tests =
  [
    t "named call classifies by callee" `Quick (fun () ->
        let c = Dispatch.classify ~holes:v_hole (p "kfree(v)") in
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c);
        Alcotest.(check (list string)) "no shapes" [] (shapes_of c));
    t "deref pattern classifies as deref shape" `Quick (fun () ->
        let c = Dispatch.classify ~holes:v_hole (p "*v") in
        Alcotest.(check (list string)) "shapes" [ "deref" ] (shapes_of c));
    t "assignment-rooted pattern classifies as assign" `Quick (fun () ->
        let holes = [ ("v", Holes.Any_pointer); ("w", Holes.Any_expr) ] in
        let c = Dispatch.classify ~holes (p "v = w") in
        Alcotest.(check (list string)) "shapes" [ "assign" ] (shapes_of c));
    t "bare hole is a wildcard" `Quick (fun () ->
        Alcotest.(check bool) "wild" true
          (is_wild (Dispatch.classify ~holes:v_hole (p "v"))));
    t "disjunction unions heads across shapes" `Quick (fun () ->
        let c =
          Dispatch.classify ~holes:v_hole
            (Pattern.Por (p "*v", p "kfree(v)"))
        in
        Alcotest.(check (list string)) "shapes" [ "deref" ] (shapes_of c);
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c));
    t "callout-only pattern is a wildcard" `Quick (fun () ->
        Alcotest.(check bool) "wild" true
          (is_wild
             (Dispatch.classify ~holes:v_hole
                (Pattern.Pcallout (e "mc_is_ident(v)")))));
    t "conjunction with a callout narrows to the call" `Quick (fun () ->
        let c =
          Dispatch.classify ~holes:v_hole
            (Pattern.Pand (Pattern.Pcallout (e "mc_is_ident(v)"), p "kfree(v)"))
        in
        Alcotest.(check (list string)) "calls" [ "kfree" ] (calls_of c));
    t "any_fn_call hole matches any call but only calls" `Quick (fun () ->
        let holes =
          [ ("fn", Holes.Any_fn_call); ("args", Holes.Any_arguments) ]
        in
        match Dispatch.classify ~holes (p "fn(args)") with
        | Dispatch.Rooted { shapes; calls; any_call } ->
            Alcotest.(check (list string)) "no named calls" [] calls;
            Alcotest.(check bool) "any_call" true any_call;
            Alcotest.(check int) "no shapes" 0 (List.length shapes)
        | Dispatch.Wildcard -> Alcotest.fail "expected Rooted");
    t "never/end-of-path patterns can match no node" `Quick (fun () ->
        match Dispatch.classify ~holes:[] Pattern.Pend_of_path with
        | Dispatch.Rooted { shapes = []; calls = []; any_call = false } -> ()
        | _ -> Alcotest.fail "expected the empty Rooted classification");
  ]

let shape_walk_tests =
  [
    t "comma expression's value can come from a call" `Quick (fun () ->
        Alcotest.(check bool) "comma" true
          (Dispatch.expr_shape_is_call (e "(x, f(y))"));
        Alcotest.(check bool) "left call only" false
          (Dispatch.expr_shape_is_call (e "(f(y), x)")));
    t "conditional arms can come from a call" `Quick (fun () ->
        Alcotest.(check bool) "both arms" true
          (Dispatch.expr_shape_is_call (e "c ? f(x) : g(x)"));
        Alcotest.(check bool) "one arm suffices" true
          (Dispatch.expr_shape_is_call (e "c ? f(x) : y"));
        Alcotest.(check bool) "no arm" false
          (Dispatch.expr_shape_is_call (e "c ? x : y")));
    t "assign and cast chains look through to the call" `Quick (fun () ->
        Alcotest.(check bool) "assign of comma" true
          (Dispatch.expr_shape_is_call (e "p = (x, f(y))"));
        Alcotest.(check bool) "cast" true
          (Dispatch.expr_shape_is_call (e "(int *) f(y)"));
        Alcotest.(check bool) "binary is not a call" false
          (Dispatch.expr_shape_is_call (e "f(x) + 1")));
    t "call_model keeps call disjuncts, drops bare holes" `Quick (fun () ->
        match Dispatch.call_model (Pattern.Por (p "kfree(v)", p "v")) with
        | Some (Pattern.Pexpr ce) ->
            Alcotest.(check bool) "kept the call side" true
              (Dispatch.expr_shape_is_call ce)
        | _ -> Alcotest.fail "expected the call disjunct alone");
    t "call_model keeps conjunctions whole, drops non-calls" `Quick (fun () ->
        (match
           Dispatch.call_model
             (Pattern.Pand (Pattern.Pcallout (e "mc_is_ident(v)"), p "kfree(v)"))
         with
        | Some (Pattern.Pand _) -> ()
        | _ -> Alcotest.fail "expected the conjunction kept whole");
        Alcotest.(check bool) "deref does not model a call" true
          (Dispatch.call_model (p "*v") = None);
        Alcotest.(check bool) "comma-call models" true
          (Dispatch.pattern_models_call (p "(x, f(y))")))
  ]

(* The satellite-1 regression at the engine level: a bare hole sitting in
   a disjunction with a call pattern must not suppress following a
   defined callee. With zero tracked instances the [v.tracked] rule can
   never fire, so its [{ release(v) } || { v }] pattern must not count as
   modelling the call to [helper2] — the old prepass matched the full
   pattern (the bare hole matched anything) and never followed. *)
let bare_hole_checker =
  {|
sm baretest {
  state decl any_pointer v;

  start:
    { mark(v) } ==> v.tracked
  ;

  v.tracked:
    { release(v) } || { v } ==> v.stop
  ;
}
|}

let bare_hole_code =
  "void helper2(int *p) { kfree(p); }\n\
   int root(int *p) { helper2(p); return 0; }\n"

let regression_tests =
  [
    t "bare-hole disjunct does not suppress call following" `Quick (fun () ->
        let ext =
          match Metal_compile.load ~file:"baretest.metal" bare_hole_checker with
          | [ sm ] -> sm
          | _ -> Alcotest.fail "expected one sm"
        in
        Alcotest.(check int) "follows helper2" 1
          (Engine.run (sg_of bare_hole_code) [ ext ]).Engine.stats
            .Engine.calls_followed);
    t "skip sets leave end-of-path transitions alone" `Quick (fun () ->
        (* the leak checker's report fires at end of scope inside a block
           with no matchable node; skipping apply_transitions for such
           blocks must not lose it *)
        let src =
          "int leaky(int n) { int *p = kmalloc(n); if (n) { return 0; } \
           kfree(p); return 1; }"
        in
        let r = Engine.run (sg_of src) [ Leak_checker.checker () ] in
        Alcotest.(check (list string))
          "the leak report"
          [
            "dispatch.c:1:36: [leak_checker] allocation stored in p is never \
             freed (leak) (in leaky)";
          ]
          (List.map Report.to_string r.Engine.reports));
  ]

let corpora () =
  [
    ("fixture driver", Fixture_driver.files);
    ( "generated 30",
      [ ("gen30.c", (Gen.generate ~seed:11 ~n_funcs:30 ~bug_rate:0.4).Gen.source) ]
    );
    ("diamond", [ ("diamond.c", Synth.diamond_chain ~n:8) ]);
    ("call tree", [ ("tree.c", Synth.call_tree ~depth:3 ~fanout:3) ]);
    ("correlated", [ ("corr.c", Synth.correlated_branches ~n:4) ]);
    ("no-match heavy", [ ("nm.c", Synth.no_match_heavy ~n_funcs:10 ~stmts:16) ]);
    ("locks", [ ("locks.c", Synth.lock_workload ~n_funcs:12 ~bug_every:3) ]);
  ]

let sg_of_files files =
  Supergraph.build
    (List.map (fun (file, src) -> Cparse.parse_tunit ~file src) files)

(* The engine's match over-approximated: callouts (statically unknowable,
   compiled as wildcards) count as true, and no hole is pre-bound to an
   instance's target — the engine binds the state variable before
   matching a variable-source transition, which only narrows the match. *)
let rec without_callouts = function
  | Pattern.Pcallout _ -> Pattern.Palways
  | Pattern.Pand (a, b) -> Pattern.Pand (without_callouts a, without_callouts b)
  | Pattern.Por (a, b) -> Pattern.Por (without_callouts a, without_callouts b)
  | (Pattern.Pexpr _ | Pattern.Pend_of_path | Pattern.Pnever | Pattern.Palways)
    as p ->
      p

(* Soundness of the compiled form, checked against the pattern matcher
   directly: for every node event of every flat block, every transition
   that can match the node is among [Dispatch.candidates], and the block
   is not in the skip set. Returns the number of matches seen, so a
   corpus on which nothing matches cannot pass vacuously. *)
let check_candidates_cover ~corpus sg (ext : Sm.t) =
  let dsp = Dispatch.compile ~sg ext in
  let trs = Dispatch.transitions dsp in
  let flat = sg.Supergraph.flat in
  let matches = ref 0 in
  Hashtbl.iter
    (fun fname (cfg : Cfg.t) ->
      let typing = Ctyping.enter_function sg.Supergraph.typing cfg.Cfg.func in
      let base = Flat.fbase flat fname in
      for bid = 0 to Cfg.n_blocks cfg - 1 do
        let fb = base + bid in
        Array.iter
          (function
            | Flat.Ev_node node ->
                let ctx =
                  { Callout.typing; node = Some node; annots = (fun _ -> None) }
                in
                let cand = (Dispatch.candidates dsp node).Dispatch.b_trs in
                Array.iteri
                  (fun i (c : Dispatch.ctr) ->
                    if
                      c.Dispatch.c_matches_node
                      && Pattern.match_event ~ctx ~holes:c.Dispatch.c_holes
                           (without_callouts c.Dispatch.c_tr.Sm.tr_pattern)
                           (Pattern.At_node node)
                         <> None
                    then begin
                      incr matches;
                      let what =
                        Printf.sprintf "%s: %s transition %d at %s#%d (%s)"
                          corpus ext.Sm.sm_name i fname bid
                          (Cast.key_of_expr node)
                      in
                      Alcotest.(check bool) (what ^ " is a candidate") true
                        (Array.mem i cand);
                      Alcotest.(check bool) (what ^ ": block live") true
                        (Dispatch.block_live_flat dsp fb)
                    end)
                  trs
            | Flat.Ev_fresh _ | Flat.Ev_scope_end _ -> ())
          (Flat.events flat fb)
      done)
    sg.Supergraph.cfgs;
  !matches

let oracle_tests =
  [
    t "candidates cover every matching transition (all checkers)" `Quick
      (fun () ->
        List.iter
          (fun (name, files) ->
            let sg = sg_of_files files in
            let matches =
              List.fold_left
                (fun n ext -> n + check_candidates_cover ~corpus:name sg ext)
                0 (all_checkers ())
            in
            Alcotest.(check bool) (name ^ ": some node matched") true
              (matches > 0))
          (corpora ()));
    t "parallel output equals sequential output (all checkers)" `Quick
      (fun () ->
        let sg = sg_of_files Fixture_driver.files in
        let j1 = Engine.run sg (all_checkers ()) in
        let j2 = Engine.run ~jobs:2 sg (all_checkers ()) in
        Alcotest.(check (list string))
          "byte-identical output" (output_lines j1) (output_lines j2));
    t "index reduces match attempts on a no-match-heavy corpus" `Quick
      (fun () ->
        let sg = sg_of_files (List.assoc "no-match heavy" (corpora ())) in
        let st = (Engine.run sg (all_checkers ())).Engine.stats in
        Alcotest.(check bool)
          "some node's candidates narrower than a full scan" true
          (st.Engine.index_hits > 0);
        Alcotest.(check bool) "blocks skipped" true
          (st.Engine.blocks_skipped > 0));
    t "warm cache replay is identical to the cold run" `Quick (fun () ->
        let files = List.assoc "generated 30" (corpora ()) in
        let dir = temp_dir () in
        let run () =
          let cache =
            Summary_store.create ~dir
              ~ext_keys:
                (Summary_store.ext_keys_of
                   ~options_digest:
                     (Engine.options_digest Engine.default_options)
                   ~sources:[ "free" ])
              ()
          in
          output_lines
            (Engine.run ~cache (sg_of_files files) [ Free_checker.checker () ])
        in
        let cold = run () in
        let warm = run () in
        Alcotest.(check (list string)) "warm = cold" cold warm);
  ]

let suite =
  classification_tests @ shape_walk_tests @ regression_tests @ oracle_tests
