(* Property: whole functions survive print → reparse, and the engine sees
   the same program either way. The statement generator covers every
   statement form the CFG builder lowers. *)

module G = QCheck2.Gen

let var_gen = G.map (fun c -> Printf.sprintf "v%c" c) (G.char_range 'a' 'e')

(* Char and string literals draw from every byte, so the printer's
   escapes (named, and octal for the rest) must reparse to the same
   bytes. *)
let leaf_expr_gen =
  G.oneof
    [
      G.map (fun n -> Cast.intlit (Int64.of_int (abs n mod 100))) G.small_int;
      G.map Cast.ident var_gen;
      G.map (fun c -> Cast.mk_expr (Cast.Echar c)) G.char;
      G.map
        (fun s -> Cast.mk_expr (Cast.Estr s))
        (G.string_size ~gen:G.char (G.int_range 0 6));
    ]

let expr_gen =
  G.(
    sized @@ fix (fun self n ->
        if n <= 1 then leaf_expr_gen
        else
          oneof
            [
              leaf_expr_gen;
              map2
                (fun l r -> Cast.mk_expr (Cast.Ebinary (Cast.Add, l, r)))
                (self (n / 2)) (self (n / 2));
              map2
                (fun l r -> Cast.mk_expr (Cast.Ebinary (Cast.Lt, l, r)))
                (self (n / 2)) (self (n / 2));
              map
                (fun e -> Cast.mk_expr (Cast.Ecall (Cast.ident "g", [ e ])))
                (self (n - 1));
              map2
                (fun x r -> Cast.mk_expr (Cast.Eassign (None, Cast.ident x, r)))
                var_gen (self (n - 1));
            ]))

let stmt_gen =
  G.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun e -> Cast.mk_stmt (Cast.Sexpr e)) expr_gen;
              map (fun e -> Cast.mk_stmt (Cast.Sreturn (Some e))) expr_gen;
              return (Cast.mk_stmt Cast.Snull);
            ]
        in
        if n <= 1 then leaf
        else
          oneof
            [
              leaf;
              map2
                (fun c t -> Cast.mk_stmt (Cast.Sif (c, t, None)))
                expr_gen (self (n / 2));
              map3
                (fun c t e -> Cast.mk_stmt (Cast.Sif (c, t, Some e)))
                expr_gen (self (n / 2)) (self (n / 2));
              map2
                (fun c b -> Cast.mk_stmt (Cast.Swhile (c, b)))
                expr_gen (self (n / 2));
              map2
                (fun b c -> Cast.mk_stmt (Cast.Sdo (b, c)))
                (self (n / 2)) expr_gen;
              map
                (fun ss -> Cast.mk_stmt (Cast.Sblock ss))
                (list_size (int_range 1 3) (self (n / 3)));
              map2
                (fun g b ->
                  Cast.mk_stmt
                    (Cast.Sswitch
                       ( Cast.ident "va",
                         [
                           { Cast.case_guard = Some (Int64.of_int (abs g mod 10)); case_body = [ b ] };
                           { Cast.case_guard = None; case_body = [ Cast.mk_stmt Cast.Sbreak ] };
                         ] )))
                small_int (self (n / 2));
            ]))

(* The printer renders a function body from a block; wrap the statement. *)
let fundef_of_stmt s =
  {
    Cast.fname = "rt_fn";
    freturn = Ctyp.int_;
    fparams = [ ("va", Ctyp.int_); ("vb", Ctyp.int_); ("vc", Ctyp.int_);
                ("vd", Ctyp.int_); ("ve", Ctyp.int_) ];
    fvariadic = false;
    fbody = Cast.mk_stmt (Cast.Sblock [ s; Cast.mk_stmt (Cast.Sreturn (Some (Cast.intlit 0L))) ]);
    floc = Srcloc.dummy;
    ffile = "rt.c";
    fstatic = false;
  }

(* The printer may brace a then-branch to avoid the dangling-else trap;
   compare modulo singleton-block wrapping. *)
let rec normalize (s : Cast.stmt) : Cast.stmt =
  let mk = Cast.mk_stmt in
  match s.snode with
  | Cast.Sblock [ s1 ] -> normalize s1
  | Cast.Sblock ss -> mk (Cast.Sblock (List.map normalize ss))
  | Cast.Sif (c, t, e) -> mk (Cast.Sif (c, normalize t, Option.map normalize e))
  | Cast.Swhile (c, b) -> mk (Cast.Swhile (c, normalize b))
  | Cast.Sdo (b, c) -> mk (Cast.Sdo (normalize b, c))
  | Cast.Sfor (i, c, st, b) ->
      mk (Cast.Sfor (Option.map normalize i, c, st, normalize b))
  | Cast.Sswitch (e, cases) ->
      mk
        (Cast.Sswitch
           ( e,
             List.map
               (fun (cs : Cast.case) ->
                 { cs with Cast.case_body = List.map normalize cs.case_body })
               cases ))
  | Cast.Slabel (l, b) -> mk (Cast.Slabel (l, normalize b))
  | _ -> s

let roundtrip_stmt =
  QCheck2.Test.make ~name:"function print/reparse round-trip" ~count:300 stmt_gen
    (fun s ->
      let f = fundef_of_stmt s in
      let printed = Format.asprintf "%a" Cprint.pp_fundef f in
      match (Cparse.parse_tunit ~file:"rt.c" printed).Cast.tu_globals with
      | [ Cast.Gfun f2 ] ->
          Cast.equal_stmt (normalize f.Cast.fbody) (normalize f2.Cast.fbody)
      | _ -> false)

let engine_agrees =
  (* print/reparse must not change what the engine computes *)
  QCheck2.Test.make ~name:"engine results stable under reprinting" ~count:60
    QCheck2.Gen.(int_range 1 10000)
    (fun seed ->
      let g = Gen.generate ~seed ~n_funcs:5 ~bug_rate:0.6 in
      let tu = Cparse.parse_tunit ~file:"g.c" g.Gen.source in
      let printed = Cprint.tunit_to_string tu in
      let tu2 = Cparse.parse_tunit ~file:"g2.c" printed in
      let reports tu =
        List.sort compare
          (List.map
             (fun (r : Report.t) -> (r.Report.func, r.Report.checker, r.Report.message))
             (Engine.run (Supergraph.build [ tu ])
                [ Free_checker.checker (); Lock_checker.checker ();
                  Intr_checker.checker () ])
               .Engine.reports)
      in
      reports tu = reports tu2)

let suite =
  [ QCheck_alcotest.to_alcotest roundtrip_stmt; QCheck_alcotest.to_alcotest engine_agrees ]
