(* The builtin callout library, exercised directly. *)

let t = Alcotest.test_case
let e s = Cparse.expr_of_string ~file:"<t>" s

let typing =
  Ctyping.of_program
    [ Cparse.parse_tunit ~file:"<t>" "int i; int *ip; struct s { int f; } sv;" ]

let ctx ?(annots = fun _ -> None) node = { Callout.typing; node; annots }

let call name args node =
  match Callout.lookup name with
  | Some fn -> fn (ctx node) args
  | None -> Alcotest.fail ("missing builtin " ^ name)

let vb = function Callout.Vbool b -> b | v -> Callout.truthy v

let suite =
  [
    t "mc_is_call_to on calls and names" `Quick (fun () ->
        Alcotest.(check bool) "call node" true
          (vb (call "mc_is_call_to" [ Callout.Vast (e "gets(s)"); Callout.Vstr "gets" ] None));
        Alcotest.(check bool) "bare name" true
          (vb (call "mc_is_call_to" [ Callout.Vast (e "gets"); Callout.Vstr "gets" ] None));
        Alcotest.(check bool) "wrong name" false
          (vb (call "mc_is_call_to" [ Callout.Vast (e "puts(s)"); Callout.Vstr "gets" ] None)));
    t "mc_identifier prints source" `Quick (fun () ->
        match call "mc_identifier" [ Callout.Vast (e "p->next[2]") ] None with
        | Callout.Vstr s -> Alcotest.(check string) "printed" "p->next[2]" s
        | _ -> Alcotest.fail "expected string");
    t "mc_is_constant / mc_constant_value" `Quick (fun () ->
        Alcotest.(check bool) "const" true
          (vb (call "mc_is_constant" [ Callout.Vast (e "3 * 4") ] None));
        Alcotest.(check bool) "non-const" false
          (vb (call "mc_is_constant" [ Callout.Vast (e "x + 1") ] None));
        match call "mc_constant_value" [ Callout.Vast (e "3 * 4") ] None with
        | Callout.Vint 12L -> ()
        | _ -> Alcotest.fail "expected 12");
    t "mc_is_pointer / mc_is_scalar use the typing env" `Quick (fun () ->
        Alcotest.(check bool) "ip pointer" true
          (vb (call "mc_is_pointer" [ Callout.Vast (e "ip") ] None));
        Alcotest.(check bool) "i not pointer" false
          (vb (call "mc_is_pointer" [ Callout.Vast (e "i") ] None));
        Alcotest.(check bool) "sv not scalar" false
          (vb (call "mc_is_scalar" [ Callout.Vast (e "sv") ] None)));
    t "mc_num_args / mc_nth_arg" `Quick (fun () ->
        let args = Callout.Vargs [ e "a"; e "b"; e "c" ] in
        (match call "mc_num_args" [ args ] None with
        | Callout.Vint 3L -> ()
        | _ -> Alcotest.fail "expected 3");
        match call "mc_nth_arg" [ args; Callout.Vint 1L ] None with
        | Callout.Vast b -> Alcotest.(check string) "b" "b" (Cprint.expr_to_string b)
        | _ -> Alcotest.fail "expected ast");
    t "mc_nth_arg out of range" `Quick (fun () ->
        match call "mc_nth_arg" [ Callout.Vargs [ e "a" ]; Callout.Vint 5L ] None with
        | Callout.Vunit -> ()
        | _ -> Alcotest.fail "expected unit");
    t "mc_contains" `Quick (fun () ->
        Alcotest.(check bool) "found" true
          (vb (call "mc_contains" [ Callout.Vast (e "f(a + b)"); Callout.Vast (e "b") ] None));
        Alcotest.(check bool) "absent" false
          (vb (call "mc_contains" [ Callout.Vast (e "f(a)"); Callout.Vast (e "b") ] None)));
    t "mc_derefs shapes" `Quick (fun () ->
        let v = Callout.Vast (e "p") in
        Alcotest.(check bool) "*p" true
          (vb (call "mc_derefs" [ Callout.Vast (e "*p"); v ] None));
        Alcotest.(check bool) "p->f" true
          (vb (call "mc_derefs" [ Callout.Vast (e "p->f"); v ] None));
        Alcotest.(check bool) "p[i]" true
          (vb (call "mc_derefs" [ Callout.Vast (e "p[i]"); v ] None));
        Alcotest.(check bool) "q->f" false
          (vb (call "mc_derefs" [ Callout.Vast (e "q->f"); v ] None));
        Alcotest.(check bool) "p alone" false
          (vb (call "mc_derefs" [ Callout.Vast (e "p"); v ] None)));
    t "mc_is_ident" `Quick (fun () ->
        Alcotest.(check bool) "ident" true
          (vb (call "mc_is_ident" [ Callout.Vast (e "x") ] None));
        Alcotest.(check bool) "field path" false
          (vb (call "mc_is_ident" [ Callout.Vast (e "x->f") ] None)));
    t "mc_annotated via explicit node and mc_stmt" `Quick (fun () ->
        let node = e "panic()" in
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace tbl node.Cast.eid [ "sealed" ];
        let c = ctx ~annots:(Hashtbl.find_opt tbl) (Some node) in
        let fn = Option.get (Callout.lookup "mc_annotated") in
        Alcotest.(check bool) "explicit" true
          (vb (fn c [ Callout.Vast node; Callout.Vstr "sealed" ]));
        Alcotest.(check bool) "implicit mc_stmt form" true
          (vb (fn c [ Callout.Vstr "sealed" ]));
        Alcotest.(check bool) "other tag" false
          (vb (fn c [ Callout.Vstr "other" ])));
    t "mc_name_contains" `Quick (fun () ->
        Alcotest.(check bool) "substring" true
          (vb
             (call "mc_name_contains"
                [ Callout.Vast (e "spin_lock_irq(x)"); Callout.Vstr "lock" ]
                None));
        Alcotest.(check bool) "absent" false
          (vb
             (call "mc_name_contains"
                [ Callout.Vast (e "mutex_init(x)"); Callout.Vstr "lock" ]
                None)));
    t "registry names are sorted and complete" `Quick (fun () ->
        let names = Callout.names () in
        Alcotest.(check bool) "sorted" true
          (names = List.sort String.compare names);
        List.iter
          (fun n -> Alcotest.(check bool) n true (List.mem n names))
          [
            "mc_is_call_to"; "mc_identifier"; "mc_is_constant"; "mc_constant_value";
            "mc_is_pointer"; "mc_is_scalar"; "mc_num_args"; "mc_nth_arg";
            "mc_contains"; "mc_annotated"; "mc_derefs"; "mc_is_ident";
            "mc_name_contains";
          ]);
    t "truthiness rules" `Quick (fun () ->
        Alcotest.(check bool) "Vbool" true (Callout.truthy (Callout.Vbool true));
        Alcotest.(check bool) "zero int" false (Callout.truthy (Callout.Vint 0L));
        Alcotest.(check bool) "nonzero" true (Callout.truthy (Callout.Vint 2L));
        Alcotest.(check bool) "empty string" false (Callout.truthy (Callout.Vstr ""));
        Alcotest.(check bool) "unit" false (Callout.truthy Callout.Vunit);
        Alcotest.(check bool) "ast" true (Callout.truthy (Callout.Vast (e "x"))));
  ]
