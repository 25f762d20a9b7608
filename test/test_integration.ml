(* Whole-system integration tests over the hand-written driver corpus
   (see fixture_driver.ml for the bug inventory). *)

let t = Alcotest.test_case

let run_all () =
  let sg = Fixture_driver.supergraph () in
  let checkers =
    [
      Pathkill.checker ();
      Free_checker.checker ();
      Lock_checker.checker ();
      Intr_checker.checker ();
      Security_checker.checker ();
      Null_checker.checker ();
      Leak_checker.checker ();
    ]
  in
  Engine.run sg checkers

let reports_in result func =
  List.filter (fun (r : Report.t) -> String.equal r.Report.func func)
    result.Engine.reports

let checkers_in result func =
  List.sort_uniq String.compare
    (List.map (fun (r : Report.t) -> r.Report.checker) (reports_in result func))

let suite =
  [
    t "B1: double free in rb_destroy" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) ->
               String.equal x.Report.checker "free_checker"
               && String.equal x.Report.func "rb_destroy")
             r.Engine.reports));
    t "B2: use-after-free through the release helper" `Quick (fun () ->
        let r = run_all () in
        let reps = reports_in r "rb_grow" in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) -> String.equal x.Report.checker "free_checker")
             reps));
    t "B3: unvalidated user pointer in dev_ioctl" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check (list string)) "checker" [ "user_pointer_checker" ]
          (checkers_in r "dev_ioctl"));
    t "B4: lock leak in dev_write" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) ->
               String.equal x.Report.checker "lock_checker"
               && String.equal x.Report.func "dev_write")
             r.Engine.reports));
    t "B5: interrupts left disabled in dev_read" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) ->
               String.equal x.Report.checker "intr_checker"
               && String.equal x.Report.func "dev_read")
             r.Engine.reports));
    t "B6: unchecked wrapper allocation in task_spawn" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) ->
               String.equal x.Report.checker "null_checker"
               && String.equal x.Report.func "task_spawn")
             r.Engine.reports));
    t "B7: leak on the full-queue path" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "found" true
          (List.exists
             (fun (x : Report.t) ->
               String.equal x.Report.checker "leak_checker"
               && String.equal x.Report.func "queue_push")
             r.Engine.reports));
    t "B8: leak on sched_tick's mode=0 path" `Quick (fun () ->
        let r = run_all () in
        Alcotest.(check (list string)) "only the leak" [ "leak_checker" ]
          (checkers_in r "sched_tick"));
    t "non-bugs stay clean (N1, N2, N3, N5)" `Quick (fun () ->
        let r = run_all () in
        List.iter
          (fun func ->
            Alcotest.(check (list string)) (func ^ " clean") [] (checkers_in r func))
          [ "rb_put"; "dev_open"; "dev_close"; "task_spawn_checked" ]);
    t "N4: the free checker is silent on sched_tick (infeasible path)" `Quick
      (fun () ->
        let r = run_all () in
        Alcotest.(check bool) "no free report" true
          (not
             (List.exists
                (fun (x : Report.t) ->
                  String.equal x.Report.func "sched_tick"
                  && String.equal x.Report.checker "free_checker")
                r.Engine.reports)));
    t "every report names a buggy function (no stray FPs)" `Quick (fun () ->
        let r = run_all () in
        let buggy =
          [
            "rb_destroy"; "rb_grow"; "dev_ioctl"; "dev_write"; "dev_read";
            "task_spawn"; "queue_push"; "sched_tick";
            (* helpers the buggy flows pass through *)
            "slots_release"; "task_alloc"; "rb_init";
          ]
        in
        List.iter
          (fun (x : Report.t) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s in buggy set (%s: %s)" x.Report.func x.Report.checker
                 x.Report.message)
              true
              (List.mem x.Report.func buggy))
          r.Engine.reports);
    t "severity ranking puts the SECURITY bug first" `Quick (fun () ->
        let r = run_all () in
        match Rank.generic_sort r.Engine.reports with
        | top :: _ -> Alcotest.(check string) "top" "dev_ioctl" top.Report.func
        | [] -> Alcotest.fail "no reports");
    t "history: second run on same corpus is fully suppressed" `Quick (fun () ->
        let r1 = run_all () in
        let db = History.of_reports r1.Engine.reports in
        let r2 = run_all () in
        let fresh, suppressed = History.suppress db r2.Engine.reports in
        Alcotest.(check int) "all suppressed" 0 (List.length fresh);
        Alcotest.(check int) "count" (List.length r2.Engine.reports) suppressed);
    t "corpus survives the .mcast round trip with identical findings" `Quick
      (fun () ->
        let direct = run_all () in
        let tus =
          List.map
            (fun (name, src) ->
              match
                Cast_io.read_string
                  (Cast_io.emit_string (Cparse.parse_tunit ~file:name src))
              with
              | Ok tu -> tu
              | Error e -> Alcotest.fail e)
            Fixture_driver.files
        in
        let sg = Supergraph.build tus in
        let roundtrip =
          Engine.run sg
            [
              Pathkill.checker (); Free_checker.checker (); Lock_checker.checker ();
              Intr_checker.checker (); Security_checker.checker ();
              Null_checker.checker (); Leak_checker.checker ();
            ]
        in
        let key (x : Report.t) = (x.Report.checker, x.Report.func, x.Report.message) in
        Alcotest.(check int) "same count"
          (List.length direct.Engine.reports)
          (List.length roundtrip.Engine.reports);
        Alcotest.(check bool) "same set" true
          (List.sort compare (List.map key direct.Engine.reports)
          = List.sort compare (List.map key roundtrip.Engine.reports)));
    t "json output over the corpus is well-formed-ish" `Quick (fun () ->
        let r = run_all () in
        let js = Json_out.reports_to_string r.Engine.reports in
        Alcotest.(check bool) "array" true (js.[0] = '[');
        let opens = ref 0 and closes = ref 0 in
        String.iter
          (fun c ->
            if c = '{' then incr opens;
            if c = '}' then incr closes)
          js;
        Alcotest.(check int) "balanced objects" !opens !closes);
  ]
