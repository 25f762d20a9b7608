(* The work-stealing parallel scheduler and the shared summary-unit
   store: Pool.run_sched semantics (priority order, stealing, spawn
   degradation), and the engine-level contract on the uneven-cost
   corpus — byte-identical reports at any -j, every shared unit
   computed exactly once (recompute counter pinned at 0), and the
   deterministic stats subset independent of the job count. *)

let t = Alcotest.test_case

exception Boom

let checkers () =
  [
    Free_checker.checker ();
    Lock_checker.checker ();
    Null_checker.checker ();
    Leak_checker.checker ();
  ]

(* 12 uneven roots (root6 is 50x the others) over a diamond callgraph
   (root -> mid_a/mid_b -> hub) with one hot shared leaf. *)
let sched_sg ?(heavy = 150) () =
  let src = Synth.sched_corpus ~n_roots:12 ~light:3 ~heavy in
  Supergraph.build [ Cparse.parse_tunit ~file:"sched.c" src ]

(* raw emission order, not ranked: the merge contract is byte-identity
   with the sequential run, which is stronger than rank-equality *)
let raw_lines (r : Engine.result) = List.map Report.to_string r.Engine.reports

(* every stats field, named; [timing] excludes the two fields the
   scheduler is allowed to vary between runs (steals, waits) *)
let stats_fields ~timing (st : Engine.stats) =
  [
    ("blocks_visited", st.Engine.blocks_visited);
    ("nodes_visited", st.Engine.nodes_visited);
    ("cache_hits", st.Engine.cache_hits);
    ("paths_explored", st.Engine.paths_explored);
    ("calls_followed", st.Engine.calls_followed);
    ("summary_hits", st.Engine.summary_hits);
    ("pruned_branches", st.Engine.pruned_branches);
    ("transitions_fired", st.Engine.transitions_fired);
    ("instances_created", st.Engine.instances_created);
    ("functions_traversed", st.Engine.functions_traversed);
    ("cache_probes", st.Engine.cache_probes);
    ("intern_atoms", st.Engine.intern_atoms);
    ("intern_tuples", st.Engine.intern_tuples);
    ("match_attempts", st.Engine.match_attempts);
    ("index_hits", st.Engine.index_hits);
    ("blocks_skipped", st.Engine.blocks_skipped);
    ("shared_published", st.Engine.shared_published);
    ("shared_replayed", st.Engine.shared_replayed);
    ("shared_recomputed", st.Engine.shared_recomputed);
  ]
  @
  if timing then
    [
      ("sched_steals", st.Engine.sched_steals);
      ("sched_waits", st.Engine.sched_waits);
    ]
  else []

let degraded_pairs (r : Engine.result) =
  List.map (fun (d : Engine.degraded) -> (d.Engine.d_root, d.Engine.d_reason)) r.Engine.degraded

(* capture Diag warnings for the duration of [f] *)
let with_diag_capture f =
  let lines = ref [] in
  let old = !Diag.sink in
  Diag.sink := (fun s -> lines := s :: !lines);
  Fun.protect ~finally:(fun () -> Diag.sink := old) (fun () ->
      let r = f () in
      (r, List.rev !lines))

let failing_spawn _ = failwith "simulated spawn failure"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------ *)
(* The pool's lifetime                                           *)
(* ------------------------------------------------------------ *)

(* A [Domain.spawn] that counts its calls. *)
let counting_spawn () =
  let n = Atomic.make 0 in
  ((fun f -> Atomic.incr n; Domain.spawn f), n)

(* A job whose every task waits until each of the [jobs] workers has
   claimed one (or 10 s pass), so it completes quickly only if every
   helper is alive and serving; returns the workers seen. *)
let all_workers_job p ~jobs =
  let seen = Array.init jobs (fun _ -> Atomic.make false) in
  let deadline = Unix.gettimeofday () +. 10. in
  let results, st =
    Pool.sched p (2 * jobs) (fun ~worker i ->
        Atomic.set seen.(worker) true;
        while
          (not (Array.for_all Atomic.get seen))
          && Unix.gettimeofday () < deadline
        do
          Domain.cpu_relax ()
        done;
        i)
  in
  Array.iteri
    (fun i r -> Alcotest.(check bool) (Printf.sprintf "slot %d" i) true (r = Ok i))
    results;
  (Array.to_list (Array.map Atomic.get seen), st)

(* The id the next spawned domain gets: domain ids are never reused. *)
let next_domain_id () = (Domain.join (Domain.spawn Domain.self) :> int)

let pool_lifetime_tests =
  [
    t "one pool serves five jobs on jobs - 1 helpers" `Quick (fun () ->
        let spawn, spawned = counting_spawn () in
        let jobs = 3 in
        Pool.with_pool ~spawn ~jobs (fun p ->
            Alcotest.(check int) "helpers spawned up front" (jobs - 1)
              (Atomic.get spawned);
            for k = 0 to 4 do
              let results, st =
                Pool.sched p 12 (fun ~worker:_ i -> (k * 100) + i)
              in
              Array.iteri
                (fun i r ->
                  Alcotest.(check bool) "slot" true (r = Ok ((k * 100) + i)))
                results;
              Alcotest.(check int) "workers" jobs st.Pool.workers;
              Alcotest.(check int) "spawn_failures" 0 st.Pool.spawn_failures
            done;
            let seen, _ = all_workers_job p ~jobs in
            Alcotest.(check (list bool)) "every helper served" [ true; true; true ] seen);
        Alcotest.(check int) "spawns in all" (jobs - 1) (Atomic.get spawned));
    t "a task that raises leaves the helpers serving the next job" `Quick
      (fun () ->
        let spawn, spawned = counting_spawn () in
        let jobs = 3 in
        Pool.with_pool ~spawn ~jobs (fun p ->
            for k = 0 to 4 do
              if k = 2 then begin
                let results, st =
                  Pool.sched p 12 (fun ~worker:_ i ->
                      if i mod 4 = 1 then raise Boom else i)
                in
                Array.iteri
                  (fun i r ->
                    Alcotest.(check bool) (Printf.sprintf "slot %d" i) true
                      (r = if i mod 4 = 1 then Error Boom else Ok i))
                  results;
                Alcotest.(check int) "workers in the failing job" jobs
                  st.Pool.workers
              end
              else begin
                let seen, st = all_workers_job p ~jobs in
                Alcotest.(check (list bool))
                  (Printf.sprintf "job %d: every helper served" k)
                  [ true; true; true ] seen;
                Alcotest.(check int) "workers" jobs st.Pool.workers
              end
            done);
        Alcotest.(check int) "spawns in all" (jobs - 1) (Atomic.get spawned));
    t "Engine.run spawns jobs - 1 domains per run, not per extension" `Quick
      (fun () ->
        let sg = sched_sg () in
        let exts = checkers () in
        let before = next_domain_id () in
        ignore (Engine.run ~jobs:3 sg exts);
        let after = next_domain_id () in
        Alcotest.(check int)
          (Printf.sprintf "domains spawned by one run over %d extensions"
             (List.length exts))
          2
          (after - before - 1);
        let before = next_domain_id () in
        (* memory-only: the directory is never created *)
        let store =
          Summary_store.create
            ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "xgcc-pool-unused")
            ~persist:false ~memory:true
            ~ext_keys:
              (Summary_store.ext_keys_of
                 ~options_digest:(Engine.options_digest Engine.default_options)
                 ~sources:(List.map (fun (e : Sm.t) -> e.Sm.sm_name) exts))
            ()
        in
        ignore (Engine.run ~jobs:3 ~cache:store sg exts);
        let after = next_domain_id () in
        Alcotest.(check int) "cached run" 2 (after - before - 1));
  ]

let suite =
  [
    (* ------------------------------------------------------------ *)
    (* Pool.run_sched primitive                                      *)
    (* ------------------------------------------------------------ *)
    t "run_sched returns results in index order" `Quick (fun () ->
        let results, _ = Pool.run_sched ~jobs:4 20 (fun ~worker:_ i -> i * i) in
        Array.iteri
          (fun i r ->
            match r with
            | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v
            | Error e -> Alcotest.failf "slot %d raised %s" i (Printexc.to_string e))
          results;
        Alcotest.(check int) "all slots" 20 (Array.length results));
    t "run_sched runs every task exactly once under a permuted order" `Quick
      (fun () ->
        let n = 48 in
        (* reverse priority: last index first *)
        let order = Array.init n (fun k -> n - 1 - k) in
        let hits = Array.make n 0 in
        let results, _ =
          Pool.run_sched ~jobs:4 ~order n (fun ~worker:_ i ->
              hits.(i) <- hits.(i) + 1;
              i)
        in
        Alcotest.(check (array int)) "once each" (Array.make n 1) hits;
        Array.iteri
          (fun i r -> Alcotest.(check bool) "ok" true (r = Ok i))
          results);
    t "run_sched inline at jobs=1 respects the priority order" `Quick
      (fun () ->
        let trace = ref [] in
        let order = [| 3; 0; 2; 1 |] in
        let results, st =
          Pool.run_sched ~jobs:1 ~order 4 (fun ~worker i ->
              trace := i :: !trace;
              Alcotest.(check int) "inline worker id" 0 worker;
              i * 10)
        in
        Alcotest.(check (list int)) "executed in order" [ 3; 0; 2; 1 ]
          (List.rev !trace);
        Alcotest.(check int) "workers" 1 st.Pool.workers;
        Alcotest.(check int) "stolen" 0 st.Pool.stolen;
        Array.iteri
          (fun i r -> Alcotest.(check bool) "slot" true (r = Ok (i * 10)))
          results);
    t "run_sched isolates a crashing task to its own slot" `Quick (fun () ->
        let results, _ =
          Pool.run_sched ~jobs:4 16 (fun ~worker:_ i ->
              if i = 7 then raise Boom else i)
        in
        Array.iteri
          (fun i r ->
            if i = 7 then
              Alcotest.(check bool) "slot 7 errored" true (r = Error Boom)
            else Alcotest.(check bool) (Printf.sprintf "slot %d ok" i) true (r = Ok i))
          results);
    t "run_sched degrades when no worker domain can spawn" `Quick (fun () ->
        (* all spawns fail: the calling domain must drain its own deque
           (indices 0,4 under default striping at nw=4) and steal the
           other three deques' six tasks *)
        let (results, st), diags =
          with_diag_capture (fun () ->
              Pool.run_sched ~spawn:failing_spawn ~jobs:4 8 (fun ~worker i ->
                  Alcotest.(check int) "only worker 0 runs" 0 worker;
                  i))
        in
        Array.iteri
          (fun i r -> Alcotest.(check bool) "completed" true (r = Ok i))
          results;
        Alcotest.(check int) "workers" 1 st.Pool.workers;
        Alcotest.(check int) "spawn_failures" 3 st.Pool.spawn_failures;
        Alcotest.(check int) "orphaned deques drained by stealing" 6
          st.Pool.stolen;
        Alcotest.(check bool) "one spawn warning" true
          (List.exists (contains ~affix:"Domain.spawn failed") diags));
    t "Pool.run and run_results degrade on spawn failure too" `Quick
      (fun () ->
        let (r1, diags) =
          with_diag_capture (fun () ->
              Pool.run ~spawn:failing_spawn ~jobs:4 16 (fun i -> i + 1))
        in
        Alcotest.(check (array int)) "run results"
          (Array.init 16 (fun i -> i + 1))
          r1;
        Alcotest.(check bool) "warned" true (diags <> []);
        let (r2, _) =
          with_diag_capture (fun () ->
              Pool.run_results ~spawn:failing_spawn ~jobs:4 9 (fun i -> i * 3))
        in
        Array.iteri
          (fun i r -> Alcotest.(check bool) "ok" true (r = Ok (i * 3)))
          r2);
    (* ------------------------------------------------------------ *)
    (* Engine contract on the scheduler corpus                       *)
    (* ------------------------------------------------------------ *)
    t "sched corpus: reports byte-identical at -j1/2/4" `Quick (fun () ->
        let sg = sched_sg () in
        let seq = Engine.run ~jobs:1 sg (checkers ()) in
        Alcotest.(check bool) "corpus produces reports" true
          (List.length seq.Engine.reports > 0);
        List.iter
          (fun jobs ->
            let par = Engine.run ~jobs sg (checkers ()) in
            Alcotest.(check (list string))
              (Printf.sprintf "raw report lines, -j%d" jobs)
              (raw_lines seq) (raw_lines par);
            Alcotest.(check (list (triple string int int)))
              (Printf.sprintf "counters, -j%d" jobs)
              seq.Engine.counters par.Engine.counters)
          [ 2; 4 ]);
    t "sched corpus: shared units are computed exactly once" `Quick (fun () ->
        let sg = sched_sg () in
        let seq = Engine.run ~jobs:1 sg (checkers ()) in
        Alcotest.(check int) "sequential publishes nothing" 0
          seq.Engine.stats.Engine.shared_published;
        Alcotest.(check int) "sequential replays nothing" 0
          seq.Engine.stats.Engine.shared_replayed;
        let par = Engine.run ~jobs:4 sg (checkers ()) in
        let st = par.Engine.stats in
        Alcotest.(check bool) "units were shared" true
          (st.Engine.shared_published > 0);
        Alcotest.(check bool) "every publication replayed at least once" true
          (st.Engine.shared_replayed >= st.Engine.shared_published);
        (* the acceptance tripwire: nothing analysed twice, at any -j *)
        Alcotest.(check int) "recompute counter (-j4)" 0
          st.Engine.shared_recomputed;
        let par2 = Engine.run ~jobs:2 sg (checkers ()) in
        Alcotest.(check int) "recompute counter (-j2)" 0
          par2.Engine.stats.Engine.shared_recomputed);
    t "sched corpus: deterministic stats subset matches -j1" `Quick (fun () ->
        let sg = sched_sg () in
        let seq = Engine.run ~jobs:1 sg (checkers ()) in
        let par = Engine.run ~jobs:4 sg (checkers ()) in
        (* reports, counters, coverage and degradation are scheduling-
           independent AND mode-independent: -jN must agree with -j1 *)
        List.iter
          (fun field ->
            Alcotest.(check int)
              (field ^ " (-j1 vs -j4)")
              (List.assoc field (stats_fields ~timing:false seq.Engine.stats))
              (List.assoc field (stats_fields ~timing:false par.Engine.stats)))
          [ "functions_traversed"; "transitions_fired"; "instances_created" ];
        Alcotest.(check (list (pair string string)))
          "degraded" (degraded_pairs seq) (degraded_pairs par));
    t "sched corpus: -j2 and -j4 stats identical except steals/waits" `Quick
      (fun () ->
        let sg = sched_sg () in
        let a = Engine.run ~jobs:2 sg (checkers ()) in
        let b = Engine.run ~jobs:4 sg (checkers ()) in
        List.iter2
          (fun (na, va) (nb, vb) ->
            Alcotest.(check string) "field order" na nb;
            Alcotest.(check int) na va vb)
          (stats_fields ~timing:false a.Engine.stats)
          (stats_fields ~timing:false b.Engine.stats));
    t "sched corpus: budget-degraded heavy root stays byte-identical" `Quick
      (fun () ->
        (* root6 carries 400 diamonds against a 600-node budget; every
           light root (3 diamonds) fits comfortably. Unit sharing stays
           ON under node budgets: a replayed unit is charged to the
           demanding root's fuel exactly as a private traversal would
           have been, so reports, degradations and the recompute
           tripwire all hold with the shared store active. *)
        let sg = sched_sg ~heavy:400 () in
        let options =
          { Engine.default_options with Engine.max_nodes_per_root = 600 }
        in
        let seq = Engine.run ~options ~jobs:1 sg (checkers ()) in
        (* one degradation per extension run, always the heavy root *)
        Alcotest.(check (list string))
          "root6 degrades once per checker, nothing else does"
          [ "root6"; "root6"; "root6"; "root6" ]
          (List.map fst (degraded_pairs seq));
        List.iter
          (fun jobs ->
            let par = Engine.run ~options ~jobs sg (checkers ()) in
            Alcotest.(check (list string))
              (Printf.sprintf "raw report lines, -j%d" jobs)
              (raw_lines seq) (raw_lines par);
            Alcotest.(check (list (pair string string)))
              (Printf.sprintf "degraded, -j%d" jobs)
              (degraded_pairs seq) (degraded_pairs par);
            Alcotest.(check bool)
              (Printf.sprintf "sharing stays on under budgets, -j%d" jobs)
              true
              (par.Engine.stats.Engine.shared_published > 0);
            Alcotest.(check int)
              (Printf.sprintf "no shared unit recomputed under budgets, -j%d"
                 jobs)
              0 par.Engine.stats.Engine.shared_recomputed)
          [ 2; 4 ]);
    t "sched corpus: budgets at -j2 and -j4 agree with the shared store"
      `Quick (fun () ->
        (* scheduling-independence of the budget accounting itself: the
           charged fuel of every root is a deterministic function of the
           program, so two different worker counts agree byte-for-byte
           on reports, degradations and the deterministic stats subset *)
        let sg = sched_sg ~heavy:400 () in
        let options =
          { Engine.default_options with Engine.max_nodes_per_root = 600 }
        in
        let a = Engine.run ~options ~jobs:2 sg (checkers ()) in
        let b = Engine.run ~options ~jobs:4 sg (checkers ()) in
        Alcotest.(check (list string)) "raw report lines" (raw_lines a)
          (raw_lines b);
        Alcotest.(check (list (pair string string)))
          "degraded" (degraded_pairs a) (degraded_pairs b);
        List.iter2
          (fun (na, va) (nb, vb) ->
            Alcotest.(check string) "field order" na nb;
            Alcotest.(check int) na va vb)
          (stats_fields ~timing:false a.Engine.stats)
          (stats_fields ~timing:false b.Engine.stats);
        (* a generous budget must not change anything at all vs no budget *)
        let generous =
          Engine.run
            ~options:
              { Engine.default_options with Engine.max_nodes_per_root = 1_000_000 }
            ~jobs:4 sg (checkers ())
        in
        let free = Engine.run ~jobs:4 sg (checkers ()) in
        Alcotest.(check (list string))
          "generous budget = unbudgeted, raw lines" (raw_lines free)
          (raw_lines generous);
        Alcotest.(check (list (pair string string)))
          "generous budget = unbudgeted, degraded" (degraded_pairs free)
          (degraded_pairs generous));
  ]
  @ pool_lifetime_tests
