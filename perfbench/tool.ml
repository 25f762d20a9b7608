(* Benchmark helper linked against the analyser's libraries.

     tool.exe gen KIND SEED N_FILES FUNCS_PER_FILE BUG_RATE DIR
       writes a Gen corpus (KIND = files | linked) into DIR, plus
       DIR/truth.json with the planted bugs (the correctness oracle's
       ground truth).

     tool.exe trace PLAN.json
       the traced run: replays a workload's ops in-process through the
       public calls the CLI and the daemon make, in their order, with a
       span around every call into a layer. Spans stay in memory and are
       written at exit as Chrome trace-event JSON (PLAN's "out"); the op
       spans carry the layers' public counters and a digest of the
       rendered reports, so run.py can check them against its oracle.

   Run from the corpus directory: file names in reports are the relative
   names the CLI runs see. *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen kind seed n_files funcs bug_rate dir =
  let generate =
    match kind with
    | "files" -> Gen.generate_files
    | "linked" -> Gen.generate_linked
    | k -> failwith ("unknown corpus kind " ^ k)
  in
  let files = generate ~seed ~n_files ~funcs_per_file:funcs ~bug_rate in
  let open Json_out in
  let planted =
    List.concat_map
      (fun (name, (g : Gen.t)) ->
        write_file (Filename.concat dir name) g.Gen.source;
        List.map
          (fun (p : Gen.planted) ->
            Obj
              [
                ("file", Str name);
                ("function", Str p.Gen.in_function);
                ("kind", Str (Gen.bug_kind_to_string p.Gen.kind));
                ("checker", Str (Gen.checker_of_kind p.Gen.kind));
              ])
          g.Gen.planted)
      files
  in
  write_file
    (Filename.concat dir "truth.json")
    (to_string
       (Obj
          [
            ("files", Arr (List.map (fun (n, _) -> Str n) files));
            ("planted", Arr planted);
          ]))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
  a0 : float;
  mutable a1 : float;
  mutable args : (string * Json_out.t) list;
}

let spans = ref []
let stack = ref []
let next_id = ref 0
let cur_op = ref 0
let origin = Unix.gettimeofday ()

let with_span name f =
  incr next_id;
  let s =
    {
      id = !next_id;
      name;
      op = !cur_op;
      parent = (match !stack with p :: _ -> p.id | [] -> 0);
      t0 = Unix.gettimeofday ();
      t1 = 0.;
      a0 = Gc.allocated_bytes ();
      a1 = 0.;
      args = [];
    }
  in
  stack := s :: !stack;
  let close () =
    s.t1 <- Unix.gettimeofday ();
    s.a1 <- Gc.allocated_bytes ();
    stack := List.tl !stack;
    spans := s :: !spans
  in
  match f () with
  | r ->
      close ();
      (s, r)
  | exception e ->
      close ();
      raise e

let span name f = snd (with_span name f)

(* One op: the unit the end-to-end runs time. [f] returns the digest of
   the rendered reports and the layers' public counters; [after] reads
   more counters once the op's span has closed, for reads that are not
   part of the op (walking the store directory). *)
let op ?(after = fun () -> []) ~phase kind f =
  incr cur_op;
  let s, (digest, counters) = with_span ("op:" ^ kind) f in
  s.args <-
    [ ("kind", Json_out.Str kind); ("phase", Json_out.Str phase);
      ("digest", Json_out.Str digest) ]
    @ counters @ after ()

let span_event s =
  let open Json_out in
  Obj
    [
      ("name", Str s.name);
      ("cat", Str (List.hd (String.split_on_char '.' s.name)));
      ("ph", Str "X");
      ("ts", Float ((s.t0 -. origin) *. 1e6));
      ("dur", Float ((s.t1 -. s.t0) *. 1e6));
      ("pid", Int 1);
      ("tid", Int 1);
      ( "args",
        Obj
          ([
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("op", Int s.op);
             ("alloc_bytes", Float (s.a1 -. s.a0));
           ]
          @ s.args) );
    ]

(* ------------------------------------------------------------------ *)
(* The calls the CLI and the daemon make                               *)
(* ------------------------------------------------------------------ *)

let options = Engine.default_options

let make_checkers names =
  span "engine.checkers" (fun () ->
      List.map
        (fun n ->
          match Registry.find n with
          | Some e ->
              ( e.Registry.e_make (),
                Option.value e.Registry.e_source
                  ~default:(e.Registry.e_name ^ "\n" ^ e.Registry.e_description) )
          | None -> failwith ("unknown checker " ^ n))
        names)

let parse ~path src =
  let s, tu = with_span "cfront.parse" (fun () -> Cparse.parse_tunit ~file:path src) in
  s.args <- [ ("bytes", Json_out.Int (String.length src)) ];
  tu

let rank_render (result : Engine.result) =
  let ranked = span "report.rank" (fun () -> Rank.generic_sort result.Engine.reports) in
  let out = span "report.render" (fun () -> Json_out.reports_to_string ranked) in
  (Digest.to_hex (Digest.string out), List.length ranked)

let engine_counters (st : Engine.stats) =
  let open Json_out in
  [
    ("nodes_visited", Int st.Engine.nodes_visited);
    ("paths_explored", Int st.Engine.paths_explored);
    ("match_attempts", Int st.Engine.match_attempts);
    ("cache_hits", Int st.Engine.cache_hits);
    ("cache_probes", Int st.Engine.cache_probes);
    ("summary_hits", Int st.Engine.summary_hits);
    ("calls_followed", Int st.Engine.calls_followed);
    ("pruned_branches", Int st.Engine.pruned_branches);
    ("steals", Int st.Engine.sched_steals);
    ("waits", Int st.Engine.sched_waits);
    ("shared_published", Int st.Engine.shared_published);
    ("shared_replayed", Int st.Engine.shared_replayed);
    ("shared_recomputed", Int st.Engine.shared_recomputed);
    ("intern_atoms", Int st.Engine.intern_atoms);
  ]

let graph_counters (sg : Supergraph.t) =
  let open Json_out in
  [
    ("blocks", Int sg.Supergraph.flat.Flat.n_blocks);
    ("exprids", Int (Exprid.n sg.Supergraph.ids));
    ( "table_bytes",
      Int (Flat.table_bytes sg.Supergraph.flat + Exprid.table_bytes sg.Supergraph.ids) );
  ]

let store_counters s =
  let st = Summary_store.stats s in
  let open Json_out in
  [
    ("fn_hits", Int st.Summary_store.fn_hits);
    ("fn_stale", Int st.Summary_store.fn_stale);
    ("fn_absent", Int st.Summary_store.fn_absent);
    ("roots_replayed", Int st.Summary_store.roots_replayed);
    ("roots_recomputed", Int st.Summary_store.roots_recomputed);
    ("fns_recomputed", Int st.Summary_store.fns_recomputed);
    ("sums_unchanged", Int st.Summary_store.sums_unchanged);
    ("roots_salvaged", Int st.Summary_store.roots_salvaged);
    ("mem_entries", Int (Summary_store.mem_entries s));
  ]

(* xgcc check --format json -j J FILES *)
let batch_op ~phase ~checkers ~jobs files =
  op ~phase (Printf.sprintf "batch_j%d" jobs) (fun () ->
      let exts = List.map fst (make_checkers checkers) in
      let bytes = ref 0 in
      let tus =
        List.map
          (fun f ->
            let src = read_file f in
            bytes := !bytes + String.length src;
            parse ~path:f src)
          files
      in
      let sg = span "cfg.supergraph" (fun () -> Supergraph.build tus) in
      let name = if jobs = 1 then "engine.run" else "pool.run" in
      let result = span name (fun () -> Engine.run ~options ~jobs sg exts) in
      let digest, n = rank_render result in
      ( digest,
        [ ("reports", Json_out.Int n); ("source_bytes", Json_out.Int !bytes) ]
        @ graph_counters sg
        @ engine_counters result.Engine.stats ))

(* xgcc check --format json --cache-dir DIR FILES *)
let cache_op ~phase ~checkers ~dir kind files =
  let after () =
    let d = Summary_store.disk_stats ~dir in
    let open Summary_store in
    [
      ("ast_bytes", Json_out.Int d.d_ast.dk_bytes);
      ("entry_files", Json_out.Int (d.d_sum.dk_files + d.d_root.dk_files));
      ("store_bytes", Json_out.Int (d.d_ast.dk_bytes + d.d_sum.dk_bytes + d.d_root.dk_bytes));
    ]
  in
  op ~after ~phase kind (fun () ->
      let exts_src = make_checkers checkers in
      let store =
        span "cache.store_open" (fun () ->
            let ext_keys =
              Summary_store.ext_keys_of
                ~options_digest:(Engine.options_digest options)
                ~sources:(List.map snd exts_src)
            in
            Summary_store.create ~dir ~persist:true ~ext_keys ())
      in
      let bytes = ref 0 in
      let tus =
        List.map
          (fun f ->
            let src = read_file f in
            bytes := !bytes + String.length src;
            let fp = Cast_io.ast_fingerprint ~file:f ~source:src in
            match span "cfront.ast_decode" (fun () -> Cast_io.read_cached ~cache_dir:dir fp) with
            | Some tu -> tu
            | None ->
                let tu = parse ~path:f src in
                span "cfront.ast_encode" (fun () -> Cast_io.write_cached ~cache_dir:dir fp tu);
                tu)
          files
      in
      let sg = span "cfg.supergraph" (fun () -> Supergraph.build tus) in
      let result =
        span "cache.run" (fun () ->
            Engine.run ~options ~jobs:1 ~cache:store sg (List.map fst exts_src))
      in
      span "cache.save_last_run" (fun () -> Summary_store.save_last_run store);
      let digest, n = rank_render result in
      ( digest,
        ("reports", Json_out.Int n) :: ("source_bytes", Json_out.Int !bytes)
        :: store_counters store ))

let cache_cycle ~phase ~checkers ~dir ~edit_file edits files =
  List.iter
    (fun (kind, text) ->
      write_file edit_file text;
      cache_op ~phase ~checkers ~dir ("cache:" ^ kind) files)
    edits

(* xgcc serve FILES, then didChange overlays *)
let serve_session ~phase ~checkers ~jobs ~mem_dir files =
  let server = ref None in
  let store = ref None in
  op ~phase "serve_setup" (fun () ->
      let exts_src = make_checkers checkers in
      let ext_keys =
        Summary_store.ext_keys_of
          ~options_digest:(Engine.options_digest options)
          ~sources:(List.map snd exts_src)
      in
      let s = Summary_store.create ~dir:mem_dir ~persist:false ~memory:true ~ext_keys () in
      store := Some s;
      let cfg =
        {
          Server.c_files = files;
          c_parse =
            (fun ~path ~source ->
              match parse ~path source with
              | tu -> Ok tu
              | exception Clex.Lex_error (_, msg) -> Error msg);
          c_exts = List.map fst exts_src;
          c_options = options;
          c_jobs = jobs;
          c_store = Some s;
          c_rank = "generic";
        }
      in
      match span "serve.create" (fun () -> Server.create cfg) with
      | Error msg -> failwith msg
      | Ok t ->
          server := Some t;
          let o = span "serve.warmup" (fun () -> Server.check t) in
          ( Digest.to_hex (Digest.string o.Server.o_diagnostics),
            [ ("reports", Json_out.Int o.Server.o_reports) ] ));
  (Option.get !server, Option.get !store)

let serve_edit ~phase ~server ~store ~edit_file (kind, text) =
  op ~phase ("serve:" ^ kind) (fun () ->
      let reply, _ =
        span "serve.recheck" (fun () ->
            Server.handle_request server ~more_pending:false
              (Proto.Did_change { path = edit_file; text = Some text }))
      in
      let diag =
        match reply with
        | Json_out.Obj fields -> (
            match List.assoc_opt "diagnostics" fields with
            | Some (Json_out.Str d) -> d
            | _ -> "")
        | _ -> ""
      in
      (Digest.to_hex (Digest.string diag), store_counters store))

(* The daemon's re-check, replayed through the public calls it makes
   (Server.recheck): re-parse the edited file, rebuild the supergraph,
   run the engine over a memory-only store, rank and render. This splits
   the single serve.recheck span into layers. *)
let mirror_session ~checkers ~jobs ~mem_dir files =
  let exts_src = make_checkers checkers in
  let exts = List.map fst exts_src in
  let ext_keys =
    Summary_store.ext_keys_of
      ~options_digest:(Engine.options_digest options)
      ~sources:(List.map snd exts_src)
  in
  let store = Summary_store.create ~dir:mem_dir ~persist:false ~memory:true ~ext_keys () in
  let asts = Hashtbl.create 64 in
  let recheck overlay =
    let tus =
      List.map
        (fun f ->
          let src = match overlay with Some (p, t) when p = f -> t | _ -> read_file f in
          match Hashtbl.find_opt asts f with
          | Some (s, tu) when String.equal s src -> tu
          | _ ->
              let tu = parse ~path:f src in
              Hashtbl.replace asts f (src, tu);
              tu)
        files
    in
    let sg = span "cfg.supergraph" (fun () -> Supergraph.build tus) in
    Summary_store.reset_stats store;
    let result = span "cache.run" (fun () -> Engine.run ~options ~jobs ~cache:store sg exts) in
    let digest, _ = rank_render result in
    (digest, store_counters store)
  in
  op ~phase:"setup" "mirror_setup" (fun () -> recheck None);
  fun ~phase ~edit_file (kind, text) ->
    op ~phase ("mirror:" ^ kind) (fun () -> recheck (Some (edit_file, text)))

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

let field plan k =
  match plan with
  | Json_out.Obj fs -> (
      match List.assoc_opt k fs with Some v -> v | None -> failwith ("plan: missing " ^ k))
  | _ -> failwith "plan: not an object"

let str = function Json_out.Str s -> s | _ -> failwith "plan: expected a string"
let int = function Json_out.Int n -> n | _ -> failwith "plan: expected an int"
let num = function Json_out.Int n -> float_of_int n | Json_out.Float f -> f | _ -> failwith "plan: expected a number"
let strs = function Json_out.Arr l -> List.map str l | _ -> failwith "plan: expected a list"

let trace plan_path =
  let plan = Json_out.of_string (read_file plan_path) in
  let files = strs (field plan "files") in
  let checkers = strs (field plan "checkers") in
  let jobs = int (field plan "jobs") in
  let main = str (field plan "main") in
  let seconds = num (field plan "seconds") in
  let dir = str (field plan "store_dir") in
  let mem_dir = str (field plan "mem_dir") in
  let edit_file = str (field plan "edit_file") in
  let edits =
    match field plan "edits" with
    | Json_out.Arr l ->
        List.map (function Json_out.Arr [ k; t ] -> (str k, str t) | _ -> failwith "plan: edit") l
    | _ -> failwith "plan: edits"
  in
  let original = read_file edit_file in
  let deadline () = Unix.gettimeofday () +. seconds in
  let repeat_until stop f =
    f ();
    while Unix.gettimeofday () < stop do
      f ()
    done
  in
  (* the workload's own op sequence, repeated for [seconds] *)
  (match main with
  | "batch" ->
      let stop = deadline () in
      repeat_until stop (fun () -> batch_op ~phase:"main" ~checkers ~jobs files)
  | "cache" ->
      cache_op ~phase:"main" ~checkers ~dir "cache_cold" files;
      let stop = deadline () in
      repeat_until stop (fun () ->
          cache_cycle ~phase:"main" ~checkers ~dir ~edit_file edits files)
  | "serve" ->
      let server, store = serve_session ~phase:"main" ~checkers ~jobs ~mem_dir files in
      let mirror = mirror_session ~checkers ~jobs ~mem_dir files in
      let stop = deadline () in
      repeat_until stop (fun () ->
          List.iter
            (fun e ->
              serve_edit ~phase:"main" ~server ~store ~edit_file e;
              mirror ~phase:"main" ~edit_file e)
            edits)
  | m -> failwith ("plan: unknown main " ^ m));
  write_file edit_file original;
  (* then one op of every kind, on the probe slice of the corpus, so each
     traced run has spans for every layer and the ratios between layers
     (pool speed-up, cache overhead) compare runs over the same files *)
  let files = strs (field plan "probe_files") in
  let dir = str (field plan "probe_store_dir") in
  batch_op ~phase:"probe" ~checkers ~jobs:1 files;
  batch_op ~phase:"probe" ~checkers ~jobs:2 files;
  cache_op ~phase:"probe" ~checkers ~dir "cache_cold" files;
  cache_cycle ~phase:"probe" ~checkers ~dir ~edit_file edits files;
  let server, store = serve_session ~phase:"probe" ~checkers ~jobs:1 ~mem_dir files in
  List.iter (serve_edit ~phase:"probe" ~server ~store ~edit_file) edits;
  write_file edit_file original;
  let open Json_out in
  write_file (str (field plan "out"))
    (to_string
       (Obj
          [
            ("traceEvents", Arr (List.rev_map span_event !spans));
            ("displayTimeUnit", Str "ms");
          ]))

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  match Array.to_list Sys.argv with
  | [ _; "gen"; kind; seed; n_files; funcs; rate; dir ] ->
      gen kind (int_of_string seed) (int_of_string n_files) (int_of_string funcs)
        (float_of_string rate) dir
  | [ _; "trace"; plan ] -> trace plan
  | _ ->
      prerr_endline
        "usage: tool.exe gen KIND SEED N_FILES FUNCS BUG_RATE DIR | tool.exe trace PLAN.json";
      exit 2
