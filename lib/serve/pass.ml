type config = {
  c_files : string list;
  c_parse : path:string -> source:string -> (Cast.tunit, string) result;
  c_exts : Sm.t list;
  c_options : Engine.options;
  c_jobs : int;
  c_store : Summary_store.t option;
  c_rank : string;
}

type t = {
  cfg : config;
  watch : Watch.t;
  (* pass-1 AST cache: path -> (fingerprint of the source it was parsed
     from, AST). Unchanged files keep their parsed object across passes,
     so a daemon edit re-parses exactly one file. *)
  asts : (string, Fingerprint.t * Cast.tunit) Hashtbl.t;
  (* the last pass's supergraph: the next one keeps what its unchanged
     definitions derived (CFGs, body hashes, positions) *)
  mutable sg : Supergraph.t option;
  (* what the last pass's engine run decided, beside that supergraph: the
     next run probes only what the edit can reach. Only a store that keeps
     its entries between runs has slots left to trust. *)
  carry : Engine.carry option;
}

let create cfg =
  {
    cfg;
    watch = Watch.create cfg.c_files;
    asts = Hashtbl.create 64;
    sg = None;
    carry =
      (match cfg.c_store with
      | Some s when Summary_store.in_memory s -> Some (Engine.carry ())
      | _ -> None);
  }
let watch t = t.watch

type out = {
  sg : Supergraph.t;
  result : Engine.result;
  ranked : Report.t list;
  skipped_files : int;
  skipped_defs : int;
  drifted : string list;
  stale_roots : string list;
  load_s : float;
  graph_s : float;
  analysis_s : float;
  analysis_alloc : float;
}

let load t (f : Watch.file) =
  let path = f.Watch.w_path in
  let parsed =
    match (f.Watch.w_error, Hashtbl.find_opt t.asts path) with
    | Some msg, _ -> Error msg
    | None, Some (fp, tu) when String.equal fp f.Watch.w_fp -> Ok tu
    | None, _ -> t.cfg.c_parse ~path ~source:f.Watch.w_src
  in
  match parsed with
  | Ok tu ->
      Hashtbl.replace t.asts path (f.Watch.w_fp, tu);
      Some tu
  | Error msg ->
      Hashtbl.remove t.asts path;
      Diag.warnf "%s: skipping entire file: %s" path msg;
      None

let rank mode (result : Engine.result) =
  match mode with
  | "stat" -> Rank.statistical_sort ~counters:result.Engine.counters result.Engine.reports
  | "none" -> result.Engine.reports
  | _ -> Rank.generic_sort result.Engine.reports

let run t =
  let cfg = t.cfg in
  let t0 = Unix.gettimeofday () in
  let files = Watch.files t.watch in
  let tus = List.filter_map (load t) files in
  let t1 = Unix.gettimeofday () in
  let sg = Supergraph.build ?prev:t.sg tus in
  t.sg <- Some sg;
  let t2 = Unix.gettimeofday () in
  Option.iter Summary_store.reset_stats cfg.c_store;
  let alloc0 = Gc.allocated_bytes () in
  let result =
    Engine.run ~options:cfg.c_options ~jobs:cfg.c_jobs ?cache:cfg.c_store ?carry:t.carry sg
      cfg.c_exts
  in
  let alloc1 = Gc.allocated_bytes () in
  let t3 = Unix.gettimeofday () in
  List.iter
    (fun (d : Engine.degraded) ->
      Diag.warnf "analysis of root %s degraded: %s" d.Engine.d_root d.Engine.d_reason)
    result.Engine.degraded;
  (* a file rewritten while the pass ran means its results mix AST
     generations: degrade the affected roots loudly (the daemon also
     stays dirty, so its next check re-reads the new contents) *)
  let drifted = Watch.drifted t.watch in
  List.iter
    (fun p ->
      Diag.warnf
        "%s: file changed on disk during the run; reports reflect the snapshot \
         read at load time"
        p)
    drifted;
  let stale_roots = Watch.stale_roots sg drifted in
  List.iter
    (fun root ->
      Diag.warnf
        "analysis of root %s degraded: source file changed on disk during the run" root)
    stale_roots;
  let skipped_defs =
    List.fold_left
      (fun n tu ->
        List.fold_left
          (fun n g -> match g with Cast.Gskipped _ -> n + 1 | _ -> n)
          n tu.Cast.tu_globals)
      0 sg.Supergraph.tunits
  in
  {
    sg;
    result;
    ranked = rank cfg.c_rank result;
    skipped_files = List.length files - List.length tus;
    skipped_defs;
    drifted;
    stale_roots;
    load_s = t1 -. t0;
    graph_s = t2 -. t1;
    analysis_s = t3 -. t2;
    analysis_alloc = alloc1 -. alloc0;
  }

let open_store ~memory ~cache ~options sources =
  let ext_keys =
    Summary_store.ext_keys_of ~options_digest:(Engine.options_digest options) ~sources
  in
  match cache with
  | Some (dir, persist) -> Some (Summary_store.create ~dir ~persist ~memory ~ext_keys ())
  | None when memory ->
      (* the store points at a path that is never created or written *)
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "xgcc-serve-mem-%d" (Unix.getpid ()))
      in
      Some (Summary_store.create ~dir ~persist:false ~memory ~ext_keys ())
  | None -> None
