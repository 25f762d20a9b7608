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
  loader : Loader.t option;
  watch : Watch.t;
  (* pass-1 AST cache: path -> (fingerprint of the source it was parsed
     from, the unit's identity and dependencies, AST). Unchanged files
     keep their parsed object across passes, so a daemon edit re-parses
     exactly one file. *)
  asts : (string, Fingerprint.t * Loader.unit_id * Cast.tunit) Hashtbl.t;
  (* the last pass's supergraph: the next one keeps what its unchanged
     definitions derived (CFGs, body hashes, positions) *)
  mutable sg : Supergraph.t option;
  (* what the last pass's engine run decided, beside that supergraph: the
     next run probes only what the edit can reach. Only a store that keeps
     its entries between runs has slots left to trust; a disk store's
     runs read the carry file instead. *)
  carry : Engine.carry option;
}

let create ?loader cfg =
  {
    cfg;
    loader;
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

let parse t ~path ~source =
  match t.loader with
  | Some l ->
      Result.map
        (fun (tu, (u : Loader.unit_id)) ->
          Watch.note_deps t.watch u.Loader.u_deps;
          (tu, u))
        (Loader.parse_unit l ~path ~source)
  | None ->
      Result.map
        (fun tu -> (tu, { Loader.u_id = None; u_deps = [] }))
        (t.cfg.c_parse ~path ~source)

(* A file's unit, its identity and its path, parsed again only when its
   text or a file it included changed. *)
let load t (f : Watch.file) =
  let path = f.Watch.w_path in
  let parsed =
    match (f.Watch.w_error, Hashtbl.find_opt t.asts path) with
    | Some msg, _ -> Error msg
    | None, Some (fp, u, tu)
      when String.equal fp f.Watch.w_fp && Watch.deps_hold t.watch u.Loader.u_deps ->
        Ok (tu, u)
    | None, _ -> parse t ~path ~source:f.Watch.w_src
  in
  match parsed with
  | Ok (tu, u) ->
      Hashtbl.replace t.asts path (f.Watch.w_fp, u, tu);
      Some (path, u.Loader.u_id, tu)
  | Error msg ->
      Hashtbl.remove t.asts path;
      Diag.warnf "%s: skipping entire file: %s" path msg;
      None

let rank mode (result : Engine.result) =
  match mode with
  | "stat" -> Rank.statistical_sort ~counters:result.Engine.counters result.Engine.reports
  | "none" -> result.Engine.reports
  | _ -> Rank.generic_sort result.Engine.reports

(* The carry a run over [store] takes: the daemon's, kept in memory; or,
   over a disk store, the file the last run left beside the packs, when
   every unit has an identity (the loader gives one with an AST cache,
   as every [--cache-dir] run has). *)
let carry_for t units =
  match (t.carry, t.cfg.c_store) with
  | Some c, _ -> Some c
  | None, Some s when List.for_all (fun (_, id, _) -> Option.is_some id) units ->
      Some
        (Engine.read_carry s
           ~units:(List.map (fun (path, id, _) -> (path, Option.get id)) units))
  | None, _ -> None

let run t =
  let cfg = t.cfg in
  let t0 = Unix.gettimeofday () in
  let files = Watch.files t.watch in
  let units = List.filter_map (load t) files in
  let tus = List.map (fun (_, _, tu) -> tu) units in
  let t1 = Unix.gettimeofday () in
  let sg = Supergraph.build ?prev:t.sg tus in
  t.sg <- Some sg;
  let t2 = Unix.gettimeofday () in
  Option.iter Summary_store.reset_stats cfg.c_store;
  let alloc0 = Gc.allocated_bytes () in
  let carry = carry_for t units in
  let result =
    Engine.run ~options:cfg.c_options ~jobs:cfg.c_jobs ?cache:cfg.c_store ?carry sg cfg.c_exts
  in
  (* after the run's last flush *)
  (match (t.carry, carry, cfg.c_store) with
  | None, Some c, Some s -> Engine.write_carry s c
  | _ -> ());
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
