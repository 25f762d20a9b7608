type t = {
  cpp : ((string * string) list * string list) option;
  ast_cache : (string * bool) option;
  (* atomic: emit loads files on a domain pool *)
  ast_hits : int Atomic.t;
  ast_misses : int Atomic.t;
}

let create ?cpp ?ast_cache () =
  { cpp; ast_cache; ast_hits = Atomic.make 0; ast_misses = Atomic.make 0 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let resolve_include incdirs name =
  List.find_map
    (fun dir ->
      let path = Filename.concat dir name in
      if Sys.file_exists path then Some (read_file path) else None)
    ("." :: incdirs)

let parse t ~path ~source =
  if Filename.check_suffix path ".mcast" then Cast_io.read_string source
  else
    match
      let src =
        match t.cpp with
        | None -> source
        | Some (defines, incdirs) ->
            Cpp.preprocess ~defines ~resolve_include:(resolve_include incdirs)
              ~file:path source
      in
      match t.ast_cache with
      | None -> Cparse.parse_tunit ~file:path src
      | Some (cache_dir, persist) -> (
          let fp = Cast_io.ast_fingerprint ~file:path ~source:src in
          match Cast_io.read_cached ~cache_dir fp with
          | Some tu ->
              Atomic.incr t.ast_hits;
              tu
          | None ->
              Atomic.incr t.ast_misses;
              let tu = Cparse.parse_tunit ~file:path src in
              if persist then Cast_io.write_cached ~cache_dir fp tu;
              tu)
    with
    | tu -> Ok tu
    | exception Clex.Lex_error (loc, msg) ->
        Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)
    | exception Cpp.Cpp_error (loc, msg) ->
        Error (Printf.sprintf "%s: preprocessor error: %s" (Srcloc.to_string loc) msg)
    | exception Sys_error msg -> Error msg

let load t path =
  match
    match read_file path with
    | source -> parse t ~path ~source
    | exception Sys_error msg -> Error msg
  with
  | Ok tu -> tu
  | Error msg -> failwith (path ^ ": " ^ msg)

let record_ast_counts t store =
  let st = Summary_store.stats store in
  st.Summary_store.ast_hits <- Atomic.get t.ast_hits;
  st.Summary_store.ast_misses <- Atomic.get t.ast_misses;
  Summary_store.save_last_run store
