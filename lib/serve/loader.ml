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

type unit_id = { u_id : Fingerprint.t option; u_deps : (string * string option) list }

(* The first of [dir/name] over "." and the include directories that
   exists, read; every candidate looked at is recorded in [deps] with its
   contents ([None] for one that does not exist), so a header created
   earlier on the search path counts as a change too. *)
let resolve_include incdirs deps name =
  List.find_map
    (fun dir ->
      let path = Filename.concat dir name in
      let src = if Sys.file_exists path then Some (read_file path) else None in
      deps := (path, src) :: !deps;
      src)
    ("." :: incdirs)

let parse_unit t ~path ~source =
  let deps = ref [] in
  let identity text =
    Option.map (fun _ -> Cast_io.ast_fingerprint ~file:path ~source:text) t.ast_cache
  in
  match
    if Filename.check_suffix path ".mcast" then
      Result.map (fun tu -> (tu, identity source)) (Cast_io.read_string source)
    else
      let src =
        match t.cpp with
        | None -> source
        | Some (defines, incdirs) ->
            Cpp.preprocess ~defines ~resolve_include:(resolve_include incdirs deps)
              ~file:path source
      in
      match t.ast_cache with
      | None -> Ok (Cparse.parse_tunit ~file:path src, None)
      | Some (cache_dir, persist) -> (
          let fp = Cast_io.ast_fingerprint ~file:path ~source:src in
          match Cast_io.read_cached ~cache_dir fp with
          | Some tu ->
              Atomic.incr t.ast_hits;
              Ok (tu, Some fp)
          | None ->
              Atomic.incr t.ast_misses;
              let tu = Cparse.parse_tunit ~file:path src in
              if persist then Cast_io.write_cached ~cache_dir fp tu;
              Ok (tu, Some fp))
  with
  | r -> Result.map (fun (tu, u_id) -> (tu, { u_id; u_deps = List.rev !deps })) r
  | exception Clex.Lex_error (loc, msg) ->
      Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)
  | exception Cpp.Cpp_error (loc, msg) ->
      Error (Printf.sprintf "%s: preprocessor error: %s" (Srcloc.to_string loc) msg)
  | exception Sys_error msg -> Error msg

let parse t ~path ~source = Result.map fst (parse_unit t ~path ~source)

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
