type file = {
  w_path : string;
  mutable w_src : string;
  mutable w_fp : Fingerprint.t;
  mutable w_overlay : bool;
  mutable w_error : string option;
}

type t = {
  files : file array;
  by_path : (string, file) Hashtbl.t;
  deps : (string, string option) Hashtbl.t;
      (* the files units depend on besides their own (headers the
         preprocessor looked for), with their contents as last seen *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fp_of source = Fingerprint.of_string source

let create paths =
  let snapshot p =
    let file src w_error =
      { w_path = p; w_src = src; w_fp = fp_of src; w_overlay = false; w_error }
    in
    match read_file p with
    | src -> file src None
    | exception Sys_error msg -> file "" (Some msg)
  in
  let t =
    {
      files = Array.of_list (List.map snapshot paths);
      by_path = Hashtbl.create (List.length paths);
      deps = Hashtbl.create 8;
    }
  in
  Array.iter (fun f -> Hashtbl.replace t.by_path f.w_path f) t.files;
  t

let files t = Array.to_list t.files

(* Do contents [src] differ from the snapshot's (which has none when the
   file could not be read)? Compared as bytes: a re-check reads every
   file, and most are unchanged, so no digest is taken for them. *)
let differs f src = f.w_error <> None || not (String.equal src f.w_src)

(* Install new contents; true when they differ from the snapshot's. *)
let update f src =
  differs f src
  && begin
       f.w_src <- src;
       f.w_fp <- fp_of src;
       f.w_error <- None;
       true
     end

let find t path = Hashtbl.find_opt t.by_path path

let read_opt path = try Some (read_file path) with Sys_error _ -> None

let note_deps t deps = List.iter (fun (p, src) -> Hashtbl.replace t.deps p src) deps

let deps_hold t deps =
  List.for_all
    (fun (p, src) ->
      Option.equal String.equal src
        (match Hashtbl.find_opt t.deps p with
        | Some s -> s
        | None ->
            let s = read_opt p in
            Hashtbl.replace t.deps p s;
            s))
    deps

let set_overlay t ~path ~text =
  match find t path with
  | None -> Error (Printf.sprintf "%s: not part of the served tree" path)
  | Some f -> (
      match text with
      | Some src ->
          f.w_overlay <- true;
          Ok (update f src)
      | None -> (
          f.w_overlay <- false;
          match read_file path with
          | src -> Ok (update f src)
          | exception Sys_error msg ->
              (* keep the last good snapshot: the daemon stays serving *)
              Error (Printf.sprintf "%s: cannot re-read: %s" path msg)))

(* Re-stat and re-hash every disk-backed file before a run: cheap
   insurance that a fingerprint taken at startup is not silently trusted
   forever (the stale-snapshot bug cached batch mode had). Overlay files
   are authoritative in memory, so disk is not consulted for them. The
   files units depend on are re-read too, overlaid units' included. *)
let revalidate t =
  let changed = ref [] and missing = ref [] in
  Array.iter
    (fun f ->
      if not f.w_overlay then
        if not (Sys.file_exists f.w_path) then missing := f.w_path :: !missing
        else
          match read_file f.w_path with
          | src -> if update f src then changed := f.w_path :: !changed
          | exception Sys_error _ -> missing := f.w_path :: !missing)
    t.files;
  let deps = Hashtbl.fold (fun p src acc -> (p, src) :: acc) t.deps [] in
  List.iter
    (fun (p, src) ->
      let now = read_opt p in
      if not (Option.equal String.equal src now) then begin
        Hashtbl.replace t.deps p now;
        changed := p :: !changed
      end)
    (List.sort compare deps);
  (List.rev !changed, List.rev !missing)

(* Post-run drift detection: which disk-backed files no longer match the
   snapshot the run analysed? Read-only — the next revalidate picks the
   new contents up; this only tells the caller which results to degrade.
   A file unreadable at the snapshot drifts only once it can be read. *)
let drifted t =
  let out = ref [] in
  Array.iter
    (fun f ->
      if not f.w_overlay then
        match read_file f.w_path with
        | src -> if differs f src then out := f.w_path :: !out
        | exception Sys_error _ -> if f.w_error = None then out := f.w_path :: !out)
    t.files;
  List.rev !out

(* Roots whose transitive callee closure touches a function defined in
   one of [changed_paths] — the results a mid-run edit can have poisoned. *)
let stale_roots sg changed_paths =
  if changed_paths = [] then []
  else
    let changed = List.fold_left (fun s p -> p :: s) [] changed_paths in
    let in_changed file = List.exists (String.equal file) changed in
    List.filter
      (fun root ->
        List.exists
          (fun fn ->
            match Supergraph.file_of_function sg fn with
            | Some file -> in_changed file
            | None -> false)
          (Callgraph.closure sg.Supergraph.callgraph root))
      (Supergraph.roots sg)
