(* Temporary files and directories for the test suites. Each is made
   fresh under the temp directory and removed, with everything in it,
   when the test process exits, so a run leaves nothing behind. *)

let made = ref []

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter (fun p -> try remove p with _ -> ()) !made)

(* A fresh empty file named [prefix...suffix]. *)
let file prefix suffix =
  let f = Filename.temp_file prefix suffix in
  made := f :: !made;
  f

(* A fresh empty directory named [prefix...]. *)
let dir prefix =
  let d = file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d
