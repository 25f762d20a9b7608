module Sset = Set.Make (String)

type db = Sset.t

let empty = Sset.empty
let add db r = Sset.add (Report.identity_key r) db
let of_reports reports = List.fold_left add empty reports
let mem db r = Sset.mem (Report.identity_key r) db
let size = Sset.cardinal

let suppress db reports =
  let kept = List.filter (fun r -> not (mem db r)) reports in
  (kept, List.length reports - List.length kept)

let load path =
  if not (Sys.file_exists path) then empty
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (if String.equal line "" then acc else Sset.add line acc)
      | exception End_of_file -> acc
    in
    let db = go empty in
    close_in ic;
    db
  end

(* Atomic, so a crash mid-save (or a concurrent reader) never sees a
   truncated suppression DB — a torn file would silently stop suppressing
   half the known reports. *)
let save path db =
  Wire.write_file path (fun oc -> Sset.iter (fun k -> output_string oc (k ^ "\n")) db)
