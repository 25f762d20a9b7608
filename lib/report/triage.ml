type verdict = Real | False_positive | Undecided
type entry = { verdict : verdict; report : Report.t }

let mark_of = function Real -> 'R' | False_positive -> 'F' | Undecided -> '?'

let verdict_of_mark = function
  | 'R' | 'r' -> Some Real
  | 'F' | 'f' -> Some False_positive
  | '?' -> Some Undecided
  | _ -> None

(* The pipe-separated fields after the mark are exactly the identity-key
   fields plus the location, so import can re-match reports robustly. *)
let line_of (r : Report.t) =
  Printf.sprintf "%c|%s|%s:%d|%s" (mark_of Undecided) (Report.identity_key r)
    r.loc.Srcloc.file r.loc.Srcloc.line r.message

let export reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "# metal/xgcc triage file - mark each line: R (real), F (false positive), ? (skip)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (line_of r);
      Buffer.add_char buf '\n')
    reports;
  Buffer.contents buf

let export_file path reports =
  Wire.write_file path (fun oc -> output_string oc (export reports))

exception Malformed of int * string

let import ~reports text =
  let lines = String.split_on_char '\n' text in
  let verdicts : (string, verdict) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if String.length line > 0 && not (Char.equal line.[0] '#') then begin
        match String.index_opt line '|' with
        | None -> raise (Malformed (lineno + 1, "missing '|' separator"))
        | Some bar -> (
            let mark_field = String.sub line 0 bar in
            if String.length mark_field <> 1 then
              raise (Malformed (lineno + 1, "mark must be a single character"));
            match verdict_of_mark mark_field.[0] with
            | None ->
                raise
                  (Malformed (lineno + 1, Printf.sprintf "bad mark %C" mark_field.[0]))
            | Some v ->
                let rest = String.sub line (bar + 1) (String.length line - bar - 1) in
                (* the identity key is everything up to the location field,
                   i.e. the first 5 '|'-separated components of the rest *)
                let parts = String.split_on_char '|' rest in
                let key =
                  match parts with
                  | a :: b :: c :: d :: e :: _ -> String.concat "|" [ a; b; c; d; e ]
                  | _ -> raise (Malformed (lineno + 1, "truncated entry"))
                in
                Hashtbl.replace verdicts key v)
      end)
    lines;
  List.map
    (fun r ->
      let v =
        Option.value (Hashtbl.find_opt verdicts (Report.identity_key r))
          ~default:Undecided
      in
      { verdict = v; report = r })
    reports

let import_file ~reports path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  import ~reports text

let apply entries db =
  let db =
    List.fold_left
      (fun db e ->
        match e.verdict with
        | False_positive -> History.add db e.report
        | Real | Undecided -> db)
      db entries
  in
  let counts : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.report.Report.rule with
      | None -> ()
      | Some rule ->
          let real, fp = Option.value (Hashtbl.find_opt counts rule) ~default:(0, 0) in
          let real, fp =
            match e.verdict with
            | Real -> (real + 1, fp)
            | False_positive -> (real, fp + 1)
            | Undecided -> (real, fp)
          in
          Hashtbl.replace counts rule (real, fp))
    entries;
  ( db,
    List.sort compare
      (Hashtbl.fold (fun rule (real, fp) acc -> (rule, real, fp) :: acc) counts []) )

