(* Generated differential test of the daemon. Fixed-seed QCheck scripts
   edit a small linked Gen corpus through [Server] didChange overlays:
   summary-changing and neutral statements, a planted use after free,
   trailing comments, declaration changes, renamed functions, introduced
   recursion and anonymous structs. After every step the daemon's diagnostics and
   warnings must equal an uncached -j 1 pass over the same text, which
   is what a cold [xgcc check --format json] prints. Whatever a re-check
   carries over from the last one (ASTs, CFGs, body hashes, positions,
   memory-store entries and the inputs of their keys) can only show up
   here as a difference. A failing script shrinks to a minimal one. *)

(* errpath tags error paths, and the checkers after it see the tags *)
let checkers = [ "errpath"; "free"; "lock"; "null" ]

let exts () =
  List.map
    (fun name ->
      match Registry.find name with
      | Some e -> (e.Registry.e_make (), Option.value e.Registry.e_source ~default:name)
      | None -> Alcotest.failf "no checker %s" name)
    checkers

let parse ~path ~source =
  match Cparse.parse_tunit ~file:path source with
  | tu -> Ok tu
  | exception Clex.Lex_error (loc, msg) ->
      Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)

let config ~store files =
  let exts = exts () in
  {
    Pass.c_files = files;
    c_parse = parse;
    c_exts = List.map fst exts;
    c_options = Engine.default_options;
    c_jobs = 1;
    c_store =
      (if store then
         Pass.open_store ~memory:true ~cache:None ~options:Engine.default_options
           (List.map snd exts)
       else None);
    c_rank = "generic";
  }

(* The oracle: one uncached -j 1 pass over the files as they are on disk. *)
let oracle files =
  let warnings = ref [] in
  let p =
    Diag.with_sink
      (fun w -> warnings := w :: !warnings)
      (fun () -> Pass.run (Pass.create (config ~store:false files)))
  in
  (Json_out.reports_to_string p.Pass.ranked, List.rev !warnings)

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

type edit =
  | Summary_stmt  (* allocate and free at the top of a function *)
  | Neutral_stmt  (* a dead local *)
  | Bug  (* a use after free *)
  | Comment  (* a trailing comment *)
  | Declaration  (* a new global struct *)
  | Rename  (* a definition gets a new name; its callers call nothing *)
  | Recursion  (* a function calls itself *)
  | Anon_struct  (* a global of an anonymous struct type *)

let edits =
  [| Summary_stmt; Neutral_stmt; Bug; Comment; Declaration; Rename; Recursion; Anon_struct |]

let edit_name = function
  | Summary_stmt -> "summary-stmt"
  | Neutral_stmt -> "neutral-stmt"
  | Bug -> "bug"
  | Comment -> "comment"
  | Declaration -> "declaration"
  | Rename -> "rename"
  | Recursion -> "recursion"
  | Anon_struct -> "anon-struct"

(* The definition lines of a Gen unit: a line that opens a body and
   whose first word is a return type. *)
let is_definition line =
  String.length line > 0
  && line.[0] <> ' '
  && String.contains line '('
  && String.contains line '{'
  && not (String.starts_with ~prefix:"struct" line)

let name_and_params line =
  let lp = String.index line '(' and rp = String.index line ')' in
  let head = String.trim (String.sub line 0 lp) in
  let name =
    match String.rindex_opt head ' ' with
    | Some i -> String.sub head (i + 1) (String.length head - i - 1)
    | None -> head
  in
  let name =
    match String.rindex_opt name '*' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let params =
    List.filter_map
      (fun p ->
        let p = String.trim p in
        if p = "" || p = "void" then None
        else
          let i =
            max
              (Option.value (String.rindex_opt p ' ') ~default:(-1))
              (Option.value (String.rindex_opt p '*') ~default:(-1))
          in
          Some (String.sub p (i + 1) (String.length p - i - 1)))
      (String.split_on_char ',' (String.sub line (lp + 1) (rp - lp - 1)))
  in
  (name, params)

(* Insert [stmt] right after the opening brace of a definition line. *)
let after_brace line stmt =
  let i = String.index line '{' in
  String.sub line 0 (i + 1) ^ " " ^ stmt ^ String.sub line (i + 1) (String.length line - i - 1)

let apply ~step text (edit, fn) =
  let lines = String.split_on_char '\n' text in
  let defs = List.filter is_definition lines in
  let on_definition f =
    match defs with
    | [] -> text
    | _ ->
        let target = List.nth defs (fn mod List.length defs) in
        let seen = ref false in
        String.concat "\n"
          (List.map
             (fun l ->
               if (not !seen) && l == target then begin
                 seen := true;
                 f l
               end
               else l)
             lines)
  in
  match edit with
  | Summary_stmt ->
      on_definition (fun l ->
          after_brace l
            (Printf.sprintf "int *diff_t%d = kmalloc(1); kfree(diff_t%d);" step step))
  | Neutral_stmt -> on_definition (fun l -> after_brace l (Printf.sprintf "int diff_dead%d = 0;" step))
  | Bug ->
      on_definition (fun l ->
          after_brace l
            (Printf.sprintf "int *diff_b%d = kmalloc(1); kfree(diff_b%d); *diff_b%d = 1;" step
               step step))
  | Comment -> text ^ Printf.sprintf "/* note %d */\n" step
  | Declaration -> text ^ Printf.sprintf "struct diff_decl%d { int v; };\n" step
  | Rename ->
      on_definition (fun l ->
          let name, _ = name_and_params l in
          let i = String.index l '(' in
          let j = i - String.length name in
          String.sub l 0 j ^ Printf.sprintf "%s_r%d" name step
          ^ String.sub l i (String.length l - i))
  | Recursion ->
      on_definition (fun l ->
          match name_and_params l with
          | name, (p :: _ as params) ->
              after_brace l
                (Printf.sprintf "if (%s) %s(%s);" p name (String.concat ", " params))
          | name, [] -> after_brace l (Printf.sprintf "%s();" name))
  | Anon_struct -> text ^ Printf.sprintf "struct { int h%d; } diff_anon%d;\n" step step

(* ------------------------------------------------------------------ *)
(* The property                                                        *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let f = Filename.temp_file "xgcc_test_differential" "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let corpus () =
  let dir = temp_dir () in
  List.map
    (fun (name, (g : Gen.t)) ->
      let path = Filename.concat dir name in
      write_file path g.Gen.source;
      (path, g.Gen.source))
    (Gen.generate_linked ~seed:3 ~n_files:2 ~funcs_per_file:3 ~bug_rate:0.5)

let print_script script =
  String.concat "; "
    (List.map
       (fun (e, file, fn) -> Printf.sprintf "%s file %d fn %d" (edit_name edits.(e)) file fn)
       script)

let reply_warnings r =
  match r with
  | Json_out.Obj fields -> (
      match List.assoc_opt "warnings" fields with
      | Some (Json_out.Arr ws) -> List.map (function Json_out.Str s -> s | _ -> "") ws
      | _ -> Alcotest.fail "reply without warnings")
  | _ -> Alcotest.fail "reply is not an object"

let reply_diagnostics r =
  match r with
  | Json_out.Obj fields -> (
      match List.assoc_opt "diagnostics" fields with
      | Some (Json_out.Str s) -> s
      | _ -> Alcotest.fail "reply without diagnostics")
  | _ -> Alcotest.fail "reply is not an object"

let run_script script =
  let files = corpus () in
  let paths = List.map fst files in
  let texts = Hashtbl.create 4 in
  List.iter (fun (p, s) -> Hashtbl.replace texts p s) files;
  let server =
    match Server.create (config ~store:true paths) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let agrees reply =
    let diags, warnings = oracle paths in
    String.equal diags (reply_diagnostics reply) && warnings = reply_warnings reply
  in
  let first, _ = Server.handle_request server ~more_pending:false Proto.Check in
  agrees first
  && List.for_all
       (fun (step, (e, file, fn)) ->
         let path = List.nth paths (file mod List.length paths) in
         let text = apply ~step (Hashtbl.find texts path) (edits.(e), fn) in
         Hashtbl.replace texts path text;
         let reply, _ =
           Server.handle_request server ~more_pending:false
             (Proto.Did_change { path; text = Some text })
         in
         (* the oracle reads the same text from disk *)
         write_file path text;
         agrees reply)
       (List.mapi (fun i op -> (i, op)) script)

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (triple (int_bound (Array.length edits - 1)) (int_bound 2) (int_bound 7)))

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
      (QCheck2.Test.make ~name:"daemon edits equal an uncached pass" ~count:40
         ~print:print_script script_gen run_script);
  ]
