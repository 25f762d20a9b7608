(* Generated differential test of the daemon. Fixed-seed QCheck scripts
   edit a small linked Gen corpus through [Server] didChange overlays:
   summary-changing and neutral statements, a planted use after free,
   trailing comments, declaration changes, renamed functions, introduced
   recursion and anonymous structs. After every step the daemon's diagnostics and
   warnings must equal an uncached -j 1 pass over the same text, which
   is what a cold [xgcc check --format json] prints. Whatever a re-check
   carries over from the last one (ASTs, CFGs, body hashes, positions,
   memory-store entries and the inputs of their keys) can only show up
   here as a difference. A failing script shrinks to a minimal one.
   The cases after the first run the scripts with all 14 checkers,
   compare every step with a pass that probes everything (over a memory
   store) and with a [check --cache-dir] pass (which reads the carry file
   its last run left), and run perfbench's edit cycle on a linked corpus.
   The last cases check [--cache-dir] passes against passes whose carry
   file was removed, over file additions, deletions, renames and
   reorders, a damaged carry file, a run that stores nothing, and two
   programs sharing one store. *)

(* errpath tags error paths, and the checkers after it see the tags *)
let checkers = [ "errpath"; "free"; "lock"; "null" ]

let exts ?(names = checkers) () =
  List.map
    (fun name ->
      match Registry.find name with
      | Some e -> (e.Registry.e_make (), Option.value e.Registry.e_source ~default:name)
      | None -> Alcotest.failf "no checker %s" name)
    names

let parse ~path ~source =
  match Cparse.parse_tunit ~file:path source with
  | tu -> Ok tu
  | exception Clex.Lex_error (loc, msg) ->
      Error (Printf.sprintf "%s: lexical error: %s" (Srcloc.to_string loc) msg)

(* The daemon's store: memory only. *)
let memory_store sources =
  Pass.open_store ~memory:true ~cache:None ~options:Engine.default_options sources

(* A [--cache-dir] store in [dir], opened as [check] opens it. *)
let disk_store ?(persist = true) dir sources =
  Pass.open_store ~memory:false ~cache:(Some (dir, persist)) ~options:Engine.default_options
    sources

(* [store] opens the store for the extensions' defining sources. *)
let config ?names ?(jobs = 1) ~store files =
  let exts = exts ?names () in
  {
    Pass.c_files = files;
    c_parse = parse;
    c_exts = List.map fst exts;
    c_options = Engine.default_options;
    c_jobs = jobs;
    c_store = store (List.map snd exts);
    c_rank = "generic";
  }

(* One pass of a fresh [Pass.t] over the files as they are on disk: its
   diagnostics and warnings. *)
let fresh_pass ?loader cfg =
  let warnings = ref [] in
  let p =
    Diag.with_sink
      (fun w -> warnings := w :: !warnings)
      (fun () -> Pass.run (Pass.create ?loader cfg))
  in
  (Json_out.reports_to_string p.Pass.ranked, List.rev !warnings)

(* [check --cache-dir DIR]'s pass over [files]: a disk store in [dir]
   and the loader [check] parses through, its AST cache there too, so
   each run of it reads the carry file the run before it left. *)
let cache_dir_pass ?names ?persist ~dir files =
  let loader = Loader.create ~ast_cache:(dir, Option.value persist ~default:true) () in
  ( { (config ?names ~store:(disk_store ?persist dir) files) with Pass.c_parse = Loader.parse loader },
    loader )

(* The oracle: one uncached -j 1 pass. *)
let oracle ?names files = fresh_pass (config ?names ~store:(fun _ -> None) files)

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

let temp_dir () = Temp.dir "xgcc_test_differential"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let corpus ?(seed = 3) () =
  let dir = temp_dir () in
  List.map
    (fun (name, (g : Gen.t)) ->
      let path = Filename.concat dir name in
      write_file path g.Gen.source;
      (path, g.Gen.source))
    (Gen.generate_linked ~seed ~n_files:2 ~funcs_per_file:3 ~bug_rate:0.5)

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

(* Drive [script] through a daemon over [config]'s store; [agrees]
   judges the first reply and the reply to every step, with the step's
   text already on disk. *)
let drive ~config ~agrees script =
  let files = corpus () in
  let paths = List.map fst files in
  let texts = Hashtbl.create 4 in
  List.iter (fun (p, s) -> Hashtbl.replace texts p s) files;
  let cfg = config paths in
  let server =
    match Server.create cfg with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let agrees = agrees cfg in
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

let run_script ?names script =
  drive script
    ~config:(fun paths -> config ?names ~store:memory_store paths)
    ~agrees:(fun (cfg : Pass.config) reply ->
      let diags, warnings = oracle ?names cfg.Pass.c_files in
      String.equal diags (reply_diagnostics reply) && warnings = reply_warnings reply)

(* ------------------------------------------------------------------ *)
(* What a daemon pass carries                                          *)
(* ------------------------------------------------------------------ *)

(* A daemon pass probes only the functions its edit can reach and merges
   every other root's last output unprobed. The oracle is a pass that
   probes everything: a fresh [Pass.t] (nothing carried) over a store of
   its own that has seen the same texts. Both must give the same
   diagnostics, warnings and store counters. The fresh pass runs the same
   engine code as the daemon's, with every function and root dirty, so
   this checks the dirty-set logic against "everything dirty"; the
   uncached pass of the cases above stays the independent oracle of the
   output. *)

(* What a pass that probes everything did too. *)
let counters (st : Summary_store.stats) =
  Summary_store.
    [
      ("roots_replayed", st.roots_replayed);
      ("roots_recomputed", st.roots_recomputed);
      ("fns_recomputed", st.fns_recomputed);
      ("sums_unchanged", st.sums_unchanged);
      ("roots_salvaged", st.roots_salvaged);
    ]

(* What only a pass that carries the same as the daemon did too: its
   probes and its reused roots. *)
let carried_counters (st : Summary_store.stats) =
  Summary_store.
    [
      ("fn_hits", st.fn_hits);
      ("fn_stale", st.fn_stale);
      ("fn_absent", st.fn_absent);
      ("roots_reused", st.roots_reused);
    ]

let stats (cfg : Pass.config) = Summary_store.stats (Option.get cfg.c_store)

(* [agrees] for a daemon over [cfg]: the oracle is a fresh pass over
   [own], a config with a store of its own, compared on [compared]. *)
let agrees_with ?loader ~compared ~own (cfg : Pass.config) reply =
  let diags, warnings = fresh_pass ?loader own in
  String.equal diags (reply_diagnostics reply)
  && warnings = reply_warnings reply
  && compared (stats own) = compared (stats cfg)

(* [oracle] makes the oracle's config (and loader) for the daemon's
   files, once per script. *)
let run_script_oracle ?names ~oracle ~compared script =
  drive script
    ~config:(fun paths -> config ?names ~store:memory_store paths)
    ~agrees:(fun cfg ->
      let own, loader = oracle cfg.Pass.c_files in
      agrees_with ?loader ~compared ~own cfg)

(* The oracle that probes everything: a fresh [Pass.t] over a memory
   store that has seen the same texts. Both stores hold the inputs of
   every key they matched, so they digest the same keys. *)
let probes_everything ?names script =
  run_script_oracle ?names script
    ~oracle:(fun files -> (config ?names ~store:memory_store files, None))
    ~compared:(fun st ->
      ("keys_computed", st.Summary_store.keys_computed) :: counters st)

(* The [--cache-dir] oracle: a fresh pass over a disk store that reads
   the carry file the pass before it left, so it probes what the
   daemon's edit can reach, and merges every other root from its pack
   slot. Its slots read from packs hold no key inputs, so it digests
   every key it compares, and its [keys_computed] differs by design;
   every other counter is the daemon's. *)
let cache_dir_agrees ?names script =
  run_script_oracle ?names script
    ~oracle:(fun files ->
      let own, loader = cache_dir_pass ?names ~dir:(temp_dir ()) files in
      (own, Some loader))
    ~compared:(fun st -> counters st @ carried_counters st)

(* perfbench's edit cycle on one file: an allocate-and-free at the top of
   its first release helper (of its first function when it has none), a
   dead local on the opening line of the helper's caller (of the helper
   itself when no function of the file calls it), a trailing comment, and
   the original text. *)
let edit_cycle text =
  let lines = String.split_on_char '\n' text in
  let is_helper l =
    is_definition l
    && (String.starts_with ~prefix:"void " l || String.starts_with ~prefix:"static void " l)
    && String.ends_with ~suffix:"_release" (fst (name_and_params l))
    && snd (name_and_params l) = [ "p" ]
  in
  let helper, caller =
    match List.find_opt is_helper lines with
    | Some h ->
        let name = fst (name_and_params h) in
        let base = String.sub name 0 (String.length name - String.length "_release") in
        ( h,
          List.find_opt
            (fun l ->
              is_definition l
              && String.starts_with ~prefix:"int " l
              && String.ends_with ~suffix:") {" l
              && fst (name_and_params l) = base)
            lines )
    | None -> (List.find is_definition lines, None)
  in
  let on target f text =
    String.concat "\n"
      (List.map (fun l -> if String.equal l target then f l else l)
         (String.split_on_char '\n' text))
  in
  let summary l = after_brace l "int *t = kmalloc(1); kfree(t);" in
  let dead l = after_brace l "int bench_dead = 0;" in
  let e1 = on helper summary text in
  let e2 = on (match caller with Some c -> c | None -> summary helper) dead e1 in
  let e3 = e2 ^ "/* reviewed: comment-only edit */\n" in
  [ ("summary_edit", e1); ("neutral_edit", e2); ("comment_edit", e3); ("revert", text) ]

let field r k =
  match r with
  | Json_out.Obj fields -> List.assoc_opt k fields
  | _ -> None

(* A linked corpus whose helpers.c every root calls: an edit there can
   reuse no root, and an edit of one linked file reuses the others'. *)
let linked_cycles jobs () =
  let names = Registry.names () in
  let dir = temp_dir () in
  let files =
    List.map
      (fun (name, (g : Gen.t)) ->
        let path = Filename.concat dir name in
        write_file path g.Gen.source;
        (path, g.Gen.source))
      (Gen.generate_linked ~seed:21 ~n_files:4 ~funcs_per_file:8 ~bug_rate:0.3)
  in
  let paths = List.map fst files in
  let cfg = config ~names ~jobs ~store:memory_store paths in
  let server =
    match Server.create cfg with Ok s -> s | Error m -> Alcotest.fail m
  in
  let request r = fst (Server.handle_request server ~more_pending:false r) in
  let check_reply label reply =
    let diags, warnings = oracle ~names paths in
    Alcotest.(check string) (label ^ ": diagnostics") diags (reply_diagnostics reply);
    Alcotest.(check (list string)) (label ^ ": warnings") warnings (reply_warnings reply)
  in
  check_reply "warm-up" (request Proto.Check);
  let reused () =
    match field (request Proto.Stats) "roots_reused" with
    | Some (Json_out.Int n) -> n
    | _ -> Alcotest.fail "stats without roots_reused"
  in
  let cycle file check_reused =
    let path = Filename.concat dir file in
    List.iter
      (fun (kind, text) ->
        let reply = request (Proto.Did_change { path; text = Some text }) in
        write_file path text;
        let label = Printf.sprintf "-j %d %s %s" jobs file kind in
        check_reply label reply;
        check_reused label kind (reused ()))
      (edit_cycle (List.assoc path files))
  in
  cycle "helpers.c" (fun label _ n -> Alcotest.(check int) (label ^ ": roots reused") 0 n);
  cycle "linked_2.c" (fun label kind n ->
      if kind = "comment_edit" then
        Alcotest.(check bool) (label ^ ": roots reused") true (n > 0))

let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (triple (int_bound (Array.length edits - 1)) (int_bound 2) (int_bound 7)))

(* ------------------------------------------------------------------ *)
(* The carry file                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One [check --cache-dir DIR] run over [files]: its diagnostics,
   warnings and store counters. *)
let cache_dir_run ?names ?persist ~dir files =
  let cfg, loader = cache_dir_pass ?names ?persist ~dir files in
  let diags, warnings = fresh_pass ~loader cfg in
  (diags, warnings, stats cfg)

let remove_carry dir = try Sys.remove (Summary_store.carry_path ~dir) with Sys_error _ -> ()

(* Does a run with the carry file agree with a run over a store of its
   own that has seen the same inputs but whose carry file is removed
   first (it probes everything), and both with an uncached pass? *)
let agrees_without_carry ?names ~with_carry ~without files =
  remove_carry without;
  let d, w, st = cache_dir_run ?names ~dir:with_carry files in
  let d', w', st' = cache_dir_run ?names ~dir:without files in
  let d0, w0 = oracle ?names files in
  String.equal d d' && String.equal d d0 && w = w' && w = w0 && counters st = counters st'

(* Steps over a program's file list: an edit of one file's text, a new
   file that copies one (placed anywhere in the input order, so its
   duplicate definitions may shadow the original's), a file deleted, a
   file renamed, two neighbours swapped in the input order. *)
type tree_op = Edit_file | Add_file | Delete_file | Rename_file | Swap_files

let tree_ops = [| Edit_file; Add_file; Delete_file; Rename_file; Swap_files |]

let print_tree_script ops =
  String.concat "; "
    (List.map
       (fun (op, a, b, c) ->
         Printf.sprintf "%s %d %d %d"
           (match tree_ops.(op) with
           | Edit_file -> "edit"
           | Add_file -> "add"
           | Delete_file -> "delete"
           | Rename_file -> "rename"
           | Swap_files -> "swap")
           a b c)
       ops)

let tree_step ~dir ~step files (op, a, b, c) =
  let n = List.length files in
  let path = Filename.concat dir (Printf.sprintf "step_%d.c" step) in
  match tree_ops.(op) with
  | Edit_file ->
      let target, text = List.nth files (b mod n) in
      let text = apply ~step text (edits.(a mod Array.length edits), c) in
      write_file target text;
      List.map (fun (p, t) -> if p == target then (p, text) else (p, t)) files
  | Add_file ->
      let text = snd (List.nth files (a mod n)) ^ Printf.sprintf "/* copy %d */\n" step in
      write_file path text;
      let at = b mod (n + 1) in
      List.filteri (fun i _ -> i < at) files @ ((path, text) :: List.filteri (fun i _ -> i >= at) files)
  | Delete_file when n > 1 -> List.filteri (fun i _ -> i <> a mod n) files
  | Rename_file ->
      List.mapi
        (fun i (p, t) ->
          if i = a mod n then begin
            write_file path t;
            (path, t)
          end
          else (p, t))
        files
  | Swap_files when n > 1 ->
      let i = a mod (n - 1) in
      let arr = Array.of_list files in
      let x = arr.(i) in
      arr.(i) <- arr.(i + 1);
      arr.(i + 1) <- x;
      Array.to_list arr
  | Delete_file | Swap_files -> files

let tree_script_agrees ?names ops =
  let dir = temp_dir () in
  let with_carry = temp_dir () and without = temp_dir () in
  let files =
    ref
      (List.map
         (fun (p, t) ->
           let p' = Filename.concat dir (Filename.basename p) in
           write_file p' t;
           (p', t))
         (corpus ()))
  in
  let agrees () = agrees_without_carry ?names ~with_carry ~without (List.map fst !files) in
  agrees ()
  && List.for_all
       (fun (step, op) ->
         files := tree_step ~dir ~step !files op;
         agrees ())
       (List.mapi (fun i op -> (i, op)) ops)

let tree_script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (quad (int_bound (Array.length tree_ops - 1)) (int_bound 7) (int_bound 7) (int_bound 7)))

(* A carry file that cannot be trusted: cut short, a byte flipped,
   random bytes, another program's over the same checkers, or the
   store's own from before its packs last changed (for the program it
   names, whose slots an edit since undone replaced). The run over it
   reports what an uncached run does and leaves a good file (the last
   case's run truncates the packs back to what the old file names), and
   the run after that reuses roots. *)
let faults = [| "truncated"; "flipped"; "random"; "other program"; "older" |]

let carry_fault (fault, k) =
  let paths = List.map fst (corpus ()) in
  let dir = temp_dir () in
  let carry = Summary_store.carry_path ~dir in
  let run () = cache_dir_run ~dir paths in
  ignore (run ());
  let good = read_file carry in
  let bad =
    match faults.(fault) with
    | "truncated" -> String.sub good 0 (k mod String.length good)
    | "flipped" ->
        let b = Bytes.of_string good in
        let i = k mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (k mod 255))));
        Bytes.to_string b
    | "random" ->
        let st = Random.State.make [| k |] in
        String.init (k mod 512) (fun _ -> Char.chr (Random.State.int st 256))
    | "other program" ->
        let other = temp_dir () in
        ignore (cache_dir_run ~dir:other (List.map fst (corpus ~seed:4 ())));
        read_file (Summary_store.carry_path ~dir:other)
    | _ ->
        (* the packs saw an edit that was then undone, the file did not:
           its clean slots are the edit's *)
        let p = List.nth paths (k mod List.length paths) in
        let text = read_file p in
        write_file p (apply ~step:k text (Bug, k));
        ignore (run ());
        write_file p text;
        good
  in
  write_file carry bad;
  let diags, warnings, _ = run () in
  let diags0, warnings0 = oracle paths in
  let valid = Result.is_ok (Engine.carry_file ~dir) in
  let _, _, st = run () in
  String.equal diags diags0 && warnings = warnings0 && valid
  && st.Summary_store.roots_reused > 0

(* After an edit, a run that stores nothing recomputes the edited
   functions and roots without storing them. It must not write the carry
   file: one that recorded the edited program would vouch for packs that
   still hold the entries of the program before it. *)
let no_persist_leaves_the_carry () =
  let names = Registry.names () in
  let paths = List.map fst (corpus ()) in
  let dir = temp_dir () in
  let carry = Summary_store.carry_path ~dir in
  ignore (cache_dir_run ~names ~dir paths);
  let before = read_file carry in
  let p = List.hd paths in
  write_file p (apply ~step:0 (read_file p) (Bug, 1));
  let expected, _ = oracle ~names paths in
  let d, _, _ = cache_dir_run ~names ~persist:false ~dir paths in
  Alcotest.(check string) "a run that stores nothing reports the edit" expected d;
  Alcotest.(check string) "and leaves the carry file" before (read_file carry);
  let d, _, st = cache_dir_run ~names ~dir paths in
  Alcotest.(check string) "the next run reports the edit" expected d;
  Alcotest.(check bool) "and probes what it reaches" true (st.Summary_store.fn_stale > 0)

(* Two programs take turns over one cache directory, each edited between
   its turns; each run's carry file is the other program's. *)
let two_programs_share_a_store () =
  let names = Registry.names () in
  let a = List.map fst (corpus ()) and b = List.map fst (corpus ~seed:5 ()) in
  let with_carry = temp_dir () and without = temp_dir () in
  List.iteri
    (fun round files ->
      if round >= 2 then begin
        let p = List.nth files (round mod 2) in
        write_file p (apply ~step:round (read_file p) (edits.(round mod Array.length edits), round))
      end;
      Alcotest.(check bool)
        (Printf.sprintf "round %d agrees with a run without the carry file" round)
        true
        (agrees_without_carry ~names ~with_carry ~without files))
    [ a; b; a; b; a; b ]

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
      (QCheck2.Test.make ~name:"daemon edits equal an uncached pass" ~count:40
         ~print:print_script script_gen (fun script -> run_script script));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
      (QCheck2.Test.make ~name:"daemon edits equal an uncached pass, all checkers"
         ~count:20 ~print:print_script script_gen (fun script ->
           run_script ~names:(Registry.names ()) script));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
      (QCheck2.Test.make ~name:"a daemon pass equals one that probes everything"
         ~count:30 ~print:print_script script_gen (fun script ->
           probes_everything ~names:(Registry.names ()) script));
    Alcotest.test_case "linked edit cycles reuse only unreachable roots, -j 1" `Quick
      (linked_cycles 1);
    Alcotest.test_case "linked edit cycles reuse only unreachable roots, -j 2" `Quick
      (linked_cycles 2);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
      (QCheck2.Test.make ~name:"a daemon pass equals a --cache-dir pass" ~count:30
         ~print:print_script script_gen (fun script ->
           cache_dir_agrees ~names:(Registry.names ()) script));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
      (QCheck2.Test.make ~name:"a --cache-dir pass equals one without its carry file"
         ~count:20 ~print:print_tree_script tree_script_gen (fun ops ->
           tree_script_agrees ~names:(Registry.names ()) ops));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
      (QCheck2.Test.make ~name:"an untrusted carry file costs one full run" ~count:25
         ~print:(fun (f, k) -> Printf.sprintf "%s %d" faults.(f) k)
         QCheck2.Gen.(pair (int_bound (Array.length faults - 1)) (int_bound 1_000_000))
         carry_fault);
    Alcotest.test_case "a run that stores nothing leaves the carry file" `Quick
      no_persist_leaves_the_carry;
    Alcotest.test_case "two programs alternate over one store" `Quick
      two_programs_share_a_store;
  ]
