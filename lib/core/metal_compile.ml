exception Compile_error of Srcloc.t * string

(* ------------------------------------------------------------------ *)
(* Action interpretation                                               *)
(* ------------------------------------------------------------------ *)

let value_to_string = function
  | Callout.Vstr s -> s
  | Callout.Vint n -> Int64.to_string n
  | Callout.Vbool b -> string_of_bool b
  | Callout.Vast e -> Cprint.expr_to_string e
  | Callout.Vargs es -> String.concat ", " (List.map Cprint.expr_to_string es)
  | Callout.Vunit -> ""

(* Substitute "%s"/"%d" placeholders left to right. *)
let format_message fmt values =
  let buf = Buffer.create (String.length fmt + 16) in
  let values = ref values in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if
      !i + 1 < n
      && Char.equal fmt.[!i] '%'
      && (Char.equal fmt.[!i + 1] 's' || Char.equal fmt.[!i + 1] 'd')
    then begin
      (match !values with
      | v :: rest ->
          Buffer.add_string buf (value_to_string v);
          values := rest
      | [] -> Buffer.add_string buf "?");
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let int_of_value = function
  | Callout.Vint n -> Int64.to_int n
  | Callout.Vbool true -> 1
  | _ -> 0

(* Per-action-block mutable state: annotations and rule accumulate and
   apply to subsequent err() calls in the same block. *)
let run_actions (stmts : Metal_ast.action_stmt list) : Sm.action =
 fun (actx : Sm.actx) ->
  let cctx =
    { Callout.typing = actx.a_typing; node = actx.a_node; annots = actx.a_annots }
  in
  let eval e = Pattern.eval_callout cctx actx.a_bindings e in
  let annotations = ref [] in
  let rule = ref None in
  let emit fmt_expr rest_args =
    let fmt = value_to_string (eval fmt_expr) in
    let values = List.map eval rest_args in
    let msg = format_message fmt values in
    actx.a_report ~annotations:(List.rev !annotations) ?rule:!rule msg
  in
  List.iter
    (fun (stmt : Metal_ast.action_stmt) ->
      match (stmt.ac_name, stmt.ac_args) with
      | "err", fmt :: rest -> emit fmt rest
      | "annotate", [ tag ] -> annotations := value_to_string (eval tag) :: !annotations
      | "set_rule", [ r ] -> rule := Some (value_to_string (eval r))
      | "example", [ r ] -> actx.a_count `Example (value_to_string (eval r))
      | "counterexample", [ r ] ->
          actx.a_count `Counterexample (value_to_string (eval r))
      (* per-function counters: "Ranking code" (Section 9) scores each
         function by how often it obeys vs. violates the rule *)
      | "example_in_func", [] -> actx.a_count `Example actx.a_func
      | "counterexample_in_func", [] -> actx.a_count `Counterexample actx.a_func
      | "set_rule_to_func", [] -> rule := Some actx.a_func
      | "annotate_ast", [ hole; tag ] -> (
          match eval hole with
          | Callout.Vast e -> actx.a_annotate e (value_to_string (eval tag))
          | _ -> ())
      | "kill_path", [] -> actx.a_kill_path ()
      | "set_global", [ g ] ->
          (* Section 3.1: escapes "may also update the value of the global
             instance directly" *)
          actx.a_sm.Sm.gstate <- value_to_string (eval g)
      | "incr", [ field ] -> (
          match actx.a_inst with
          | Some i ->
              let f = value_to_string (eval field) in
              Sm.set_int i f (Sm.get_int i f + 1)
          | None -> ())
      | "decr", [ field ] -> (
          match actx.a_inst with
          | Some i ->
              let f = value_to_string (eval field) in
              Sm.set_int i f (Sm.get_int i f - 1)
          | None -> ())
      | "set", [ field; v ] -> (
          match actx.a_inst with
          | Some i -> Sm.set_int i (value_to_string (eval field)) (int_of_value (eval v))
          | None -> ())
      | "err_if_over", [ field; limit; fmt ] -> (
          match actx.a_inst with
          | Some i ->
              let f = value_to_string (eval field) in
              if Sm.get_int i f > int_of_value (eval limit) then emit fmt []
          | None -> ())
      | "err_if_under", [ field; limit; fmt ] -> (
          match actx.a_inst with
          | Some i ->
              let f = value_to_string (eval field) in
              if Sm.get_int i f < int_of_value (eval limit) then emit fmt []
          | None -> ())
      | name, args ->
          (* escape: any registered callout may be used as an action *)
          (match Callout.lookup name with
          | Some fn -> ignore (fn cctx (List.map eval args))
          | None ->
              raise
                (Compile_error
                   (stmt.ac_loc, Printf.sprintf "unknown action '%s'" name))))
    stmts

(* ------------------------------------------------------------------ *)
(* Destinations                                                        *)
(* ------------------------------------------------------------------ *)

let rec compile_dest (m : Metal_ast.t) (d : Metal_ast.dest) : Sm.dest =
  match d with
  | Metal_ast.Dnone -> Sm.Same
  | Metal_ast.Dglobal s -> Sm.To_global s
  | Metal_ast.Dvar (v, s) -> (
      (match Metal_ast.svar_of m with
      | Some sv when String.equal sv v -> ()
      | _ ->
          raise
            (Compile_error
               ( m.sm_loc,
                 Printf.sprintf "destination '%s.%s' does not name the state variable" v
                   s )));
      if String.equal s Sm.stop_value then Sm.To_stop else Sm.To_var s)
  | Metal_ast.Dbranch (t, f) -> Sm.On_branch (compile_dest m t, compile_dest m f)

(* ------------------------------------------------------------------ *)
(* Whole state machines                                                *)
(* ------------------------------------------------------------------ *)

let compile (m : Metal_ast.t) : Sm.t =
  let svar = Metal_ast.svar_of m in
  let holes = Metal_ast.holes_of m in
  let start_state =
    match m.sm_clauses with
    | { c_source = Metal_ast.Sglobal g; _ } :: _ -> g
    | _ -> "start"
  in
  let compile_rule source (r : Metal_ast.rule) : Sm.transition =
    let action =
      match r.r_actions with [] -> None | stmts -> Some (run_actions stmts)
    in
    {
      Sm.tr_source = source;
      tr_pattern = r.r_pattern;
      tr_dest = compile_dest m r.r_dest;
      tr_action = action;
    }
  in
  let transitions =
    List.concat_map
      (fun (c : Metal_ast.clause) ->
        let source =
          match c.c_source with
          | Metal_ast.Sglobal g -> Sm.Src_global g
          | Metal_ast.Svar (v, s) ->
              (match svar with
              | Some sv when String.equal sv v -> ()
              | _ ->
                  raise
                    (Compile_error
                       ( m.sm_loc,
                         Printf.sprintf "clause source '%s.%s' does not name the state variable"
                           v s )));
              Sm.Src_var s
        in
        List.map (compile_rule source) c.c_rules)
      m.sm_clauses
  in
  let has_opt o = List.mem o m.sm_options in
  Sm.make ~name:m.sm_name ~start:start_state ?svar ~holes
    ~auto_kill:(not (has_opt "no_auto_kill"))
    ~track_synonyms:(not (has_opt "no_synonyms"))
    ~byval_restore:(has_opt "byval_restore") transitions

let load ~file src = List.map compile (Metal_parse.parse ~file src)
