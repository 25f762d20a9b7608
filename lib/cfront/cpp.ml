type macro = { m_params : string list option; m_body : string }

type env = (string, macro) Hashtbl.t

exception Cpp_error of Srcloc.t * string

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let parse_macro_def name_and_body =
  (* "NAME rest", "NAME(a, b) rest" *)
  let s = String.trim name_and_body in
  let n = String.length s in
  let rec ident_end i = if i < n && is_ident_char s.[i] then ident_end (i + 1) else i in
  let ie = ident_end 0 in
  let name = String.sub s 0 ie in
  if ie < n && Char.equal s.[ie] '(' then begin
    (* function-like: parameters up to the matching ')' *)
    match String.index_from_opt s ie ')' with
    | None -> (name, { m_params = Some []; m_body = "" })
    | Some close ->
        let params_text = String.sub s (ie + 1) (close - ie - 1) in
        let params =
          if String.trim params_text = "" then []
          else List.map String.trim (String.split_on_char ',' params_text)
        in
        let body =
          if close + 1 >= n then "" else String.trim (String.sub s (close + 1) (n - close - 1))
        in
        (name, { m_params = Some params; m_body = body })
  end
  else
    let body = if ie >= n then "" else String.trim (String.sub s ie (n - ie)) in
    (name, { m_params = None; m_body = body })

let env_of_defines defines =
  let env = Hashtbl.create 16 in
  List.iter
    (fun (name, body) ->
      (* "NAME" / "NAME(a,b)" on the left; parse_macro_def handles both *)
      let n, m = parse_macro_def (name ^ " " ^ body) in
      Hashtbl.replace env n m)
    defines;
  env

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)
(* ------------------------------------------------------------------ *)

(* Substitute parameters in a macro body by identifier occurrence. *)
let subst_params params args body =
  let assoc = List.combine params args in
  let buf = Buffer.create (String.length body + 16) in
  let n = String.length body in
  let i = ref 0 in
  while !i < n do
    let c = body.[!i] in
    if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char body.[!i] do
        incr i
      done;
      let word = String.sub body start (!i - start) in
      match List.assoc_opt word assoc with
      | Some arg -> Buffer.add_string buf arg
      | None -> Buffer.add_string buf word
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* Parse a balanced, comma-separated argument list starting after '('.
   Returns (args, position after ')') or None if unbalanced. *)
let parse_args s start =
  let n = String.length s in
  let rec go i depth current acc in_str in_chr =
    if i >= n then None
    else
      let c = s.[i] in
      if in_str then
        go (i + 1) depth (current ^ String.make 1 c) acc
          (not (Char.equal c '"' && (i = 0 || not (Char.equal s.[i - 1] '\\'))))
          in_chr
      else if in_chr then
        go (i + 1) depth (current ^ String.make 1 c) acc in_str
          (not (Char.equal c '\'' && (i = 0 || not (Char.equal s.[i - 1] '\\'))))
      else
        match c with
        | '"' -> go (i + 1) depth (current ^ "\"") acc true in_chr
        | '\'' -> go (i + 1) depth (current ^ "'") acc in_str true
        | '(' -> go (i + 1) (depth + 1) (current ^ "(") acc in_str in_chr
        | ')' when depth = 0 -> Some (List.rev (String.trim current :: acc), i + 1)
        | ')' -> go (i + 1) (depth - 1) (current ^ ")") acc in_str in_chr
        | ',' when depth = 0 -> go (i + 1) depth "" (String.trim current :: acc) in_str in_chr
        | c -> go (i + 1) depth (current ^ String.make 1 c) acc in_str in_chr
  in
  go start 0 "" [] false false

(* One expansion pass over a line: returns (expanded, any_change).
   [hidden] holds macro names currently being expanded (self-reference
   guard). Strings, chars and comments are copied verbatim. *)
let rec expand_once env hidden line =
  let n = String.length line in
  let buf = Buffer.create (n + 32) in
  let changed = ref false in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if Char.equal c '"' then begin
      (* copy string literal *)
      Buffer.add_char buf c;
      incr i;
      let continue_ = ref true in
      while !continue_ && !i < n do
        Buffer.add_char buf line.[!i];
        if Char.equal line.[!i] '\\' && !i + 1 < n then begin
          Buffer.add_char buf line.[!i + 1];
          i := !i + 2
        end
        else begin
          if Char.equal line.[!i] '"' then continue_ := false;
          incr i
        end
      done
    end
    else if Char.equal c '\'' then begin
      Buffer.add_char buf c;
      incr i;
      let continue_ = ref true in
      while !continue_ && !i < n do
        Buffer.add_char buf line.[!i];
        if Char.equal line.[!i] '\\' && !i + 1 < n then begin
          Buffer.add_char buf line.[!i + 1];
          i := !i + 2
        end
        else begin
          if Char.equal line.[!i] '\'' then continue_ := false;
          incr i
        end
      done
    end
    else if Char.equal c '/' && !i + 1 < n && Char.equal line.[!i + 1] '/' then begin
      Buffer.add_string buf (String.sub line !i (n - !i));
      i := n
    end
    else if Char.equal c '/' && !i + 1 < n && Char.equal line.[!i + 1] '*' then begin
      (* copy comment to its end (or end of line) *)
      let close = ref None in
      let j = ref (!i + 2) in
      while !close = None && !j + 1 < n do
        if Char.equal line.[!j] '*' && Char.equal line.[!j + 1] '/' then close := Some (!j + 2);
        incr j
      done;
      let stop = Option.value !close ~default:n in
      Buffer.add_string buf (String.sub line !i (stop - !i));
      i := stop
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do
        incr i
      done;
      let word = String.sub line start (!i - start) in
      match Hashtbl.find_opt env word with
      | Some m when not (List.mem word hidden) -> (
          match m.m_params with
          | None ->
              changed := true;
              let body, _ = expand_once env (word :: hidden) m.m_body in
              Buffer.add_string buf body
          | Some params -> (
              (* needs an argument list right here (whitespace allowed) *)
              let j = ref !i in
              while !j < n && (Char.equal line.[!j] ' ' || Char.equal line.[!j] '\t') do
                incr j
              done;
              if !j < n && Char.equal line.[!j] '(' then
                match parse_args line (!j + 1) with
                | Some (args, after) when List.length args = List.length params ->
                    changed := true;
                    let substituted = subst_params params args m.m_body in
                    let body, _ = expand_once env (word :: hidden) substituted in
                    Buffer.add_string buf body;
                    i := after
                | Some (args, after)
                  when params = [] && args = [ "" ] ->
                    changed := true;
                    let body, _ = expand_once env (word :: hidden) m.m_body in
                    Buffer.add_string buf body;
                    i := after
                | _ -> Buffer.add_string buf word
              else Buffer.add_string buf word))
      | _ -> Buffer.add_string buf word
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  (Buffer.contents buf, !changed)

let expand_line env line =
  let rec fix line fuel =
    if fuel = 0 then line
    else
      let line', changed = expand_once env [] line in
      if changed then fix line' (fuel - 1) else line'
  in
  fix line 16

(* ------------------------------------------------------------------ *)
(* #if / #elif integer constant expressions                            *)
(* ------------------------------------------------------------------ *)

(* Resolve [defined(X)] / [defined X] to 1/0 *before* macro expansion
   (expanding the operand first would be wrong: [#if defined(FOO)] asks
   about FOO itself, not its body). *)
let resolve_defined env s =
  let n = String.length s in
  let buf = Buffer.create (n + 8) in
  let i = ref 0 in
  let skip_ws j =
    let j = ref j in
    while !j < n && (Char.equal s.[!j] ' ' || Char.equal s.[!j] '\t') do incr j done;
    !j
  in
  let ident_end j =
    let j = ref j in
    while !j < n && is_ident_char s.[!j] do incr j done;
    !j
  in
  while !i < n do
    let c = s.[!i] in
    if is_ident_start c then begin
      let we = ident_end !i in
      let word = String.sub s !i (we - !i) in
      if String.equal word "defined" then begin
        let j = skip_ws we in
        let operand =
          if j < n && Char.equal s.[j] '(' then begin
            let k = skip_ws (j + 1) in
            let ke = ident_end k in
            if ke > k then
              let close = skip_ws ke in
              if close < n && Char.equal s.[close] ')' then
                Some (String.sub s k (ke - k), close + 1)
              else None
            else None
          end
          else
            let ke = ident_end j in
            if ke > j then Some (String.sub s j (ke - j), ke) else None
        in
        match operand with
        | Some (name, stop) ->
            Buffer.add_string buf (if Hashtbl.mem env name then " 1 " else " 0 ");
            i := stop
        | None ->
            Buffer.add_string buf word;
            i := we
      end
      else begin
        Buffer.add_string buf word;
        i := we
      end
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* Fold a condition the C expression grammar parsed: integer and
   character literals, identifiers (those that survive macro expansion
   are undefined, so 0), the unary and binary operators and [?:], with
   [&&] and [||] short-circuiting as in C. *)
let rec fold ~err (e : Cast.expr) =
  let nonzero e = not (Int64.equal (fold ~err e) 0L) in
  let not_constant = "not an integer constant expression in #if" in
  match e.Cast.enode with
  | Cast.Eint n -> n
  | Cast.Echar c -> Int64.of_int (Char.code c)
  | Cast.Eident _ -> 0L
  | Cast.Eunary (op, a) -> (
      match Cparse.unop_value op (fold ~err a) with
      | Some v -> v
      | None -> raise (err not_constant))
  | Cast.Econd (c, a, b) -> if nonzero c then fold ~err a else fold ~err b
  | Cast.Ebinary (Cast.Land, a, b) -> if nonzero a && nonzero b then 1L else 0L
  | Cast.Ebinary (Cast.Lor, a, b) -> if nonzero a || nonzero b then 1L else 0L
  | Cast.Ebinary (op, a, b) -> (
      let x = fold ~err a in
      let y = fold ~err b in
      match Cparse.binop_value op x y with
      | Some v -> v
      | None ->
          raise (err ((if op = Cast.Div then "division" else "modulo") ^ " by zero in #if")))
  | _ -> raise (err not_constant)

let eval_condition env ~file ~line s =
  let err msg = Cpp_error (Srcloc.make ~file ~line ~col:1, msg) in
  try
    let s = resolve_defined env s in
    let s = expand_line env s in
    (* expansion may reintroduce [defined] from a macro body *)
    let s = resolve_defined env s in
    match Cparse.expr_of_string ~file s with
    | e -> not (Int64.equal (fold ~err e) 0L)
    | exception (Clex.Lex_error (_, msg) | Cparse.Parse_error (_, msg)) ->
        raise (err msg)
  with Cpp_error (loc, msg) ->
    (* A malformed constant expression — division/modulo by zero, a
       construct outside integer constant expressions, stray tokens —
       must not kill the whole translation unit (real trees are full of
       exotic #ifs). Degrade to "condition false" with a warning;
       structural errors (#else without #if, include nesting) elsewhere
       in the driver stay fatal. *)
    Diag.warnf "%s: #if condition treated as false: %s" (Srcloc.to_string loc)
      msg;
    false

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Physical lines with continuations joined; each logical line remembers
   how many physical lines it covered so we can keep line numbers stable. *)
let logical_lines src =
  let lines = String.split_on_char '\n' src in
  let rec join acc = function
    | [] -> List.rev acc
    | line :: rest ->
        let rec absorb text count rest =
          if String.length text > 0 && Char.equal text.[String.length text - 1] '\\' then
            match rest with
            | next :: rest' ->
                absorb (String.sub text 0 (String.length text - 1) ^ next) (count + 1) rest'
            | [] -> (text, count, [])
          else (text, count, rest)
        in
        let text, count, rest = absorb line 1 rest in
        join ((text, count) :: acc) rest
  in
  join [] lines

let directive_of line =
  let t = String.trim line in
  if String.length t > 0 && Char.equal t.[0] '#' then begin
    let rest = String.trim (String.sub t 1 (String.length t - 1)) in
    let n = String.length rest in
    let rec word_end i = if i < n && is_ident_char rest.[i] then word_end (i + 1) else i in
    let we = word_end 0 in
    let name = String.sub rest 0 we in
    let arg = if we >= n then "" else String.trim (String.sub rest we (n - we)) in
    Some (name, arg)
  end
  else None

let preprocess ?(defines = []) ?(resolve_include = fun _ -> None) ~file src =
  let env = env_of_defines defines in
  (* output accumulated as lines (reversed) so directive/continuation lines
     can be replaced by exactly as many blank lines, keeping locations
     stable; included files splice their own lines in *)
  let out_lines : string list ref = ref [] in
  let emit_line l = out_lines := l :: !out_lines in
  let blank_lines k = for _ = 1 to k do emit_line "" done in
  (* conditional stack: each frame is (currently_emitting, any_branch_taken) *)
  let stack : (bool * bool) list ref = ref [] in
  let emitting () = List.for_all fst !stack in
  let depth = ref 0 in
  let rec process_source ~file src =
    incr depth;
    if !depth > 16 then
      raise (Cpp_error (Srcloc.make ~file ~line:1 ~col:1, "include nesting too deep"));
    let lineno = ref 0 in
    List.iter
      (fun (line, span) ->
        lineno := !lineno + span;
        match directive_of line with
        | Some ("define", arg) ->
            if emitting () then begin
              let name, m = parse_macro_def arg in
              if String.equal name "" then
                raise
                  (Cpp_error (Srcloc.make ~file ~line:!lineno ~col:1, "bad #define"))
              else Hashtbl.replace env name m
            end;
            blank_lines span
        | Some ("undef", arg) ->
            if emitting () then Hashtbl.remove env (String.trim arg);
            blank_lines span
        | Some ("ifdef", arg) ->
            let hold = Hashtbl.mem env (String.trim arg) in
            stack := (hold, hold) :: !stack;
            blank_lines span
        | Some ("ifndef", arg) ->
            let hold = not (Hashtbl.mem env (String.trim arg)) in
            stack := (hold, hold) :: !stack;
            blank_lines span
        | Some ("if", arg) ->
            (* only evaluate inside an active region: skipped regions may
               contain expressions over undefined syntax we must ignore *)
            let hold =
              emitting () && eval_condition env ~file ~line:!lineno arg
            in
            stack := (hold, hold) :: !stack;
            blank_lines span
        | Some ("else", _) ->
            (match !stack with
            | (_, taken) :: rest -> stack := (not taken, true) :: rest
            | [] ->
                raise
                  (Cpp_error
                     (Srcloc.make ~file ~line:!lineno ~col:1, "#else without #if")));
            blank_lines span
        | Some ("elif", arg) ->
            (match !stack with
            | (_, taken) :: rest ->
                let parent_active = List.for_all fst rest in
                let hold =
                  (not taken) && parent_active
                  && eval_condition env ~file ~line:!lineno arg
                in
                stack := (hold, taken || hold) :: rest
            | [] ->
                raise
                  (Cpp_error
                     (Srcloc.make ~file ~line:!lineno ~col:1, "#elif without #if")));
            blank_lines span
        | Some ("endif", _) ->
            (match !stack with
            | _ :: rest -> stack := rest
            | [] ->
                raise
                  (Cpp_error
                     (Srcloc.make ~file ~line:!lineno ~col:1, "#endif without #if")));
            blank_lines span
        | Some ("include", arg) ->
            if emitting () then begin
              let name =
                let t = String.trim arg in
                let strip_delims l r =
                  if
                    String.length t >= 2
                    && Char.equal t.[0] l
                    && Char.equal t.[String.length t - 1] r
                  then Some (String.sub t 1 (String.length t - 2))
                  else None
                in
                match strip_delims '"' '"' with
                | Some n -> Some n
                | None -> strip_delims '<' '>'
              in
              match Option.map resolve_include name |> Option.join with
              | Some content ->
                  process_source ~file:(Option.get name) content;
                  blank_lines span
              | None ->
                  emit_line "/* include skipped */";
                  blank_lines (span - 1)
            end
            else blank_lines span
        | Some (_, _) ->
            (* #pragma, #error, ...: skipped *)
            blank_lines span
        | None ->
            if emitting () then begin
              emit_line (expand_line env line);
              blank_lines (span - 1)
            end
            else blank_lines span)
      (logical_lines src);
    decr depth
  in
  process_source ~file src;
  String.concat "\n" (List.rev !out_lines)
