type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* [s] escaped onto [buf]. A run of characters that need no escape is
   copied whole: a serve reply's diagnostics are one long string. *)
let add_escaped buf s =
  let n = String.length s in
  let rec go plain i =
    if i = n then Buffer.add_substring buf s plain (n - plain)
    else
      match s.[i] with
      | ('"' | '\\') as c ->
          Buffer.add_substring buf s plain (i - plain);
          Buffer.add_char buf '\\';
          Buffer.add_char buf c;
          go (i + 1) (i + 1)
      | c when c < ' ' ->
          Buffer.add_substring buf s plain (i - plain);
          Buffer.add_string buf
            (match c with
            | '\n' -> "\\n"
            | '\r' -> "\\r"
            | '\t' -> "\\t"
            | c -> Printf.sprintf "\\u%04x" (Char.code c));
          go (i + 1) (i + 1)
      | _ -> go plain (i + 1)
  in
  go 0 0

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing — the serve daemon reads newline-delimited JSON requests, so
   the emitter above gains its inverse here rather than growing a
   dependency. Strict on structure (unterminated strings, trailing
   garbage, bad escapes all raise), permissive on nothing.              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* UTF-8-encode one \uXXXX code point; surrogate halves are encoded
   independently (the emitter above never produces them). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && Char.equal s.[!pos] c then incr pos
    else parse_fail "expected %C at offset %d" c !pos
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      v
    end
    else parse_fail "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if Char.equal c '"' then Buffer.contents buf
      else if Char.equal c '\\' then begin
        if !pos >= n then parse_fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if !pos + 4 > n then parse_fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> parse_fail "bad \\u escape %S" hex
            in
            add_utf8 buf code
        | c -> parse_fail "bad escape \\%C" c);
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let floaty =
      String.exists (fun c -> Char.equal c '.' || Char.equal c 'e' || Char.equal c 'E') lit
    in
    if floaty then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> parse_fail "bad number %S" lit
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> parse_fail "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then parse_fail "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && Char.equal s.[!pos] ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if !pos >= n then parse_fail "unterminated array"
            else if Char.equal s.[!pos] ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          Arr (items [])
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && Char.equal s.[!pos] '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if !pos >= n then parse_fail "unterminated object"
            else if Char.equal s.[!pos] ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              List.rev ((k, v) :: acc)
            end
          in
          Obj (fields [])
    | '0' .. '9' | '-' -> parse_number ()
    | c -> parse_fail "unexpected %C at offset %d" c !pos
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_fail "trailing content at offset %d" !pos;
  v

let of_report (r : Report.t) =
  Obj
    [
      ("checker", Str r.checker);
      ("message", Str r.message);
      ("file", Str r.file);
      ("line", Int r.loc.Srcloc.line);
      ("col", Int r.loc.Srcloc.col);
      ("function", Str r.func);
      ("start_line", Int r.start_loc.Srcloc.line);
      ("variable", match r.var with Some v -> Str v | None -> Null);
      ("rule", match r.rule with Some v -> Str v | None -> Null);
      ("conditionals", Int r.conditionals);
      ("synonym_chain", Int r.syn_chain);
      ("call_depth", Int r.call_depth);
      ("annotations", Arr (List.map (fun a -> Str a) r.annotations));
    ]

let reports_to_string reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  ";
      write buf (of_report r))
    reports;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
