let s = Sexp.atom
let l = Sexp.list

let loc_to_sexp (loc : Srcloc.t) =
  l [ s "@"; s loc.file; s (string_of_int loc.line); s (string_of_int loc.col) ]

let loc_of_sexp sx =
  match sx with
  | Sexp.List [ Sexp.Atom "@"; Sexp.Atom file; Sexp.Atom line; Sexp.Atom col ] ->
      Srcloc.make ~file ~line:(int_of_string line) ~col:(int_of_string col)
  | _ -> raise (Sexp.Decode_error "bad location")

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let int_size_to_string = function
  | Ctyp.Ichar -> "char"
  | Ctyp.Ishort -> "short"
  | Ctyp.Iint -> "int"
  | Ctyp.Ilong -> "long"
  | Ctyp.Ilonglong -> "llong"

let int_size_of_string = function
  | "char" -> Ctyp.Ichar
  | "short" -> Ctyp.Ishort
  | "int" -> Ctyp.Iint
  | "long" -> Ctyp.Ilong
  | "llong" -> Ctyp.Ilonglong
  | other -> raise (Sexp.Decode_error ("bad int size " ^ other))

let rec ctyp_to_sexp = function
  | Ctyp.Void -> s "void"
  | Ctyp.Unknown -> s "?"
  | Ctyp.Int { signed; size } ->
      l [ s "int"; s (if signed then "s" else "u"); s (int_size_to_string size) ]
  | Ctyp.Float Ctyp.Ffloat -> s "float"
  | Ctyp.Float Ctyp.Fdouble -> s "double"
  | Ctyp.Ptr t -> l [ s "ptr"; ctyp_to_sexp t ]
  | Ctyp.Array (t, None) -> l [ s "arr"; ctyp_to_sexp t ]
  | Ctyp.Array (t, Some n) -> l [ s "arr"; ctyp_to_sexp t; s (string_of_int n) ]
  | Ctyp.Func (r, ps, variadic) ->
      l
        (s (if variadic then "vfunc" else "func")
        :: ctyp_to_sexp r :: List.map ctyp_to_sexp ps)
  | Ctyp.Struct name -> l [ s "struct"; s name ]
  | Ctyp.Union name -> l [ s "union"; s name ]
  | Ctyp.Enum name -> l [ s "enum"; s name ]
  | Ctyp.Named name -> l [ s "named"; s name ]

let rec ctyp_of_sexp sx =
  match sx with
  | Sexp.Atom "void" -> Ctyp.Void
  | Sexp.Atom "?" -> Ctyp.Unknown
  | Sexp.Atom "float" -> Ctyp.Float Ctyp.Ffloat
  | Sexp.Atom "double" -> Ctyp.Float Ctyp.Fdouble
  | Sexp.List [ Sexp.Atom "int"; Sexp.Atom sign; Sexp.Atom size ] ->
      Ctyp.Int { signed = String.equal sign "s"; size = int_size_of_string size }
  | Sexp.List [ Sexp.Atom "ptr"; t ] -> Ctyp.Ptr (ctyp_of_sexp t)
  | Sexp.List [ Sexp.Atom "arr"; t ] -> Ctyp.Array (ctyp_of_sexp t, None)
  | Sexp.List [ Sexp.Atom "arr"; t; Sexp.Atom n ] ->
      Ctyp.Array (ctyp_of_sexp t, Some (int_of_string n))
  | Sexp.List (Sexp.Atom "func" :: r :: ps) ->
      Ctyp.Func (ctyp_of_sexp r, List.map ctyp_of_sexp ps, false)
  | Sexp.List (Sexp.Atom "vfunc" :: r :: ps) ->
      Ctyp.Func (ctyp_of_sexp r, List.map ctyp_of_sexp ps, true)
  | Sexp.List [ Sexp.Atom "struct"; Sexp.Atom n ] -> Ctyp.Struct n
  | Sexp.List [ Sexp.Atom "union"; Sexp.Atom n ] -> Ctyp.Union n
  | Sexp.List [ Sexp.Atom "enum"; Sexp.Atom n ] -> Ctyp.Enum n
  | Sexp.List [ Sexp.Atom "named"; Sexp.Atom n ] -> Ctyp.Named n
  | other -> raise (Sexp.Decode_error ("bad type " ^ Sexp.to_string other))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let unop_to_string = function
  | Cast.Neg -> "neg"
  | Cast.Lognot -> "not"
  | Cast.Bitnot -> "bnot"
  | Cast.Deref -> "deref"
  | Cast.Addrof -> "addr"
  | Cast.Preinc -> "preinc"
  | Cast.Predec -> "predec"
  | Cast.Postinc -> "postinc"
  | Cast.Postdec -> "postdec"

let unop_of_string = function
  | "neg" -> Cast.Neg
  | "not" -> Cast.Lognot
  | "bnot" -> Cast.Bitnot
  | "deref" -> Cast.Deref
  | "addr" -> Cast.Addrof
  | "preinc" -> Cast.Preinc
  | "predec" -> Cast.Predec
  | "postinc" -> Cast.Postinc
  | "postdec" -> Cast.Postdec
  | other -> raise (Sexp.Decode_error ("bad unop " ^ other))

let binop_to_string = function
  | Cast.Add -> "add"
  | Cast.Sub -> "sub"
  | Cast.Mul -> "mul"
  | Cast.Div -> "div"
  | Cast.Mod -> "mod"
  | Cast.Shl -> "shl"
  | Cast.Shr -> "shr"
  | Cast.Lt -> "lt"
  | Cast.Gt -> "gt"
  | Cast.Le -> "le"
  | Cast.Ge -> "ge"
  | Cast.Eq -> "eq"
  | Cast.Ne -> "ne"
  | Cast.Band -> "band"
  | Cast.Bor -> "bor"
  | Cast.Bxor -> "bxor"
  | Cast.Land -> "land"
  | Cast.Lor -> "lor"

let binop_of_string = function
  | "add" -> Cast.Add
  | "sub" -> Cast.Sub
  | "mul" -> Cast.Mul
  | "div" -> Cast.Div
  | "mod" -> Cast.Mod
  | "shl" -> Cast.Shl
  | "shr" -> Cast.Shr
  | "lt" -> Cast.Lt
  | "gt" -> Cast.Gt
  | "le" -> Cast.Le
  | "ge" -> Cast.Ge
  | "eq" -> Cast.Eq
  | "ne" -> Cast.Ne
  | "band" -> Cast.Band
  | "bor" -> Cast.Bor
  | "bxor" -> Cast.Bxor
  | "land" -> Cast.Land
  | "lor" -> Cast.Lor
  | other -> raise (Sexp.Decode_error ("bad binop " ^ other))

let rec expr_to_sexp (e : Cast.expr) =
  let node =
    match e.enode with
    | Cast.Eint n -> l [ s "i"; s (Int64.to_string n) ]
    | Cast.Efloat f -> l [ s "f"; s (Float.to_string f) ]
    | Cast.Echar c -> l [ s "c"; s (string_of_int (Char.code c)) ]
    | Cast.Estr str -> l [ s "str"; s str ]
    | Cast.Eident x -> l [ s "v"; s x ]
    | Cast.Eunary (u, e1) -> l [ s "u"; s (unop_to_string u); expr_to_sexp e1 ]
    | Cast.Ebinary (o, a, b) ->
        l [ s "b"; s (binop_to_string o); expr_to_sexp a; expr_to_sexp b ]
    | Cast.Eassign (None, a, b) -> l [ s "set"; expr_to_sexp a; expr_to_sexp b ]
    | Cast.Eassign (Some o, a, b) ->
        l [ s "setop"; s (binop_to_string o); expr_to_sexp a; expr_to_sexp b ]
    | Cast.Ecall (f, args) -> l (s "call" :: expr_to_sexp f :: List.map expr_to_sexp args)
    | Cast.Efield (e1, f) -> l [ s "fld"; expr_to_sexp e1; s f ]
    | Cast.Earrow (e1, f) -> l [ s "arw"; expr_to_sexp e1; s f ]
    | Cast.Eindex (a, i) -> l [ s "idx"; expr_to_sexp a; expr_to_sexp i ]
    | Cast.Ecast (t, e1) -> l [ s "cast"; ctyp_to_sexp t; expr_to_sexp e1 ]
    | Cast.Econd (c, t, f) ->
        l [ s "cond"; expr_to_sexp c; expr_to_sexp t; expr_to_sexp f ]
    | Cast.Ecomma (a, b) -> l [ s "comma"; expr_to_sexp a; expr_to_sexp b ]
    | Cast.Esizeof_type t -> l [ s "szt"; ctyp_to_sexp t ]
    | Cast.Esizeof_expr e1 -> l [ s "sze"; expr_to_sexp e1 ]
    | Cast.Einit_list es -> l (s "init" :: List.map expr_to_sexp es)
  in
  l [ node; loc_to_sexp e.eloc ]

let rec expr_of_sexp sx =
  match sx with
  | Sexp.List [ node; locx ] ->
      let loc = loc_of_sexp locx in
      let enode =
        match node with
        | Sexp.List [ Sexp.Atom "i"; Sexp.Atom n ] -> Cast.Eint (Int64.of_string n)
        | Sexp.List [ Sexp.Atom "f"; Sexp.Atom f ] -> Cast.Efloat (float_of_string f)
        | Sexp.List [ Sexp.Atom "c"; Sexp.Atom n ] -> Cast.Echar (Char.chr (int_of_string n))
        | Sexp.List [ Sexp.Atom "str"; Sexp.Atom str ] -> Cast.Estr str
        | Sexp.List [ Sexp.Atom "v"; Sexp.Atom x ] -> Cast.Eident x
        | Sexp.List [ Sexp.Atom "u"; Sexp.Atom u; e1 ] ->
            Cast.Eunary (unop_of_string u, expr_of_sexp e1)
        | Sexp.List [ Sexp.Atom "b"; Sexp.Atom o; a; b ] ->
            Cast.Ebinary (binop_of_string o, expr_of_sexp a, expr_of_sexp b)
        | Sexp.List [ Sexp.Atom "set"; a; b ] ->
            Cast.Eassign (None, expr_of_sexp a, expr_of_sexp b)
        | Sexp.List [ Sexp.Atom "setop"; Sexp.Atom o; a; b ] ->
            Cast.Eassign (Some (binop_of_string o), expr_of_sexp a, expr_of_sexp b)
        | Sexp.List (Sexp.Atom "call" :: f :: args) ->
            Cast.Ecall (expr_of_sexp f, List.map expr_of_sexp args)
        | Sexp.List [ Sexp.Atom "fld"; e1; Sexp.Atom f ] -> Cast.Efield (expr_of_sexp e1, f)
        | Sexp.List [ Sexp.Atom "arw"; e1; Sexp.Atom f ] -> Cast.Earrow (expr_of_sexp e1, f)
        | Sexp.List [ Sexp.Atom "idx"; a; i ] ->
            Cast.Eindex (expr_of_sexp a, expr_of_sexp i)
        | Sexp.List [ Sexp.Atom "cast"; t; e1 ] ->
            Cast.Ecast (ctyp_of_sexp t, expr_of_sexp e1)
        | Sexp.List [ Sexp.Atom "cond"; c; t; f ] ->
            Cast.Econd (expr_of_sexp c, expr_of_sexp t, expr_of_sexp f)
        | Sexp.List [ Sexp.Atom "comma"; a; b ] ->
            Cast.Ecomma (expr_of_sexp a, expr_of_sexp b)
        | Sexp.List [ Sexp.Atom "szt"; t ] -> Cast.Esizeof_type (ctyp_of_sexp t)
        | Sexp.List [ Sexp.Atom "sze"; e1 ] -> Cast.Esizeof_expr (expr_of_sexp e1)
        | Sexp.List (Sexp.Atom "init" :: es) -> Cast.Einit_list (List.map expr_of_sexp es)
        | other -> raise (Sexp.Decode_error ("bad expr " ^ Sexp.to_string other))
      in
      Cast.mk_expr ~loc enode
  | other -> raise (Sexp.Decode_error ("bad expr wrapper " ^ Sexp.to_string other))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let decl_to_sexp (d : Cast.decl) =
  l
    (s "d" :: s d.dname :: ctyp_to_sexp d.dtyp
    :: (match d.dinit with None -> [] | Some e -> [ expr_to_sexp e ]))

let decl_of_sexp = function
  | Sexp.List [ Sexp.Atom "d"; Sexp.Atom name; t ] ->
      { Cast.dname = name; dtyp = ctyp_of_sexp t; dinit = None }
  | Sexp.List [ Sexp.Atom "d"; Sexp.Atom name; t; init ] ->
      { Cast.dname = name; dtyp = ctyp_of_sexp t; dinit = Some (expr_of_sexp init) }
  | other -> raise (Sexp.Decode_error ("bad decl " ^ Sexp.to_string other))

let rec stmt_to_sexp (st : Cast.stmt) =
  let node =
    match st.snode with
    | Cast.Sexpr e -> l [ s "expr"; expr_to_sexp e ]
    | Cast.Sdecl ds -> l (s "decl" :: List.map decl_to_sexp ds)
    | Cast.Sif (c, t, None) -> l [ s "if"; expr_to_sexp c; stmt_to_sexp t ]
    | Cast.Sif (c, t, Some e) ->
        l [ s "ife"; expr_to_sexp c; stmt_to_sexp t; stmt_to_sexp e ]
    | Cast.Swhile (c, b) -> l [ s "while"; expr_to_sexp c; stmt_to_sexp b ]
    | Cast.Sdo (b, c) -> l [ s "do"; stmt_to_sexp b; expr_to_sexp c ]
    | Cast.Sfor (init, c, step, b) ->
        l
          [
            s "for";
            (match init with None -> s "_" | Some st -> stmt_to_sexp st);
            (match c with None -> s "_" | Some e -> expr_to_sexp e);
            (match step with None -> s "_" | Some e -> expr_to_sexp e);
            stmt_to_sexp b;
          ]
    | Cast.Sreturn None -> s "ret"
    | Cast.Sreturn (Some e) -> l [ s "rete"; expr_to_sexp e ]
    | Cast.Sblock ss -> l (s "block" :: List.map stmt_to_sexp ss)
    | Cast.Sbreak -> s "break"
    | Cast.Scontinue -> s "continue"
    | Cast.Sswitch (e, cases) ->
        l
          (s "switch" :: expr_to_sexp e
          :: List.map
               (fun (c : Cast.case) ->
                 l
                   ((match c.case_guard with
                    | None -> s "default"
                    | Some v -> s (Int64.to_string v))
                   :: List.map stmt_to_sexp c.case_body))
               cases)
    | Cast.Sgoto label -> l [ s "goto"; s label ]
    | Cast.Slabel (label, st1) -> l [ s "label"; s label; stmt_to_sexp st1 ]
    | Cast.Snull -> s "skip"
  in
  l [ node; loc_to_sexp st.sloc ]

and stmt_of_sexp sx =
  match sx with
  | Sexp.List [ node; locx ] ->
      let loc = loc_of_sexp locx in
      let snode =
        match node with
        | Sexp.List [ Sexp.Atom "expr"; e ] -> Cast.Sexpr (expr_of_sexp e)
        | Sexp.List (Sexp.Atom "decl" :: ds) -> Cast.Sdecl (List.map decl_of_sexp ds)
        | Sexp.List [ Sexp.Atom "if"; c; t ] ->
            Cast.Sif (expr_of_sexp c, stmt_of_sexp t, None)
        | Sexp.List [ Sexp.Atom "ife"; c; t; e ] ->
            Cast.Sif (expr_of_sexp c, stmt_of_sexp t, Some (stmt_of_sexp e))
        | Sexp.List [ Sexp.Atom "while"; c; b ] ->
            Cast.Swhile (expr_of_sexp c, stmt_of_sexp b)
        | Sexp.List [ Sexp.Atom "do"; b; c ] -> Cast.Sdo (stmt_of_sexp b, expr_of_sexp c)
        | Sexp.List [ Sexp.Atom "for"; init; c; step; b ] ->
            let opt_stmt = function Sexp.Atom "_" -> None | sx -> Some (stmt_of_sexp sx) in
            let opt_expr = function Sexp.Atom "_" -> None | sx -> Some (expr_of_sexp sx) in
            Cast.Sfor (opt_stmt init, opt_expr c, opt_expr step, stmt_of_sexp b)
        | Sexp.Atom "ret" -> Cast.Sreturn None
        | Sexp.List [ Sexp.Atom "rete"; e ] -> Cast.Sreturn (Some (expr_of_sexp e))
        | Sexp.List (Sexp.Atom "block" :: ss) -> Cast.Sblock (List.map stmt_of_sexp ss)
        | Sexp.Atom "break" -> Cast.Sbreak
        | Sexp.Atom "continue" -> Cast.Scontinue
        | Sexp.List (Sexp.Atom "switch" :: e :: cases) ->
            Cast.Sswitch
              ( expr_of_sexp e,
                List.map
                  (function
                    | Sexp.List (guard :: body) ->
                        let case_guard =
                          match guard with
                          | Sexp.Atom "default" -> None
                          | Sexp.Atom v -> Some (Int64.of_string v)
                          | _ -> raise (Sexp.Decode_error "bad case guard")
                        in
                        { Cast.case_guard; case_body = List.map stmt_of_sexp body }
                    | _ -> raise (Sexp.Decode_error "bad case"))
                  cases )
        | Sexp.List [ Sexp.Atom "goto"; Sexp.Atom label ] -> Cast.Sgoto label
        | Sexp.List [ Sexp.Atom "label"; Sexp.Atom label; st1 ] ->
            Cast.Slabel (label, stmt_of_sexp st1)
        | Sexp.Atom "skip" -> Cast.Snull
        | other -> raise (Sexp.Decode_error ("bad stmt " ^ Sexp.to_string other))
      in
      Cast.mk_stmt ~loc snode
  | other -> raise (Sexp.Decode_error ("bad stmt wrapper " ^ Sexp.to_string other))

(* ------------------------------------------------------------------ *)
(* Globals and translation units                                       *)
(* ------------------------------------------------------------------ *)

let global_to_sexp = function
  | Cast.Gfun f ->
      l
        [
          s "fun";
          s f.fname;
          ctyp_to_sexp f.freturn;
          l
            (List.map
               (fun (n, t) -> l [ s n; ctyp_to_sexp t ])
               f.fparams);
          s (if f.fvariadic then "variadic" else "fixed");
          s (if f.fstatic then "static" else "extern");
          loc_to_sexp f.floc;
          s f.ffile;
          stmt_to_sexp f.fbody;
        ]
  | Cast.Gvar { gdecl; gloc; gfile; gstatic } ->
      l
        [
          s "var";
          decl_to_sexp gdecl;
          loc_to_sexp gloc;
          s gfile;
          s (if gstatic then "static" else "extern");
        ]
  | Cast.Gtypedef (name, t) -> l [ s "typedef"; s name; ctyp_to_sexp t ]
  | Cast.Gcomposite { ckind; cname; cfields } ->
      l
        (s (match ckind with `Struct -> "structdef" | `Union -> "uniondef")
        :: s cname
        :: List.map (fun (n, t) -> l [ s n; ctyp_to_sexp t ]) cfields)
  | Cast.Genum { ename; eitems } ->
      l
        (s "enumdef" :: s ename
        :: List.map (fun (n, v) -> l [ s n; s (Int64.to_string v) ]) eitems)
  | Cast.Gproto { pname; ptyp } -> l [ s "proto"; s pname; ctyp_to_sexp ptyp ]
  | Cast.Gskipped { sk_name; sk_from; sk_to; sk_msg } ->
      l
        [
          s "skipped";
          (match sk_name with Some n -> l [ s n ] | None -> l []);
          loc_to_sexp sk_from;
          loc_to_sexp sk_to;
          s sk_msg;
        ]

let named_typ_of_sexp = function
  | Sexp.List [ Sexp.Atom n; t ] -> (n, ctyp_of_sexp t)
  | _ -> raise (Sexp.Decode_error "bad named type")

let global_of_sexp = function
  | Sexp.List
      [ Sexp.Atom "fun"; Sexp.Atom fname; ret; Sexp.List params; Sexp.Atom va;
        Sexp.Atom st; locx; Sexp.Atom ffile; body ] ->
      Cast.Gfun
        {
          fname;
          freturn = ctyp_of_sexp ret;
          fparams = List.map named_typ_of_sexp params;
          fvariadic = String.equal va "variadic";
          fstatic = String.equal st "static";
          floc = loc_of_sexp locx;
          ffile;
          fbody = stmt_of_sexp body;
        }
  | Sexp.List [ Sexp.Atom "var"; d; locx; Sexp.Atom gfile; Sexp.Atom st ] ->
      Cast.Gvar
        {
          gdecl = decl_of_sexp d;
          gloc = loc_of_sexp locx;
          gfile;
          gstatic = String.equal st "static";
        }
  | Sexp.List [ Sexp.Atom "typedef"; Sexp.Atom name; t ] ->
      Cast.Gtypedef (name, ctyp_of_sexp t)
  | Sexp.List (Sexp.Atom "structdef" :: Sexp.Atom cname :: fields) ->
      Cast.Gcomposite
        { ckind = `Struct; cname; cfields = List.map named_typ_of_sexp fields }
  | Sexp.List (Sexp.Atom "uniondef" :: Sexp.Atom cname :: fields) ->
      Cast.Gcomposite
        { ckind = `Union; cname; cfields = List.map named_typ_of_sexp fields }
  | Sexp.List (Sexp.Atom "enumdef" :: Sexp.Atom ename :: items) ->
      Cast.Genum
        {
          ename;
          eitems =
            List.map
              (function
                | Sexp.List [ Sexp.Atom n; Sexp.Atom v ] -> (n, Int64.of_string v)
                | _ -> raise (Sexp.Decode_error "bad enum item"))
              items;
        }
  | Sexp.List [ Sexp.Atom "proto"; Sexp.Atom pname; t ] ->
      Cast.Gproto { pname; ptyp = ctyp_of_sexp t }
  | Sexp.List [ Sexp.Atom "skipped"; name; from_x; to_x; Sexp.Atom sk_msg ] ->
      let sk_name =
        match name with
        | Sexp.List [ Sexp.Atom n ] -> Some n
        | Sexp.List [] -> None
        | _ -> raise (Sexp.Decode_error "bad skipped name")
      in
      Cast.Gskipped
        { sk_name; sk_from = loc_of_sexp from_x; sk_to = loc_of_sexp to_x; sk_msg }
  | other -> raise (Sexp.Decode_error ("bad global " ^ Sexp.to_string other))

let tunit_to_sexp (tu : Cast.tunit) =
  l (s "tunit" :: s tu.tu_file :: List.map global_to_sexp tu.tu_globals)

let tunit_of_sexp = function
  | Sexp.List (Sexp.Atom "tunit" :: Sexp.Atom tu_file :: globals) ->
      { Cast.tu_file; tu_globals = List.map global_of_sexp globals }
  | other -> raise (Sexp.Decode_error ("bad tunit " ^ Sexp.to_string other))

let emit_string tu = Sexp.to_string (tunit_to_sexp tu)
let read_string src = tunit_of_sexp (Sexp.of_string src)

(* Tmp-then-rename: a crash mid-emit must not leave a truncated .mcast
   that a later pass-2 reassembly reads as corrupt. *)
let emit_file path tu =
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) ".mcast" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc (emit_string tu);
     output_char oc '\n'
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  read_string src

(* Fault-contained variant for pass-2 reassembly: a truncated or corrupt
   [.mcast] becomes a diagnosable [Error], mirroring the cache policy of
   [read_cached] below (same exception set — literal atoms decode with
   int_of_string/Int64.of_string/Char.chr, which raise
   Failure/Invalid_argument on tampered input). *)
let read_file_result path =
  match read_file path with
  | tu -> Ok tu
  | exception
      (( Sexp.Parse_error _ | Sexp.Decode_error _ | Failure _
       | Invalid_argument _ | Sys_error _ | End_of_file ) as e) ->
      Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Binary codec                                                         *)
(* ------------------------------------------------------------------ *)

(* The sexp form above stays the interchange format (emit/read, cache
   dumps, body hashing); the cache hot path uses this length-prefixed
   binary encoding instead — decoding it is a single forward scan with
   no tokenising, which is what makes warm probes cheap. Corruption
   surfaces as [Wire.Corrupt] (or a codec exception on a valid frame
   with nonsense contents) and every caller degrades it to a miss. *)

let bad fmt = Printf.ksprintf (fun m -> raise (Wire.Corrupt m)) fmt

let loc_to_bin b (l : Srcloc.t) =
  Wire.string b l.file;
  Wire.int b l.line;
  Wire.int b l.col

let loc_of_bin r =
  let file = Wire.rstring r in
  let line = Wire.rint r in
  let col = Wire.rint r in
  Srcloc.make ~file ~line ~col

let int_size_tag = function
  | Ctyp.Ichar -> 0
  | Ishort -> 1
  | Iint -> 2
  | Ilong -> 3
  | Ilonglong -> 4

let int_size_of_tag = function
  | 0 -> Ctyp.Ichar
  | 1 -> Ishort
  | 2 -> Iint
  | 3 -> Ilong
  | 4 -> Ilonglong
  | n -> bad "bad int size %d" n

let rec ctyp_to_bin b (t : Ctyp.t) =
  match t with
  | Void -> Wire.u8 b 0
  | Int { signed; size } ->
      Wire.u8 b 1;
      Wire.bool b signed;
      Wire.u8 b (int_size_tag size)
  | Float Ffloat -> Wire.u8 b 2
  | Float Fdouble -> Wire.u8 b 3
  | Ptr t ->
      Wire.u8 b 4;
      ctyp_to_bin b t
  | Array (t, n) ->
      Wire.u8 b 5;
      ctyp_to_bin b t;
      Wire.option b Wire.int n
  | Func (r, ps, variadic) ->
      Wire.u8 b 6;
      ctyp_to_bin b r;
      Wire.list b ctyp_to_bin ps;
      Wire.bool b variadic
  | Struct s ->
      Wire.u8 b 7;
      Wire.string b s
  | Union s ->
      Wire.u8 b 8;
      Wire.string b s
  | Enum s ->
      Wire.u8 b 9;
      Wire.string b s
  | Named s ->
      Wire.u8 b 10;
      Wire.string b s
  | Unknown -> Wire.u8 b 11

let rec ctyp_of_bin r : Ctyp.t =
  match Wire.ru8 r with
  | 0 -> Void
  | 1 ->
      let signed = Wire.rbool r in
      Int { signed; size = int_size_of_tag (Wire.ru8 r) }
  | 2 -> Float Ffloat
  | 3 -> Float Fdouble
  | 4 -> Ptr (ctyp_of_bin r)
  | 5 ->
      let t = ctyp_of_bin r in
      Array (t, Wire.roption r Wire.rint)
  | 6 ->
      let ret = ctyp_of_bin r in
      let ps = Wire.rlist r ctyp_of_bin in
      Func (ret, ps, Wire.rbool r)
  | 7 -> Struct (Wire.rstring r)
  | 8 -> Union (Wire.rstring r)
  | 9 -> Enum (Wire.rstring r)
  | 10 -> Named (Wire.rstring r)
  | 11 -> Unknown
  | n -> bad "bad ctyp tag %d" n

let unop_tag = function
  | Cast.Neg -> 0
  | Lognot -> 1
  | Bitnot -> 2
  | Deref -> 3
  | Addrof -> 4
  | Preinc -> 5
  | Predec -> 6
  | Postinc -> 7
  | Postdec -> 8

let unop_of_tag = function
  | 0 -> Cast.Neg
  | 1 -> Lognot
  | 2 -> Bitnot
  | 3 -> Deref
  | 4 -> Addrof
  | 5 -> Preinc
  | 6 -> Predec
  | 7 -> Postinc
  | 8 -> Postdec
  | n -> bad "bad unop tag %d" n

let binop_tag = function
  | Cast.Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Shl -> 5
  | Shr -> 6
  | Lt -> 7
  | Gt -> 8
  | Le -> 9
  | Ge -> 10
  | Eq -> 11
  | Ne -> 12
  | Band -> 13
  | Bor -> 14
  | Bxor -> 15
  | Land -> 16
  | Lor -> 17

let binop_of_tag = function
  | 0 -> Cast.Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | 4 -> Mod
  | 5 -> Shl
  | 6 -> Shr
  | 7 -> Lt
  | 8 -> Gt
  | 9 -> Le
  | 10 -> Ge
  | 11 -> Eq
  | 12 -> Ne
  | 13 -> Band
  | 14 -> Bor
  | 15 -> Bxor
  | 16 -> Land
  | 17 -> Lor
  | n -> bad "bad binop tag %d" n

let rec expr_to_bin b (e : Cast.expr) =
  loc_to_bin b e.eloc;
  match e.enode with
  | Eint n ->
      Wire.u8 b 0;
      Wire.i64 b n
  | Efloat f ->
      Wire.u8 b 1;
      Wire.float b f
  | Echar c ->
      Wire.u8 b 2;
      Wire.u8 b (Char.code c)
  | Estr s ->
      Wire.u8 b 3;
      Wire.string b s
  | Eident x ->
      Wire.u8 b 4;
      Wire.string b x
  | Eunary (u, e1) ->
      Wire.u8 b 5;
      Wire.u8 b (unop_tag u);
      expr_to_bin b e1
  | Ebinary (o, l, r) ->
      Wire.u8 b 6;
      Wire.u8 b (binop_tag o);
      expr_to_bin b l;
      expr_to_bin b r
  | Eassign (o, l, r) ->
      Wire.u8 b 7;
      Wire.option b (fun b o -> Wire.u8 b (binop_tag o)) o;
      expr_to_bin b l;
      expr_to_bin b r
  | Ecall (f, args) ->
      Wire.u8 b 8;
      expr_to_bin b f;
      Wire.list b expr_to_bin args
  | Efield (e1, f) ->
      Wire.u8 b 9;
      expr_to_bin b e1;
      Wire.string b f
  | Earrow (e1, f) ->
      Wire.u8 b 10;
      expr_to_bin b e1;
      Wire.string b f
  | Eindex (a, i) ->
      Wire.u8 b 11;
      expr_to_bin b a;
      expr_to_bin b i
  | Ecast (t, e1) ->
      Wire.u8 b 12;
      ctyp_to_bin b t;
      expr_to_bin b e1
  | Econd (c, t, f) ->
      Wire.u8 b 13;
      expr_to_bin b c;
      expr_to_bin b t;
      expr_to_bin b f
  | Ecomma (l, r) ->
      Wire.u8 b 14;
      expr_to_bin b l;
      expr_to_bin b r
  | Esizeof_type t ->
      Wire.u8 b 15;
      ctyp_to_bin b t
  | Esizeof_expr e1 ->
      Wire.u8 b 16;
      expr_to_bin b e1
  | Einit_list es ->
      Wire.u8 b 17;
      Wire.list b expr_to_bin es

let rec expr_of_bin r : Cast.expr =
  let loc = loc_of_bin r in
  let node : Cast.enode =
    match Wire.ru8 r with
    | 0 -> Eint (Wire.ri64 r)
    | 1 -> Efloat (Wire.rfloat r)
    | 2 -> Echar (Char.chr (Wire.ru8 r))
    | 3 -> Estr (Wire.rstring r)
    | 4 -> Eident (Wire.rstring r)
    | 5 ->
        let u = unop_of_tag (Wire.ru8 r) in
        Eunary (u, expr_of_bin r)
    | 6 ->
        let o = binop_of_tag (Wire.ru8 r) in
        let l = expr_of_bin r in
        Ebinary (o, l, expr_of_bin r)
    | 7 ->
        let o = Wire.roption r (fun r -> binop_of_tag (Wire.ru8 r)) in
        let l = expr_of_bin r in
        Eassign (o, l, expr_of_bin r)
    | 8 ->
        let f = expr_of_bin r in
        Ecall (f, Wire.rlist r expr_of_bin)
    | 9 ->
        let e1 = expr_of_bin r in
        Efield (e1, Wire.rstring r)
    | 10 ->
        let e1 = expr_of_bin r in
        Earrow (e1, Wire.rstring r)
    | 11 ->
        let a = expr_of_bin r in
        Eindex (a, expr_of_bin r)
    | 12 ->
        let t = ctyp_of_bin r in
        Ecast (t, expr_of_bin r)
    | 13 ->
        let c = expr_of_bin r in
        let t = expr_of_bin r in
        Econd (c, t, expr_of_bin r)
    | 14 ->
        let l = expr_of_bin r in
        Ecomma (l, expr_of_bin r)
    | 15 -> Esizeof_type (ctyp_of_bin r)
    | 16 -> Esizeof_expr (expr_of_bin r)
    | 17 -> Einit_list (Wire.rlist r expr_of_bin)
    | n -> bad "bad expr tag %d" n
  in
  Cast.mk_expr ~loc node

let decl_to_bin b (d : Cast.decl) =
  Wire.string b d.dname;
  ctyp_to_bin b d.dtyp;
  Wire.option b expr_to_bin d.dinit

let decl_of_bin r : Cast.decl =
  let dname = Wire.rstring r in
  let dtyp = ctyp_of_bin r in
  { dname; dtyp; dinit = Wire.roption r expr_of_bin }

let rec stmt_to_bin b (s : Cast.stmt) =
  loc_to_bin b s.sloc;
  match s.snode with
  | Sexpr e ->
      Wire.u8 b 0;
      expr_to_bin b e
  | Sdecl ds ->
      Wire.u8 b 1;
      Wire.list b decl_to_bin ds
  | Sif (c, t, e) ->
      Wire.u8 b 2;
      expr_to_bin b c;
      stmt_to_bin b t;
      Wire.option b stmt_to_bin e
  | Swhile (c, body) ->
      Wire.u8 b 3;
      expr_to_bin b c;
      stmt_to_bin b body
  | Sdo (body, c) ->
      Wire.u8 b 4;
      stmt_to_bin b body;
      expr_to_bin b c
  | Sfor (init, c, step, body) ->
      Wire.u8 b 5;
      Wire.option b stmt_to_bin init;
      Wire.option b expr_to_bin c;
      Wire.option b expr_to_bin step;
      stmt_to_bin b body
  | Sreturn e ->
      Wire.u8 b 6;
      Wire.option b expr_to_bin e
  | Sblock ss ->
      Wire.u8 b 7;
      Wire.list b stmt_to_bin ss
  | Sbreak -> Wire.u8 b 8
  | Scontinue -> Wire.u8 b 9
  | Sswitch (e, cases) ->
      Wire.u8 b 10;
      expr_to_bin b e;
      Wire.list b
        (fun b (c : Cast.case) ->
          Wire.option b Wire.i64 c.case_guard;
          Wire.list b stmt_to_bin c.case_body)
        cases
  | Sgoto l ->
      Wire.u8 b 11;
      Wire.string b l
  | Slabel (l, s1) ->
      Wire.u8 b 12;
      Wire.string b l;
      stmt_to_bin b s1
  | Snull -> Wire.u8 b 13

let rec stmt_of_bin r : Cast.stmt =
  let loc = loc_of_bin r in
  let node : Cast.snode =
    match Wire.ru8 r with
    | 0 -> Sexpr (expr_of_bin r)
    | 1 -> Sdecl (Wire.rlist r decl_of_bin)
    | 2 ->
        let c = expr_of_bin r in
        let t = stmt_of_bin r in
        Sif (c, t, Wire.roption r stmt_of_bin)
    | 3 ->
        let c = expr_of_bin r in
        Swhile (c, stmt_of_bin r)
    | 4 ->
        let body = stmt_of_bin r in
        Sdo (body, expr_of_bin r)
    | 5 ->
        let init = Wire.roption r stmt_of_bin in
        let c = Wire.roption r expr_of_bin in
        let step = Wire.roption r expr_of_bin in
        Sfor (init, c, step, stmt_of_bin r)
    | 6 -> Sreturn (Wire.roption r expr_of_bin)
    | 7 -> Sblock (Wire.rlist r stmt_of_bin)
    | 8 -> Sbreak
    | 9 -> Scontinue
    | 10 ->
        let e = expr_of_bin r in
        Sswitch
          ( e,
            Wire.rlist r (fun r : Cast.case ->
                let case_guard = Wire.roption r Wire.ri64 in
                { case_guard; case_body = Wire.rlist r stmt_of_bin }) )
    | 11 -> Sgoto (Wire.rstring r)
    | 12 ->
        let l = Wire.rstring r in
        Slabel (l, stmt_of_bin r)
    | 13 -> Snull
    | n -> bad "bad stmt tag %d" n
  in
  Cast.mk_stmt ~loc node

let global_to_bin b (g : Cast.global) =
  match g with
  | Gfun f ->
      Wire.u8 b 0;
      Wire.string b f.fname;
      ctyp_to_bin b f.freturn;
      Wire.list b
        (fun b (n, t) ->
          Wire.string b n;
          ctyp_to_bin b t)
        f.fparams;
      Wire.bool b f.fvariadic;
      stmt_to_bin b f.fbody;
      loc_to_bin b f.floc;
      Wire.string b f.ffile;
      Wire.bool b f.fstatic
  | Gvar { gdecl; gloc; gfile; gstatic } ->
      Wire.u8 b 1;
      decl_to_bin b gdecl;
      loc_to_bin b gloc;
      Wire.string b gfile;
      Wire.bool b gstatic
  | Gtypedef (name, t) ->
      Wire.u8 b 2;
      Wire.string b name;
      ctyp_to_bin b t
  | Gcomposite { ckind; cname; cfields } ->
      Wire.u8 b 3;
      Wire.u8 b (match ckind with `Struct -> 0 | `Union -> 1);
      Wire.string b cname;
      Wire.list b
        (fun b (n, t) ->
          Wire.string b n;
          ctyp_to_bin b t)
        cfields
  | Genum { ename; eitems } ->
      Wire.u8 b 4;
      Wire.string b ename;
      Wire.list b
        (fun b (n, v) ->
          Wire.string b n;
          Wire.i64 b v)
        eitems
  | Gproto { pname; ptyp } ->
      Wire.u8 b 5;
      Wire.string b pname;
      ctyp_to_bin b ptyp
  | Gskipped sk ->
      Wire.u8 b 6;
      Wire.option b Wire.string sk.sk_name;
      loc_to_bin b sk.sk_from;
      loc_to_bin b sk.sk_to;
      Wire.string b sk.sk_msg

let global_of_bin r : Cast.global =
  match Wire.ru8 r with
  | 0 ->
      let fname = Wire.rstring r in
      let freturn = ctyp_of_bin r in
      let fparams =
        Wire.rlist r (fun r ->
            let n = Wire.rstring r in
            (n, ctyp_of_bin r))
      in
      let fvariadic = Wire.rbool r in
      let fbody = stmt_of_bin r in
      let floc = loc_of_bin r in
      let ffile = Wire.rstring r in
      let fstatic = Wire.rbool r in
      Gfun { fname; freturn; fparams; fvariadic; fbody; floc; ffile; fstatic }
  | 1 ->
      let gdecl = decl_of_bin r in
      let gloc = loc_of_bin r in
      let gfile = Wire.rstring r in
      Gvar { gdecl; gloc; gfile; gstatic = Wire.rbool r }
  | 2 ->
      let name = Wire.rstring r in
      Gtypedef (name, ctyp_of_bin r)
  | 3 ->
      let ckind =
        match Wire.ru8 r with
        | 0 -> `Struct
        | 1 -> `Union
        | n -> bad "bad composite kind %d" n
      in
      let cname = Wire.rstring r in
      let cfields =
        Wire.rlist r (fun r ->
            let n = Wire.rstring r in
            (n, ctyp_of_bin r))
      in
      Gcomposite { ckind; cname; cfields }
  | 4 ->
      let ename = Wire.rstring r in
      let eitems =
        Wire.rlist r (fun r ->
            let n = Wire.rstring r in
            (n, Wire.ri64 r))
      in
      Genum { ename; eitems }
  | 5 ->
      let pname = Wire.rstring r in
      Gproto { pname; ptyp = ctyp_of_bin r }
  | 6 ->
      let sk_name = Wire.roption r Wire.rstring in
      let sk_from = loc_of_bin r in
      let sk_to = loc_of_bin r in
      Gskipped { sk_name; sk_from; sk_to; sk_msg = Wire.rstring r }
  | n -> bad "bad global tag %d" n

let tunit_to_bin b (tu : Cast.tunit) =
  Wire.string b tu.tu_file;
  Wire.list b global_to_bin tu.tu_globals

let tunit_of_bin r : Cast.tunit =
  let tu_file = Wire.rstring r in
  { tu_file; tu_globals = Wire.rlist r global_of_bin }

(* ------------------------------------------------------------------ *)
(* Content-addressed AST object cache                                   *)
(* ------------------------------------------------------------------ *)

(* Bump whenever the sexp encoding above (or the parser semantics that
   feed it) change: it salts every AST object's fingerprint, so every
   cached object becomes unreachable at once. (The engine's body and
   declaration hashes are salted with [cache_version], not this.)
   mcast-3: the lexer reads octal and hex escapes in literals. *)
let format_version = "mcast-3"

(* Version of the *binary* cache object layout; salted into the
   fingerprint (together with [format_version]) so a layout change
   orphans every on-disk object instead of tripping over it, and into the
   engine's body and declaration hashes, which digest this layout. *)
let cache_version = "mcast-bin-1"
let ast_magic = "XGAST1\n"

let ast_fingerprint ~file ~source =
  (* The file name is part of the key: source locations ([ffile], locs)
     are baked into the emitted AST, so identical text under two names
     must not share an object. *)
  Fingerprint.of_string
    ~salt:(format_version ^ "+" ^ cache_version)
    (file ^ "\x00" ^ source)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let cached_path ~cache_dir fp = Filename.concat (Filename.concat cache_dir "ast") (fp ^ ".mcast")

let decode_cached_string src =
  let r = Wire.reader ~magic:ast_magic src in
  let tu = tunit_of_bin r in
  if not (Wire.at_end r) then bad "trailing bytes in cache object";
  tu

let read_cached_file path =
  match decode_cached_string (Wire.read_file path) with
  | tu -> Ok tu
  | exception
      ((Wire.Corrupt _ | Failure _ | Invalid_argument _ | Sys_error _) as e) ->
      Error (Printexc.to_string e)

let read_cached ~cache_dir fp =
  let path = cached_path ~cache_dir fp in
  if Sys.file_exists path then
    (* a corrupt, truncated, or vanished object is a miss, never an
       error: the binary decoder raises [Wire.Corrupt] on malformed
       frames (and Failure/Invalid_argument on nonsense payloads such
       as out-of-range char codes) *)
    match read_cached_file path with Ok tu -> Some tu | Error _ -> None
  else None

let write_cached ~cache_dir fp tu =
  let path = cached_path ~cache_dir fp in
  mkdir_p (Filename.dirname path);
  let b = Wire.writer ~magic:ast_magic () in
  tunit_to_bin b tu;
  (* tmp + rename in the same directory so concurrent writers (e.g. two
     [-j] runs sharing a cache) never expose a torn object. *)
  let tmp = Filename.temp_file ~temp_dir:(Filename.dirname path) "obj" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Wire.contents b);
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Emit output naming                                                   *)
(* ------------------------------------------------------------------ *)

let emit_targets files =
  let plain f = Filename.remove_extension (Filename.basename f) ^ ".mcast" in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let b = plain f in
      Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
    files;
  let from_path f =
    let rec strip p =
      if String.length p >= 2 && String.sub p 0 2 = "./" then
        strip (String.sub p 2 (String.length p - 2))
      else p
    in
    let p = strip (Filename.remove_extension f) in
    String.map (function '/' | '\\' | ':' -> '_' | c -> c) p ^ ".mcast"
  in
  let targets =
    List.map
      (fun f ->
        let b = plain f in
        (f, if Hashtbl.find counts b = 1 then b else from_path f))
      files
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f, t) ->
      match Hashtbl.find_opt seen t with
      | Some prev ->
          invalid_arg
            (Printf.sprintf "emit: output name %s collides for inputs %s and %s" t prev f)
      | None -> Hashtbl.add seen t f)
    targets;
  targets
