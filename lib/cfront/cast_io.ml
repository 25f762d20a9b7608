(* One encoding of the AST: a length-prefixed binary form, decoded by a
   single forward scan with no tokenising, which is what makes warm
   probes cheap. Corruption surfaces as [Wire.Corrupt] (or a codec
   exception on a valid frame with nonsense contents) and every reader
   turns it into an [Error] or a cache miss. *)

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
(* AST objects: emitted .mcast files and the content-addressed cache    *)
(* ------------------------------------------------------------------ *)

(* Bump whenever the parser can give the same text a different AST: it
   salts every AST object's fingerprint, so every cached object becomes
   unreachable at once. (The engine's body and declaration hashes are
   salted with [cache_version], not this.)
   mcast-3: the lexer reads octal and hex escapes in literals.
   mcast-4: anonymous aggregates are named per unit, not per process. *)
let format_version = "mcast-4"

(* Version of the binary object layout; salted into the fingerprint
   (together with [format_version]) so a layout change orphans every
   on-disk object instead of tripping over it, and into the engine's body
   and declaration hashes, which digest this layout. *)
let cache_version = "mcast-bin-1"
let ast_magic = "XGAST1\n"

let emit_string tu =
  let b = Wire.writer ~magic:ast_magic () in
  tunit_to_bin b tu;
  Wire.contents b

(* a codec exception on a well-framed object (an out-of-range char code,
   say) is corruption too *)
let read_string src =
  match
    let r = Wire.reader ~magic:ast_magic src in
    let tu = tunit_of_bin r in
    if not (Wire.at_end r) then bad "trailing bytes in AST object";
    tu
  with
  | tu -> Ok tu
  | exception ((Wire.Corrupt _ | Failure _ | Invalid_argument _) as e) ->
      Error (Printexc.to_string e)

let emit_file path tu = Wire.write_file path (fun oc -> output_string oc (emit_string tu))

let read_file path =
  match Wire.read_file path with
  | src -> read_string src
  | exception Sys_error msg -> Error msg

let ast_fingerprint ~file ~source =
  (* The file name is part of the key: source locations ([ffile], locs)
     are baked into the emitted AST, so identical text under two names
     must not share an object. *)
  Fingerprint.of_string
    ~salt:(format_version ^ "+" ^ cache_version)
    (file ^ "\x00" ^ source)

let cached_path ~cache_dir fp = Filename.concat (Filename.concat cache_dir "ast") (fp ^ ".mcast")

let read_cached ~cache_dir fp =
  let path = cached_path ~cache_dir fp in
  (* a corrupt, truncated, or vanished object is a miss, never an error *)
  if Sys.file_exists path then Result.to_option (read_file path) else None

let write_cached ~cache_dir fp tu =
  let path = cached_path ~cache_dir fp in
  Wire.mkdir_p (Filename.dirname path);
  emit_file path tu

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
