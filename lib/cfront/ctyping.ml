module Smap = Map.Make (String)

type env = {
  typedefs : Ctyp.t Smap.t;
  fields : (string * Ctyp.t) list Smap.t;  (* struct/union name -> fields *)
  enum_consts : int64 Smap.t;
  vars : Ctyp.t Smap.t;
  funcs : Ctyp.t Smap.t;
  defs : Cast.fundef Smap.t;
  globals_meta : (string * bool) Smap.t;  (* var -> defining file, is_static *)
}

let empty =
  {
    typedefs = Smap.empty;
    fields = Smap.empty;
    enum_consts = Smap.empty;
    vars = Smap.empty;
    funcs = Smap.empty;
    defs = Smap.empty;
    globals_meta = Smap.empty;
  }

let rec resolve env t =
  match t with
  | Ctyp.Named n -> (
      match Smap.find_opt n env.typedefs with
      | Some t' when not (Ctyp.equal t t') -> resolve env t'
      | _ -> Ctyp.Unknown)
  | t -> t

let add_global env (g : Cast.global) =
  match g with
  | Cast.Gfun f ->
      let typ = Ctyp.Func (f.freturn, List.map snd f.fparams, f.fvariadic) in
      {
        env with
        funcs = Smap.add f.fname typ env.funcs;
        defs = Smap.add f.fname f env.defs;
      }
  | Cast.Gvar { gdecl; gfile; gstatic; _ } ->
      {
        env with
        vars = Smap.add gdecl.dname gdecl.dtyp env.vars;
        globals_meta = Smap.add gdecl.dname (gfile, gstatic) env.globals_meta;
      }
  | Cast.Gtypedef (n, t) -> { env with typedefs = Smap.add n t env.typedefs }
  | Cast.Gcomposite { cname; cfields; _ } ->
      { env with fields = Smap.add cname cfields env.fields }
  | Cast.Genum { eitems; _ } ->
      {
        env with
        enum_consts =
          List.fold_left (fun m (n, v) -> Smap.add n v m) env.enum_consts eitems;
      }
  | Cast.Gproto { pname; ptyp } -> (
      match ptyp with
      | Ctyp.Func _ -> { env with funcs = Smap.add pname ptyp env.funcs }
      | t -> { env with vars = Smap.add pname t env.vars })
  (* a skipped definition contributes nothing: calls to its name stay
     undefined, i.e. the conservative call model *)
  | Cast.Gskipped _ -> env

let add_tunit env (tu : Cast.tunit) = List.fold_left add_global env tu.tu_globals
let of_program tus = List.fold_left add_tunit empty tus

let rec locals_of_stmt acc (s : Cast.stmt) =
  match s.snode with
  | Cast.Sdecl ds ->
      List.fold_left (fun acc (d : Cast.decl) -> (d.dname, d.dtyp) :: acc) acc ds
  | Cast.Sif (_, t, e) ->
      let acc = locals_of_stmt acc t in
      Option.fold ~none:acc ~some:(locals_of_stmt acc) e
  | Cast.Swhile (_, b) | Cast.Sdo (b, _) | Cast.Slabel (_, b) -> locals_of_stmt acc b
  | Cast.Sfor (init, _, _, b) ->
      let acc = Option.fold ~none:acc ~some:(locals_of_stmt acc) init in
      locals_of_stmt acc b
  | Cast.Sblock ss -> List.fold_left locals_of_stmt acc ss
  | Cast.Sswitch (_, cases) ->
      List.fold_left
        (fun acc (c : Cast.case) -> List.fold_left locals_of_stmt acc c.case_body)
        acc cases
  | Cast.Sexpr _ | Cast.Sreturn _ | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _
  | Cast.Snull ->
      acc

let enter_function env (f : Cast.fundef) =
  let vars =
    List.fold_left (fun m (n, t) -> Smap.add n t m) env.vars f.fparams
  in
  let vars =
    List.fold_left
      (fun m (n, t) -> Smap.add n t m)
      vars
      (List.rev (locals_of_stmt [] f.fbody))
  in
  { env with vars }

let lookup_var env n = Smap.find_opt n env.vars
let lookup_global_info env n = Smap.find_opt n env.globals_meta
let lookup_function env n = Smap.find_opt n env.funcs
let fundefs env = List.map snd (Smap.bindings env.defs)

let field_type env composite fname =
  match resolve env composite with
  | Ctyp.Struct n | Ctyp.Union n -> (
      match Smap.find_opt n env.fields with
      | Some fields -> (
          match List.assoc_opt fname fields with Some t -> t | None -> Ctyp.Unknown)
      | None -> Ctyp.Unknown)
  | _ -> Ctyp.Unknown

(* [resolve] only unfolds the head; for typing we want the head resolved at
   each step. *)
let head env t = match t with Ctyp.Named _ -> resolve env t | t -> t

let rec type_of_expr env (e : Cast.expr) : Ctyp.t =
  match e.enode with
  | Cast.Eint _ -> Ctyp.int_
  | Cast.Efloat _ -> Ctyp.Float Ctyp.Fdouble
  | Cast.Echar _ -> Ctyp.char_
  | Cast.Estr _ -> Ctyp.Ptr Ctyp.char_
  | Cast.Eident x -> (
      match lookup_var env x with
      | Some t -> t
      | None -> (
          match lookup_function env x with
          | Some t -> t
          | None ->
              if Smap.mem x env.enum_consts then Ctyp.int_ else Ctyp.Unknown))
  | Cast.Eunary (Cast.Deref, e1) ->
      head env (Ctyp.pointee (head env (type_of_expr env e1)))
  | Cast.Eunary (Cast.Addrof, e1) -> Ctyp.Ptr (type_of_expr env e1)
  | Cast.Eunary (Cast.Lognot, _) -> Ctyp.int_
  | Cast.Eunary (_, e1) -> type_of_expr env e1
  | Cast.Ebinary ((Cast.Lt | Cast.Gt | Cast.Le | Cast.Ge | Cast.Eq | Cast.Ne | Cast.Land | Cast.Lor), _, _)
    ->
      Ctyp.int_
  | Cast.Ebinary ((Cast.Add | Cast.Sub), l, r) ->
      (* pointer arithmetic keeps the pointer type *)
      let tl = head env (type_of_expr env l) in
      let tr = head env (type_of_expr env r) in
      if Ctyp.is_pointer tl then tl else if Ctyp.is_pointer tr then tr else tl
  | Cast.Ebinary (_, l, _) -> type_of_expr env l
  | Cast.Eassign (_, l, _) -> type_of_expr env l
  | Cast.Ecall (f, _) -> (
      match head env (type_of_expr env f) with
      | Ctyp.Func (r, _, _) -> r
      | Ctyp.Ptr (Ctyp.Func (r, _, _)) -> r
      | _ -> Ctyp.Unknown)
  | Cast.Efield (e1, f) -> field_type env (type_of_expr env e1) f
  | Cast.Earrow (e1, f) ->
      field_type env (Ctyp.pointee (head env (type_of_expr env e1))) f
  | Cast.Eindex (a, _) -> head env (Ctyp.pointee (head env (type_of_expr env a)))
  | Cast.Ecast (t, _) -> t
  | Cast.Econd (_, t, _) -> type_of_expr env t
  | Cast.Ecomma (_, r) -> type_of_expr env r
  | Cast.Esizeof_type _ | Cast.Esizeof_expr _ -> Ctyp.unsigned_int
  | Cast.Einit_list _ -> Ctyp.Unknown

let is_pointer_expr env e =
  let t = head env (type_of_expr env e) in
  Ctyp.is_pointer t
  || (match e.enode with Cast.Eunary (Cast.Addrof, _) | Cast.Estr _ -> true | _ -> false)

let is_scalar_expr env e =
  let t = head env (type_of_expr env e) in
  Ctyp.is_scalar t
