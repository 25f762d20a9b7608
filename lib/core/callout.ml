type value =
  | Vbool of bool
  | Vint of int64
  | Vstr of string
  | Vast of Cast.expr
  | Vargs of Cast.expr list
  | Vunit

type ctx = {
  typing : Ctyping.env;
  node : Cast.expr option;
  annots : int -> string list option;
}

type fn = ctx -> value list -> value

let registry : (string, fn) Hashtbl.t = Hashtbl.create 32
let register name fn = Hashtbl.replace registry name fn

let truthy = function
  | Vbool b -> b
  | Vint n -> not (Int64.equal n 0L)
  | Vstr s -> not (String.equal s "")
  | Vast _ | Vargs _ -> true
  | Vunit -> false

let ast_of = function
  | Vast e -> Some e
  | _ -> None

let call_name (e : Cast.expr) =
  match e.enode with
  | Cast.Eident f -> Some f
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, _) -> Some f
  | _ -> None

let installed = ref false

let install_builtins () =
  if not !installed then begin
    installed := true;
    register "mc_is_call_to" (fun _ctx args ->
        match args with
        | [ v; Vstr name ] -> (
            match ast_of v with
            | Some e -> Vbool (Option.equal String.equal (call_name e) (Some name))
            | None -> Vbool false)
        | _ -> Vbool false);
    register "mc_identifier" (fun _ctx args ->
        match args with
        | [ Vast e ] -> Vstr (Cprint.expr_to_string e)
        | _ -> Vstr "?");
    register "mc_is_constant" (fun _ctx args ->
        match args with
        | [ Vast e ] -> Vbool (Option.is_some (Cparse.const_eval e))
        | _ -> Vbool false);
    register "mc_constant_value" (fun _ctx args ->
        match args with
        | [ Vast e ] -> (
            match Cparse.const_eval e with Some n -> Vint n | None -> Vunit)
        | _ -> Vunit);
    register "mc_is_pointer" (fun ctx args ->
        match args with
        | [ Vast e ] -> Vbool (Ctyping.is_pointer_expr ctx.typing e)
        | _ -> Vbool false);
    register "mc_is_scalar" (fun ctx args ->
        match args with
        | [ Vast e ] -> Vbool (Ctyping.is_scalar_expr ctx.typing e)
        | _ -> Vbool false);
    register "mc_num_args" (fun _ctx args ->
        match args with
        | [ Vargs es ] -> Vint (Int64.of_int (List.length es))
        | _ -> Vint 0L);
    register "mc_nth_arg" (fun _ctx args ->
        match args with
        | [ Vargs es; Vint n ] -> (
            match List.nth_opt es (Int64.to_int n) with
            | Some e -> Vast e
            | None -> Vunit)
        | _ -> Vunit);
    register "mc_contains" (fun _ctx args ->
        match args with
        | [ Vast hay; Vast needle ] -> Vbool (Cast.contains_expr ~needle hay)
        | _ -> Vbool false);
    register "mc_annotated" (fun ctx args ->
        match args with
        | [ Vast e; Vstr tag ] ->
            Vbool
              (match ctx.annots e.eid with
              | Some tags -> List.mem tag tags
              | None -> false)
        | [ Vstr tag ] ->
            Vbool
              (match ctx.node with
              | Some n -> (
                  match ctx.annots n.eid with
                  | Some tags -> List.mem tag tags
                  | None -> false)
              | None -> false)
        | _ -> Vbool false);
    register "mc_derefs" (fun _ctx args ->
        (* does this node read through the pointer: *v, v->f, v[i] *)
        match args with
        | [ Vast node; Vast v ] ->
            Vbool
              (match node.Cast.enode with
              | Cast.Eunary (Cast.Deref, e1)
              | Cast.Earrow (e1, _)
              | Cast.Eindex (e1, _) ->
                  Cast.equal_expr e1 v
              | _ -> false)
        | _ -> Vbool false);
    register "mc_is_ident" (fun _ctx args ->
        match args with
        | [ Vast { Cast.enode = Cast.Eident _; _ } ] -> Vbool true
        | _ -> Vbool false);
    register "mc_name_contains" (fun _ctx args ->
        match args with
        | [ Vast e; Vstr sub ] -> (
            match call_name e with
            | Some name ->
                let contains s sub =
                  let n = String.length s and m = String.length sub in
                  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
                  m = 0 || go 0
                in
                Vbool (contains name sub)
            | None -> Vbool false)
        | _ -> Vbool false)
  end

let lookup name =
  install_builtins ();
  Hashtbl.find_opt registry name

let names () =
  install_builtins ();
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
