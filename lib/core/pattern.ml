type t =
  | Pexpr of Cast.expr
  | Pand of t * t
  | Por of t * t
  | Pcallout of Cast.expr
  | Pend_of_path
  | Pnever
  | Palways

type binding = Bnode of Cast.expr | Bargs of Cast.expr list
type bindings = (string * binding) list
type event = At_node of Cast.expr | At_end_of_path

let rec mentions_expr (e : Cast.expr) name =
  match e.enode with
  | Cast.Eident x -> String.equal x name
  | _ ->
      let children =
        match e.enode with
        | Cast.Eunary (_, e1)
        | Cast.Ecast (_, e1)
        | Cast.Esizeof_expr e1
        | Cast.Efield (e1, _)
        | Cast.Earrow (e1, _) ->
            [ e1 ]
        | Cast.Ebinary (_, l, r)
        | Cast.Eassign (_, l, r)
        | Cast.Eindex (l, r)
        | Cast.Ecomma (l, r) ->
            [ l; r ]
        | Cast.Econd (c, th, el) -> [ c; th; el ]
        | Cast.Ecall (f, args) -> f :: args
        | Cast.Einit_list es -> es
        | _ -> []
      in
      List.exists (fun c -> mentions_expr c name) children

let rec mentions_hole p name =
  match p with
  | Pexpr e | Pcallout e -> mentions_expr e name
  | Pand (a, b) | Por (a, b) -> mentions_hole a name || mentions_hole b name
  | Pend_of_path | Pnever | Palways -> false

let holes_of p env = List.filter (fun (n, _) -> mentions_hole p n) env

(* Event-kind capabilities, used by the dispatch compiler to drop
   transitions from the node / end-of-path candidate lists. Conservative
   in the callout direction: a callout's truth value is unknowable
   statically, so it can match either event kind. *)
let rec can_match_node = function
  | Pexpr _ | Pcallout _ | Palways -> true
  | Pend_of_path | Pnever -> false
  | Pand (a, b) -> can_match_node a && can_match_node b
  | Por (a, b) -> can_match_node a || can_match_node b

let rec can_match_end_of_path = function
  | Pend_of_path | Pcallout _ | Palways -> true
  | Pexpr _ | Pnever -> false
  | Pand (a, b) -> can_match_end_of_path a && can_match_end_of_path b
  | Por (a, b) -> can_match_end_of_path a || can_match_end_of_path b

(* ------------------------------------------------------------------ *)
(* Structural matching with holes                                      *)
(* ------------------------------------------------------------------ *)

let bind bindings name b =
  match List.assoc_opt name bindings with
  | Some existing -> (
      match (existing, b) with
      | Bnode a, Bnode b when Cast.equal_expr a b -> Some bindings
      | Bargs a, Bargs b
        when List.length a = List.length b && List.for_all2 Cast.equal_expr a b ->
          Some bindings
      | _ -> None)
  | None -> Some ((name, b) :: bindings)

(* Strip no-op wrappers (casts) on the subject side so that a cast pointer
   still matches a bare-pointer hole. Pattern-side nodes are taken
   literally. *)
let rec strip (e : Cast.expr) =
  match e.enode with Cast.Ecast (_, e1) -> strip e1 | _ -> e

let hole_of holes name = List.assoc_opt name holes

let rec match_expr ctx holes (pat : Cast.expr) (sub : Cast.expr) bindings :
    bindings option =
  let ( let* ) = Option.bind in
  match pat.enode with
  | Cast.Eident h when Option.is_some (hole_of holes h) -> (
      let ht = Option.get (hole_of holes h) in
      match ht with
      | Holes.Any_arguments ->
          (* an argument-list hole in expression position: no match *)
          None
      | Holes.Any_fn_call ->
          if Holes.matches ctx.Callout.typing ht sub then bind bindings h (Bnode sub)
          else None
      | _ ->
          let sub' = strip sub in
          if Holes.matches ctx.Callout.typing ht sub' then bind bindings h (Bnode sub')
          else None)
  | _ -> (
      match (pat.enode, sub.enode) with
      | Cast.Eint a, Cast.Eint b -> if Int64.equal a b then Some bindings else None
      | Cast.Efloat a, Cast.Efloat b -> if Float.equal a b then Some bindings else None
      | Cast.Echar a, Cast.Echar b -> if Char.equal a b then Some bindings else None
      | Cast.Estr a, Cast.Estr b -> if String.equal a b then Some bindings else None
      | Cast.Eident a, Cast.Eident b -> if String.equal a b then Some bindings else None
      | Cast.Eunary (ua, a), Cast.Eunary (ub, b) when ua = ub ->
          match_expr ctx holes a b bindings
      | Cast.Ebinary (oa, la, ra), Cast.Ebinary (ob, lb, rb) when oa = ob ->
          let* bindings = match_expr ctx holes la lb bindings in
          match_expr ctx holes ra rb bindings
      | Cast.Eassign (oa, la, ra), Cast.Eassign (ob, lb, rb) when oa = ob ->
          let* bindings = match_expr ctx holes la lb bindings in
          match_expr ctx holes ra rb bindings
      | Cast.Ecall (pf, pargs), Cast.Ecall (sf, sargs) -> (
          (* function position: an any_fn_call hole binds the callee *)
          let* bindings =
            match pf.enode with
            | Cast.Eident h when hole_of holes h = Some Holes.Any_fn_call ->
                bind bindings h (Bnode sf)
            | _ -> match_expr ctx holes pf sf bindings
          in
          match pargs with
          | [ { enode = Cast.Eident h; _ } ]
            when hole_of holes h = Some Holes.Any_arguments ->
              bind bindings h (Bargs sargs)
          | _ ->
              if List.length pargs <> List.length sargs then None
              else
                List.fold_left2
                  (fun acc p s ->
                    let* bindings = acc in
                    match_expr ctx holes p s bindings)
                  (Some bindings) pargs sargs)
      | Cast.Efield (a, fa), Cast.Efield (b, fb) when String.equal fa fb ->
          match_expr ctx holes a b bindings
      | Cast.Earrow (a, fa), Cast.Earrow (b, fb) when String.equal fa fb ->
          match_expr ctx holes a b bindings
      | Cast.Eindex (aa, ia), Cast.Eindex (ab, ib) ->
          let* bindings = match_expr ctx holes aa ab bindings in
          match_expr ctx holes ia ib bindings
      | Cast.Ecast (ta, a), Cast.Ecast (tb, b) when Ctyp.equal ta tb ->
          match_expr ctx holes a b bindings
      | Cast.Econd (ca, ta, fa), Cast.Econd (cb, tb, fb) ->
          let* bindings = match_expr ctx holes ca cb bindings in
          let* bindings = match_expr ctx holes ta tb bindings in
          match_expr ctx holes fa fb bindings
      | Cast.Ecomma (la, ra), Cast.Ecomma (lb, rb) ->
          let* bindings = match_expr ctx holes la lb bindings in
          match_expr ctx holes ra rb bindings
      | Cast.Esizeof_type ta, Cast.Esizeof_type tb ->
          if Ctyp.equal ta tb then Some bindings else None
      | Cast.Esizeof_expr a, Cast.Esizeof_expr b -> match_expr ctx holes a b bindings
      | _, _ -> None)

(* ------------------------------------------------------------------ *)
(* Callout evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let rec eval_callout (ctx : Callout.ctx) (bindings : bindings) (e : Cast.expr) :
    Callout.value =
  match e.enode with
  | Cast.Eint n -> Callout.Vint n
  | Cast.Estr s -> Callout.Vstr s
  | Cast.Echar c -> Callout.Vint (Int64.of_int (Char.code c))
  | Cast.Eident "mc_stmt" -> (
      match ctx.node with Some n -> Callout.Vast n | None -> Callout.Vunit)
  | Cast.Eident x -> (
      match List.assoc_opt x bindings with
      | Some (Bnode n) -> Callout.Vast n
      | Some (Bargs args) -> Callout.Vargs args
      | None -> Callout.Vunit)
  | Cast.Eunary (Cast.Lognot, e1) ->
      Callout.Vbool (not (Callout.truthy (eval_callout ctx bindings e1)))
  | Cast.Ebinary (Cast.Land, a, b) ->
      Callout.Vbool
        (Callout.truthy (eval_callout ctx bindings a)
        && Callout.truthy (eval_callout ctx bindings b))
  | Cast.Ebinary (Cast.Lor, a, b) ->
      Callout.Vbool
        (Callout.truthy (eval_callout ctx bindings a)
        || Callout.truthy (eval_callout ctx bindings b))
  | Cast.Ebinary (Cast.Eq, a, b) -> Callout.Vbool (values_equal ctx bindings a b)
  | Cast.Ebinary (Cast.Ne, a, b) -> Callout.Vbool (not (values_equal ctx bindings a b))
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, args) -> (
      match Callout.lookup f with
      | Some fn -> fn ctx (List.map (eval_callout ctx bindings) args)
      | None -> Callout.Vbool false)
  | _ -> Callout.Vbool false

and values_equal ctx bindings a b =
  match (eval_callout ctx bindings a, eval_callout ctx bindings b) with
  | Callout.Vint x, Callout.Vint y -> Int64.equal x y
  | Callout.Vstr x, Callout.Vstr y -> String.equal x y
  | Callout.Vbool x, Callout.Vbool y -> Bool.equal x y
  | Callout.Vast x, Callout.Vast y -> Cast.equal_expr x y
  | _, _ -> false

(* ------------------------------------------------------------------ *)
(* Top-level matching                                                  *)
(* ------------------------------------------------------------------ *)

let rec match_event ?(init = []) ~ctx ~holes p (ev : event) : bindings option =
  match_with ~ctx ~holes p ev init

and match_with ~ctx ~holes p ev bindings =
  match (p, ev) with
  | Pnever, _ -> None
  | Palways, _ -> Some bindings
  | Pend_of_path, At_end_of_path -> Some bindings
  | Pend_of_path, At_node _ -> None
  | Pexpr pat, At_node node -> match_expr ctx holes pat node bindings
  | Pexpr _, At_end_of_path -> None
  | Pcallout body, _ ->
      if Callout.truthy (eval_callout ctx bindings body) then Some bindings else None
  | Pand (a, b), ev -> (
      match match_with ~ctx ~holes a ev bindings with
      | Some bindings -> match_with ~ctx ~holes b ev bindings
      | None -> None)
  | Por (a, b), ev -> (
      match match_with ~ctx ~holes a ev bindings with
      | Some _ as r -> r
      | None -> match_with ~ctx ~holes b ev bindings)

let rec pp ppf = function
  | Pexpr e -> Format.fprintf ppf "{ %a }" Cprint.pp_expr e
  | Pand (a, b) -> Format.fprintf ppf "%a && %a" pp a pp b
  | Por (a, b) -> Format.fprintf ppf "%a || %a" pp a pp b
  | Pcallout e -> Format.fprintf ppf "${ %a }" Cprint.pp_expr e
  | Pend_of_path -> Format.pp_print_string ppf "$end_of_path$"
  | Pnever -> Format.pp_print_string ppf "${0}"
  | Palways -> Format.pp_print_string ppf "${1}"
