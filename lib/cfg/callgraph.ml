module Smap = Map.Make (String)
module Sset = Set.Make (String)

type t = {
  callees_ : string list Smap.t;
  callers_ : string list Smap.t;
  roots_ : string list;
  cyclic : Sset.t;
}

let rec calls_of_expr acc (e : Cast.expr) =
  let acc =
    match e.enode with
    | Cast.Ecall ({ enode = Cast.Eident f; _ }, _) -> f :: acc
    | _ -> acc
  in
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
    | Cast.Econd (c, t, f) -> [ c; t; f ]
    | Cast.Ecall (f, args) -> f :: args
    | Cast.Einit_list es -> es
    | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ | Cast.Eident _
    | Cast.Esizeof_type _ ->
        []
  in
  List.fold_left calls_of_expr acc children

let rec calls_of_stmt acc (s : Cast.stmt) =
  match s.snode with
  | Cast.Sexpr e -> calls_of_expr acc e
  | Cast.Sdecl ds ->
      List.fold_left
        (fun acc (d : Cast.decl) ->
          match d.dinit with Some e -> calls_of_expr acc e | None -> acc)
        acc ds
  | Cast.Sif (c, t, e) ->
      let acc = calls_of_expr acc c in
      let acc = calls_of_stmt acc t in
      Option.fold ~none:acc ~some:(calls_of_stmt acc) e
  | Cast.Swhile (c, b) -> calls_of_stmt (calls_of_expr acc c) b
  | Cast.Sdo (b, c) -> calls_of_expr (calls_of_stmt acc b) c
  | Cast.Sfor (init, c, step, b) ->
      let acc = Option.fold ~none:acc ~some:(calls_of_stmt acc) init in
      let acc = Option.fold ~none:acc ~some:(calls_of_expr acc) c in
      let acc = Option.fold ~none:acc ~some:(calls_of_expr acc) step in
      calls_of_stmt acc b
  | Cast.Sreturn (Some e) -> calls_of_expr acc e
  | Cast.Sblock ss -> List.fold_left calls_of_stmt acc ss
  | Cast.Sswitch (e, cases) ->
      let acc = calls_of_expr acc e in
      List.fold_left
        (fun acc (c : Cast.case) -> List.fold_left calls_of_stmt acc c.case_body)
        acc cases
  | Cast.Slabel (_, s) -> calls_of_stmt acc s
  | Cast.Sreturn None | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> acc

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let reachable callees_ roots =
  let visited = ref Sset.empty in
  let rec go f =
    if not (Sset.mem f !visited) then begin
      visited := Sset.add f !visited;
      List.iter go (Option.value (Smap.find_opt f callees_) ~default:[])
    end
  in
  List.iter go roots;
  !visited

let build (funcs : Cast.fundef list) =
  let defined =
    List.fold_left (fun s (f : Cast.fundef) -> Sset.add f.fname s) Sset.empty funcs
  in
  let callees_ =
    List.fold_left
      (fun m (f : Cast.fundef) ->
        let calls =
          dedup (List.filter (fun c -> Sset.mem c defined) (List.rev (calls_of_stmt [] f.fbody)))
        in
        Smap.add f.fname calls m)
      Smap.empty funcs
  in
  let callers_ =
    Smap.fold
      (fun caller callees m ->
        List.fold_left
          (fun m callee ->
            let existing = Option.value (Smap.find_opt callee m) ~default:[] in
            Smap.add callee (caller :: existing) m)
          m callees)
      callees_
      (Smap.map (fun _ -> []) callees_)
  in
  let no_caller =
    List.filter
      (fun f -> Option.value (Smap.find_opt f callers_) ~default:[] = [])
      (List.map (fun (f : Cast.fundef) -> f.fname) funcs)
  in
  (* Break recursion-only components arbitrarily: keep adding the
     lexicographically first unreached function as a root. *)
  let roots_ = ref no_caller in
  let rec top_up () =
    let reached = reachable callees_ !roots_ in
    let unreached = Sset.diff defined reached in
    match Sset.min_elt_opt unreached with
    | None -> ()
    | Some f ->
        roots_ := !roots_ @ [ f ];
        top_up ()
  in
  top_up ();
  (* cycle detection: a function is cyclic if it can reach itself *)
  let cyclic =
    Sset.filter
      (fun f ->
        let direct = Option.value (Smap.find_opt f callees_) ~default:[] in
        Sset.mem f (reachable callees_ direct))
      defined
  in
  { callees_; callers_; roots_ = !roots_; cyclic }

let callees t f = Option.value (Smap.find_opt f t.callees_) ~default:[]
let callers t f = Option.value (Smap.find_opt f t.callers_) ~default:[]
let roots t = t.roots_
let is_defined t f = Smap.mem f t.callees_
let functions t = List.map fst (Smap.bindings t.callees_)
let in_cycle t f = Sset.mem f t.cyclic

(* Longest chain of calls below each function, or [None] when the
   function's transitive callee closure touches a recursive cycle (no
   finite height exists). Memoised on demand; safe to recurse without an
   on-stack marker because a function outside [cyclic] cannot reach
   itself, so the DFS never re-enters a frame it has open. *)
let acyclic_heights ?(known = fun _ -> None) t =
  let memo : (string, int option) Hashtbl.t = Hashtbl.create 64 in
  let rec go f =
    match known f with
    | Some h -> h
    | None -> (
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
            let r =
              if Sset.mem f t.cyclic || not (Smap.mem f t.callees_) then None
              else
                List.fold_left
                  (fun acc c ->
                    match (acc, go c) with
                    | Some a, Some hc -> Some (max a (hc + 1))
                    | _ -> None)
                  (Some 0) (callees t f)
            in
            Hashtbl.replace memo f r;
            r)
  in
  go

let closure t f = Sset.elements (reachable t.callees_ [ f ])

(* Roots from last to first, with one claimed set: the DFS from root [i]
   claims every function of its closure not claimed yet. A function that
   is already claimed lies in a later root's closure, and so does every
   function it calls, so the walk stops there and visits each function and
   call edge once. *)
let release_schedule t =
  let roots = Array.of_list t.roots_ in
  let slots = Array.make (Array.length roots) [] in
  let claimed = Hashtbl.create 64 in
  for i = Array.length roots - 1 downto 0 do
    let rec claim f =
      if not (Hashtbl.mem claimed f) then begin
        Hashtbl.replace claimed f ();
        slots.(i) <- f :: slots.(i);
        List.iter claim (callees t f)
      end
    in
    claim roots.(i)
  done;
  slots

let pp ppf t =
  Format.fprintf ppf "@[<v>roots: %s" (String.concat ", " t.roots_);
  Smap.iter
    (fun f callees ->
      Format.fprintf ppf "@ %s -> %s" f (String.concat ", " callees))
    t.callees_;
  Format.fprintf ppf "@]"
