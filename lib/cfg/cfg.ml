type t = {
  fname : string;
  entry : int;
  exit_ : int;
  blocks : Block.t array;
  func : Cast.fundef;
}

(* ------------------------------------------------------------------ *)
(* Builder state                                                       *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable blocks : Block.t list;  (* reverse order *)
  mutable n : int;
  labels : (string, int) Hashtbl.t;
  mutable breaks : int list;  (* stack of break targets *)
  mutable continues : int list;  (* stack of continue targets *)
  exit_id : int ref;
}

let new_block ?(loc = Srcloc.dummy) bld =
  let b =
    { Block.bid = bld.n; elems = []; term = Block.Exit; havoc = []; bloc = loc }
  in
  bld.n <- bld.n + 1;
  bld.blocks <- b :: bld.blocks;
  b

let get_block bld id = List.find (fun (b : Block.t) -> b.bid = id) bld.blocks
let add_elem (b : Block.t) e = b.elems <- b.elems @ [ e ]

let label_block bld name =
  match Hashtbl.find_opt bld.labels name with
  | Some id -> id
  | None ->
      let b = new_block bld in
      Hashtbl.replace bld.labels name b.Block.bid;
      b.Block.bid

(* Variables assigned within a statement (for loop havoc). *)
let rec assigned_vars_expr acc (e : Cast.expr) =
  let acc =
    match e.enode with
    | Cast.Eassign (_, l, _) -> (
        match Cast.base_lvalue l with
        | Some { enode = Cast.Eident x; _ } -> x :: acc
        | _ -> acc)
    | Cast.Eunary ((Cast.Preinc | Cast.Predec | Cast.Postinc | Cast.Postdec), l) -> (
        match Cast.base_lvalue l with
        | Some { enode = Cast.Eident x; _ } -> x :: acc
        | _ -> acc)
    | _ -> acc
  in
  List.fold_left assigned_vars_expr acc
    (match e.enode with
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
        [])

let rec assigned_vars_stmt acc (s : Cast.stmt) =
  match s.snode with
  | Cast.Sexpr e -> assigned_vars_expr acc e
  | Cast.Sdecl ds ->
      List.fold_left
        (fun acc (d : Cast.decl) ->
          let acc = d.dname :: acc in
          match d.dinit with Some e -> assigned_vars_expr acc e | None -> acc)
        acc ds
  | Cast.Sif (c, t, e) ->
      let acc = assigned_vars_expr acc c in
      let acc = assigned_vars_stmt acc t in
      Option.fold ~none:acc ~some:(assigned_vars_stmt acc) e
  | Cast.Swhile (c, b) -> assigned_vars_stmt (assigned_vars_expr acc c) b
  | Cast.Sdo (b, c) -> assigned_vars_expr (assigned_vars_stmt acc b) c
  | Cast.Sfor (init, c, step, b) ->
      let acc = Option.fold ~none:acc ~some:(assigned_vars_stmt acc) init in
      let acc = Option.fold ~none:acc ~some:(assigned_vars_expr acc) c in
      let acc = Option.fold ~none:acc ~some:(assigned_vars_expr acc) step in
      assigned_vars_stmt acc b
  | Cast.Sreturn (Some e) -> assigned_vars_expr acc e
  | Cast.Sblock ss -> List.fold_left assigned_vars_stmt acc ss
  | Cast.Sswitch (e, cases) ->
      let acc = assigned_vars_expr acc e in
      List.fold_left
        (fun acc (c : Cast.case) -> List.fold_left assigned_vars_stmt acc c.case_body)
        acc cases
  | Cast.Slabel (_, s) -> assigned_vars_stmt acc s
  | Cast.Sreturn None | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> acc

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* Lower a branch condition with short-circuit expansion. [cur] is the block
   in which evaluation of [cond] starts; its terminator is set. *)
let rec lower_cond bld (cur : Block.t) (cond : Cast.expr) tdest fdest =
  match cond.enode with
  | Cast.Ebinary (Cast.Land, a, b) ->
      let bblk = new_block ~loc:b.eloc bld in
      lower_cond bld cur a bblk.Block.bid fdest;
      lower_cond bld bblk b tdest fdest
  | Cast.Ebinary (Cast.Lor, a, b) ->
      let bblk = new_block ~loc:b.eloc bld in
      lower_cond bld cur a tdest bblk.Block.bid;
      lower_cond bld bblk b tdest fdest
  | Cast.Eunary (Cast.Lognot, e) -> lower_cond bld cur e fdest tdest
  | _ -> cur.Block.term <- Block.Branch (cond, tdest, fdest)

(* Lower [s] starting in block [cur]; return the block where control
   continues, or [None] when control never falls through. *)
let rec lower_stmt bld (cur : Block.t option) (s : Cast.stmt) : Block.t option =
  match cur with
  | None -> (
      (* unreachable code after return/break: still lower labels inside *)
      match s.snode with
      | Cast.Slabel (name, body) ->
          let id = label_block bld name in
          let b = get_block bld id in
          b.Block.bloc <- s.sloc;
          lower_stmt bld (Some b) body
      | Cast.Sblock ss -> List.fold_left (lower_stmt bld) None ss
      | _ -> None)
  | Some cur -> (
      match s.snode with
      | Cast.Snull -> Some cur
      | Cast.Sexpr e ->
          add_elem cur (Block.Tree e);
          Some cur
      | Cast.Sdecl ds ->
          List.iter (fun d -> add_elem cur (Block.Decl d)) ds;
          Some cur
      | Cast.Sblock ss -> List.fold_left (lower_stmt bld) (Some cur) ss
      | Cast.Sif (c, t, e) ->
          let tblk = new_block ~loc:t.sloc bld in
          let join = new_block bld in
          let fblk =
            match e with
            | None -> join
            | Some es -> new_block ~loc:es.sloc bld
          in
          lower_cond bld cur c tblk.Block.bid fblk.Block.bid;
          (match lower_stmt bld (Some tblk) t with
          | Some last -> last.Block.term <- Block.Jump join.Block.bid
          | None -> ());
          (match e with
          | None -> ()
          | Some es -> (
              match lower_stmt bld (Some fblk) es with
              | Some last -> last.Block.term <- Block.Jump join.Block.bid
              | None -> ()));
          Some join
      | Cast.Swhile (c, body) ->
          let header = new_block ~loc:s.sloc bld in
          let bodyb = new_block ~loc:body.sloc bld in
          let join = new_block bld in
          header.Block.havoc <- List.sort_uniq String.compare (assigned_vars_stmt [] body);
          cur.Block.term <- Block.Jump header.Block.bid;
          lower_cond bld header c bodyb.Block.bid join.Block.bid;
          bld.breaks <- join.Block.bid :: bld.breaks;
          bld.continues <- header.Block.bid :: bld.continues;
          (match lower_stmt bld (Some bodyb) body with
          | Some last -> last.Block.term <- Block.Jump header.Block.bid
          | None -> ());
          bld.breaks <- List.tl bld.breaks;
          bld.continues <- List.tl bld.continues;
          Some join
      | Cast.Sdo (body, c) ->
          let bodyb = new_block ~loc:body.sloc bld in
          let condb = new_block bld in
          let join = new_block bld in
          bodyb.Block.havoc <- List.sort_uniq String.compare (assigned_vars_stmt [] body);
          cur.Block.term <- Block.Jump bodyb.Block.bid;
          bld.breaks <- join.Block.bid :: bld.breaks;
          bld.continues <- condb.Block.bid :: bld.continues;
          (match lower_stmt bld (Some bodyb) body with
          | Some last -> last.Block.term <- Block.Jump condb.Block.bid
          | None -> ());
          bld.breaks <- List.tl bld.breaks;
          bld.continues <- List.tl bld.continues;
          lower_cond bld condb c bodyb.Block.bid join.Block.bid;
          Some join
      | Cast.Sfor (init, c, step, body) ->
          let cur =
            match init with
            | None -> cur
            | Some init -> (
                match lower_stmt bld (Some cur) init with
                | Some b -> b
                | None -> cur)
          in
          let header = new_block ~loc:s.sloc bld in
          let bodyb = new_block ~loc:body.sloc bld in
          let stepb = new_block bld in
          let join = new_block bld in
          let havoc =
            let acc = assigned_vars_stmt [] body in
            let acc = Option.fold ~none:acc ~some:(assigned_vars_expr acc) step in
            List.sort_uniq String.compare acc
          in
          header.Block.havoc <- havoc;
          cur.Block.term <- Block.Jump header.Block.bid;
          (match c with
          | None -> header.Block.term <- Block.Jump bodyb.Block.bid
          | Some c -> lower_cond bld header c bodyb.Block.bid join.Block.bid);
          bld.breaks <- join.Block.bid :: bld.breaks;
          bld.continues <- stepb.Block.bid :: bld.continues;
          (match lower_stmt bld (Some bodyb) body with
          | Some last -> last.Block.term <- Block.Jump stepb.Block.bid
          | None -> ());
          bld.breaks <- List.tl bld.breaks;
          bld.continues <- List.tl bld.continues;
          (match step with Some e -> add_elem stepb (Block.Tree e) | None -> ());
          stepb.Block.term <- Block.Jump header.Block.bid;
          Some join
      | Cast.Sreturn e ->
          cur.Block.term <- Block.Return e;
          None
      | Cast.Sbreak ->
          (match bld.breaks with
          | target :: _ -> cur.Block.term <- Block.Jump target
          | [] -> ());
          None
      | Cast.Scontinue ->
          (match bld.continues with
          | target :: _ -> cur.Block.term <- Block.Jump target
          | [] -> ());
          None
      | Cast.Sgoto name ->
          cur.Block.term <- Block.Jump (label_block bld name);
          None
      | Cast.Slabel (name, body) ->
          let id = label_block bld name in
          let lblk = get_block bld id in
          lblk.Block.bloc <- s.sloc;
          cur.Block.term <- Block.Jump id;
          lower_stmt bld (Some lblk) body
      | Cast.Sswitch (e, cases) ->
          let join = new_block bld in
          let arm_blocks =
            List.map (fun (c : Cast.case) -> (c, new_block bld)) cases
          in
          let arms =
            List.map (fun ((c : Cast.case), b) -> (c.case_guard, b.Block.bid)) arm_blocks
          in
          let arms =
            if List.exists (fun (g, _) -> g = None) arms then arms
            else arms @ [ (None, join.Block.bid) ]
          in
          cur.Block.term <- Block.Switch (e, arms);
          bld.breaks <- join.Block.bid :: bld.breaks;
          let rec lower_arms = function
            | [] -> ()
            | ((c : Cast.case), (b : Block.t)) :: rest ->
                let last =
                  List.fold_left (lower_stmt bld) (Some b) c.case_body
                in
                (match last with
                | Some lastb ->
                    (* fallthrough to the next arm, or to the join *)
                    let target =
                      match rest with
                      | (_, nb) :: _ -> nb.Block.bid
                      | [] -> join.Block.bid
                    in
                    lastb.Block.term <- Block.Jump target
                | None -> ());
                lower_arms rest
          in
          lower_arms arm_blocks;
          bld.breaks <- List.tl bld.breaks;
          Some join)

let locals_of (f : Cast.fundef) =
  let rec go acc (s : Cast.stmt) =
    match s.snode with
    | Cast.Sdecl ds ->
        List.fold_left (fun acc (d : Cast.decl) -> (d.dname, d.dtyp) :: acc) acc ds
    | Cast.Sif (_, t, e) ->
        let acc = go acc t in
        Option.fold ~none:acc ~some:(go acc) e
    | Cast.Swhile (_, b) | Cast.Sdo (b, _) | Cast.Slabel (_, b) -> go acc b
    | Cast.Sfor (init, _, _, b) ->
        let acc = Option.fold ~none:acc ~some:(go acc) init in
        go acc b
    | Cast.Sblock ss -> List.fold_left go acc ss
    | Cast.Sswitch (_, cases) ->
        List.fold_left
          (fun acc (c : Cast.case) -> List.fold_left go acc c.case_body)
          acc cases
    | Cast.Sexpr _ | Cast.Sreturn _ | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _
    | Cast.Snull ->
        acc
  in
  go [] f.fbody

let of_fundef (f : Cast.fundef) =
  let bld =
    {
      blocks = [];
      n = 0;
      labels = Hashtbl.create 8;
      breaks = [];
      continues = [];
      exit_id = ref (-1);
    }
  in
  let entry = new_block ~loc:f.floc bld in
  let last = lower_stmt bld (Some entry) f.fbody in
  (* single exit node ep *)
  let exit_b = new_block bld in
  bld.exit_id := exit_b.Block.bid;
  (* only true locals: parameters may map back to caller scope, so their
     permanent scope exit is the engine's responsibility (root exit) *)
  let locals = List.map fst (locals_of f) in
  exit_b.Block.elems <- [ Block.End_of_scope (List.sort_uniq String.compare locals) ];
  exit_b.Block.term <- Block.Exit;
  (match last with
  | Some b -> b.Block.term <- Block.Return None
  | None -> ());
  (* Return terminators remain; [successors] maps them to the exit node. *)
  let blocks = Array.of_list (List.rev bld.blocks) in
  Array.sort (fun (a : Block.t) b -> Int.compare a.bid b.bid) blocks;
  { fname = f.fname; entry = entry.Block.bid; exit_ = exit_b.Block.bid; blocks; func = f }

let block (cfg : t) id = cfg.blocks.(id)
let n_blocks (cfg : t) = Array.length cfg.blocks

let successors cfg id =
  match (block cfg id).Block.term with
  | Block.Return _ -> [ cfg.exit_ ]
  | t -> (
      match t with
      | Block.Jump x -> [ x ]
      | Block.Branch (_, a, b) -> if a = b then [ a ] else [ a; b ]
      | Block.Switch (_, arms) -> List.sort_uniq Int.compare (List.map snd arms)
      | Block.Return _ | Block.Exit -> [])


let pp ppf (cfg : t) =
  Format.fprintf ppf "@[<v>function %s (entry B%d, exit B%d)" cfg.fname cfg.entry
    cfg.exit_;
  Array.iter (fun b -> Format.fprintf ppf "@ %a" Block.pp b) cfg.blocks;
  Format.fprintf ppf "@]"
