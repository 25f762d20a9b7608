(* Hash-consed expression identity.

   The base table assigns a dense integer id to every distinct expression
   key appearing in the program: Supergraph.build inserts every
   subexpression of every CFG event plus an identifier node for every
   declared name (formals, locals, globals), then the table is frozen and
   shared read-only across engine worker domains, like Flat.t.

   Identity is *key* identity: two expressions get the same id exactly
   when their Cast.key_of_expr renderings are equal. Lookups never render
   program nodes — a per-node eid memo resolves them with one integer
   hash lookup — and render at most once per distinct synthesized tree
   (refine/restore substitutions), memoised by eid thereafter.

   Overflow ids (expressions absent from the program text) are minted
   from a process-global counter so ids from different contexts never
   collide; they are private to the minting context. *)

type t = {
  by_key : (string, int) Hashtbl.t;  (* rendered key -> id *)
  by_eid : (int, int) Hashtbl.t;  (* program node eid -> id *)
  mutable keys : string array;  (* id -> rendered key *)
  mutable n : int;
}

type ctx = {
  base : t;
  o_by_key : (string, int) Hashtbl.t;
  o_by_eid : (int, int) Hashtbl.t;
  o_keys : (int, string) Hashtbl.t;
}

(* Process-global so overflow ids minted by concurrent contexts (one per
   root traversal) are distinct: an id can then be compared for equality
   against any instance it may meet, wherever that instance was made.
   Never compare ids for *order* — overflow minting order is scheduling
   dependent. *)
let overflow_counter = Atomic.make 0

let create () =
  {
    by_key = Hashtbl.create 1024;
    by_eid = Hashtbl.create 4096;
    keys = Array.make 1024 "";
    n = 0;
  }

let n t = t.n

(* Insert one node (not its children): id by rendered key, eid memoised. *)
let insert_node t (e : Cast.expr) =
  match Hashtbl.find_opt t.by_eid e.Cast.eid with
  | Some _ -> ()
  | None ->
      let k = Cast.key_of_expr e in
      let id =
        match Hashtbl.find_opt t.by_key k with
        | Some id -> id
        | None ->
            let id = t.n in
            t.n <- id + 1;
            if id >= Array.length t.keys then begin
              let keys = Array.make (2 * Array.length t.keys) "" in
              Array.blit t.keys 0 keys 0 id;
              t.keys <- keys
            end;
            t.keys.(id) <- k;
            Hashtbl.replace t.by_key k id;
            id
      in
      Hashtbl.replace t.by_eid e.Cast.eid id

let rec insert_tree t e =
  insert_node t e;
  List.iter (insert_tree t) (Cast.children e)

(* A declared name as it appears in instance targets: a bare identifier
   node (fresh, so only its key entry matters — refine/restore and the
   exhaustive baseline retarget instances onto exactly these trees). *)
let insert_name t name = insert_node t (Cast.ident name)

let insert_decl t (d : Cast.decl) =
  insert_name t d.Cast.dname;
  Option.iter (insert_tree t) d.Cast.dinit

let insert_block t (b : Block.t) =
  List.iter
    (function
      | Block.Tree e -> insert_tree t e
      | Block.Decl d -> insert_decl t d
      | Block.End_of_scope _ -> ())
    b.Block.elems;
  match b.Block.term with
  | Block.Branch (e, _, _) | Block.Switch (e, _) | Block.Return (Some e) ->
      insert_tree t e
  | Block.Jump _ | Block.Return None | Block.Exit -> ()

let build ~tunits ~cfgs =
  let t = create () in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gvar { gdecl; _ } -> insert_decl t gdecl
          | Cast.Gfun _ | Cast.Gtypedef _ | Cast.Gcomposite _ | Cast.Genum _
          | Cast.Gproto _ | Cast.Gskipped _ ->
              ())
        tu.Cast.tu_globals)
    tunits;
  List.iter
    (fun (cfg : Cfg.t) ->
      List.iter (fun (p, _) -> insert_name t p) cfg.Cfg.func.Cast.fparams;
      for bid = 0 to Cfg.n_blocks cfg - 1 do
        insert_block t (Cfg.block cfg bid)
      done)
    cfgs;
  t

let empty = create

let make_ctx base =
  {
    base;
    o_by_key = Hashtbl.create 64;
    o_by_eid = Hashtbl.create 64;
    o_keys = Hashtbl.create 64;
  }

let mint ctx k =
  let id = ctx.base.n + Atomic.fetch_and_add overflow_counter 1 in
  Hashtbl.replace ctx.o_by_key k id;
  Hashtbl.replace ctx.o_keys id k;
  id

(* Resolve by rendered key: the path for trees [Supergraph.build] never
   saw (their eids miss the base memo), memoised by eid in [id]. *)
let id_by_string ctx (e : Cast.expr) =
  let k = Cast.key_of_expr e in
  match Hashtbl.find_opt ctx.base.by_key k with
  | Some id -> id
  | None -> (
      match Hashtbl.find_opt ctx.o_by_key k with
      | Some id -> id
      | None -> mint ctx k)

let id ctx (e : Cast.expr) =
  match Hashtbl.find_opt ctx.base.by_eid e.Cast.eid with
  | Some id -> id
  | None -> (
      match Hashtbl.find_opt ctx.o_by_eid e.Cast.eid with
      | Some id -> id
      | None ->
          let id = id_by_string ctx e in
          Hashtbl.replace ctx.o_by_eid e.Cast.eid id;
          id)

let find_key ctx id =
  if id < ctx.base.n then Some ctx.base.keys.(id)
  else Hashtbl.find_opt ctx.o_keys id

let key ctx id =
  if id < ctx.base.n then ctx.base.keys.(id)
  else Hashtbl.find ctx.o_keys id

let table_bytes t =
  (* rough live size for the --stats memory line: key bytes + the three
     word-sized table slots per entry *)
  let key_bytes = ref 0 in
  for i = 0 to t.n - 1 do
    key_bytes := !key_bytes + String.length t.keys.(i)
  done;
  !key_bytes + ((Hashtbl.length t.by_key + Hashtbl.length t.by_eid + t.n) * 24)
