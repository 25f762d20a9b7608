type tvar = { v_key : string; v_tree : Cast.expr; v_value : string; v_depth : int }
(* [v_depth] is the creation depth of the instance relative to the current
   frame (0 = created here); it rides along for ranking but is excluded
   from tuple keys so it never affects caching. *)
type tuple = { t_g : string; t_v : tvar option }

let unknown_value = "<unknown>"

let tuple_key t =
  match t.t_v with
  | None -> Printf.sprintf "(%s,<>)" t.t_g
  | Some v -> Printf.sprintf "(%s,%s->%s)" t.t_g v.v_key v.v_value

(* Component-wise: equal iff the rendered keys are equal (neither state
   names nor expression keys can produce the separators), without paying
   for the rendering. *)
let tuple_equal a b =
  String.equal a.t_g b.t_g
  &&
  match (a.t_v, b.t_v) with
  | None, None -> true
  | Some va, Some vb -> String.equal va.v_key vb.v_key && String.equal va.v_value vb.v_value
  | None, Some _ | Some _, None -> false

let pp_tuple ppf t =
  match t.t_v with
  | None -> Format.fprintf ppf "(%s,<>)" t.t_g
  | Some v ->
      Format.fprintf ppf "(%s,v:%s->%s)" t.t_g
        (Cprint.expr_to_string v.v_tree)
        (if String.equal v.v_value unknown_value then "unknown" else v.v_value)

let tuple_of_instance ~ids ~gstate ?(depth_base = 0) (i : Sm.instance) =
  {
    t_g = gstate;
    t_v =
      Some
        {
          v_key = Sm.instance_key ids i;
          v_tree = i.target;
          v_value = i.value;
          v_depth = max 0 (i.created_depth - depth_base);
        };
  }

let global_tuple g = { t_g = g; t_v = None }

let unknown_tuple ~gstate tree =
  {
    t_g = gstate;
    t_v =
      Some
        {
          v_key = Cast.key_of_expr tree;
          v_tree = tree;
          v_value = unknown_value;
          v_depth = 0;
        };
  }

(* Same tuple as [unknown_tuple ~gstate i.target], but resolving the key
   through the shared id table instead of re-rendering the expression. *)
let unknown_tuple_of_instance ~ids ~gstate (i : Sm.instance) =
  {
    t_g = gstate;
    t_v =
      Some
        {
          v_key = Sm.instance_key ids i;
          v_tree = i.target;
          v_value = unknown_value;
          v_depth = 0;
        };
  }

let tuples_of_sm ~ids (sm : Sm.sm_inst) =
  let active = List.filter (fun (i : Sm.instance) -> not i.inactive) sm.actives in
  match active with
  | [] -> [ global_tuple sm.gstate ]
  | instances -> List.map (tuple_of_instance ~ids ~gstate:sm.gstate) instances

type kind = Transition | Add
type edge = { e_src : tuple; e_dst : tuple; e_kind : kind }

let edge_key e =
  Printf.sprintf "%s=>%s:%s" (tuple_key e.e_src) (tuple_key e.e_dst)
    (match e.e_kind with Transition -> "t" | Add -> "a")

let pp_edge ppf e = Format.fprintf ppf "%a --> %a" pp_tuple e.e_src pp_tuple e.e_dst

let is_global_only e = e.e_src.t_v = None && e.e_dst.t_v = None

let ends_in_stop e =
  match e.e_dst.t_v with
  | Some v -> String.equal v.v_value Sm.stop_value
  | None -> false

(* A summary keys everything by interned tuple ids: [tbl] (edge dedup) by
   the packed (src id, dst id, kind), [srcs] (the block cache) and [by_dst]
   (the relax index) by tuple id. The interner is typically shared by every
   summary of a root context, so an id computed against one summary is
   valid against all of them and per-instance id caches amortise across
   blocks. *)
type t = {
  it : Intern.t;
  tbl : (int, edge) Hashtbl.t;
  srcs : (int, unit) Hashtbl.t;
  by_dst : (int, edge list) Hashtbl.t;  (* dst tuple id -> edges, newest first *)
  (* insertion order as a growable array: the relax pass re-reads each
     block's edges on every path, so order must iterate oldest-first
     without building a fresh list each time *)
  mutable earr : edge array;
  mutable elen : int;
}

let create ?intern () =
  let it = match intern with Some it -> it | None -> Intern.create () in
  {
    it;
    tbl = Hashtbl.create 8;
    srcs = Hashtbl.create 8;
    by_dst = Hashtbl.create 8;
    earr = [||];
    elen = 0;
  }

let push_edge t e =
  let cap = Array.length t.earr in
  if t.elen = cap then begin
    let arr = Array.make (if cap = 0 then 4 else 2 * cap) e in
    Array.blit t.earr 0 arr 0 t.elen;
    t.earr <- arr
  end;
  Array.unsafe_set t.earr t.elen e;
  t.elen <- t.elen + 1

let tuple_id t tup =
  let g = Intern.atom t.it tup.t_g in
  match tup.t_v with
  | None -> Intern.tuple t.it ~g ~vkey:Intern.no_var ~vval:Intern.no_var
  | Some v ->
      Intern.tuple t.it ~g ~vkey:(Intern.atom t.it v.v_key)
        ~vval:(Intern.atom t.it v.v_value)

(* The interned atom of the instance's target key: instances carry only the
   hash-consed target id, and the id -> atom mapping is cached on the
   interner itself ([Intern.eatom]), so the key renders at most once per
   distinct expression id per root. *)
let instance_key_atom ids it (i : Sm.instance) =
  Intern.eatom it i.Sm.target_id (fun () -> Sm.instance_key ids i)

let instance_tuple_id t ~ids ~gstate (i : Sm.instance) =
  Intern.tuple t.it
    ~g:(Intern.atom t.it gstate)
    ~vkey:(instance_key_atom ids t.it i)
    ~vval:(Intern.atom t.it i.Sm.value)

let global_tuple_id t g =
  Intern.tuple t.it ~g:(Intern.atom t.it g) ~vkey:Intern.no_var ~vval:Intern.no_var

(* Tuple ids stay well under 2^30 (they count distinct strings seen by one
   root), so a packed 63-bit int is a safe edge key. *)
let pack_edge_id s d kind = (s lsl 32) lor (d lsl 1) lor kind
let kind_code = function Transition -> 0 | Add -> 1

let edge_ids t e =
  let s = tuple_id t e.e_src in
  let d = tuple_id t e.e_dst in
  (s, d, pack_edge_id s d (kind_code e.e_kind))

(* --- probe-first recording ------------------------------------------
   The engine's block-edge recording computes src/dst tuple ids from
   component atoms and probes [mem_edge_ids] before constructing any
   tuple or edge record; records are built only on a miss (the first
   sighting). The probe is a packed-int hash lookup allocating
   nothing. *)
let key_atom t s = Intern.atom t.it s
let tuple_id_atoms t ~g ~vkey ~vval = Intern.tuple t.it ~g ~vkey ~vval

let mem_edge_ids t ~src ~dst kind =
  Hashtbl.mem t.tbl (pack_edge_id src dst (kind_code kind))

let add_edge t e =
  let _, d, k = edge_ids t e in
  if Hashtbl.mem t.tbl k then false
  else begin
    Hashtbl.replace t.tbl k e;
    push_edge t e;
    Hashtbl.replace t.by_dst d
      (e :: Option.value (Hashtbl.find_opt t.by_dst d) ~default:[]);
    true
  end

let remove_edge t e =
  let _, d, k = edge_ids t e in
  if Hashtbl.mem t.tbl k then begin
    Hashtbl.remove t.tbl k;
    let not_e e' = (let _, _, k' = edge_ids t e' in k') <> k in
    let kept = List.filter not_e (Array.to_list (Array.sub t.earr 0 t.elen)) in
    t.earr <- Array.of_list kept;
    t.elen <- List.length kept;
    match Hashtbl.find_opt t.by_dst d with
    | Some es -> Hashtbl.replace t.by_dst d (List.filter not_e es)
    | None -> ()
  end

let edges t = Array.to_list (Array.sub t.earr 0 t.elen)

(* Oldest-first iteration/fold with no per-call list copy — what the hot
   relax/propagate loops use. The snapshot semantics of the list-based
   [edges] are preserved: the length is read once, so edges added during
   iteration (possible when a self-loop makes prev = cur) are not seen. *)
let iter_edges f t =
  let arr = t.earr and n = t.elen in
  for i = 0 to n - 1 do
    f (Array.unsafe_get arr i)
  done

let no_edges t = t.elen = 0
let transitions t = List.filter (fun e -> e.e_kind = Transition) (edges t)
let adds t = List.filter (fun e -> e.e_kind = Add) (edges t)
let mem_src t tup = Hashtbl.mem t.srcs (tuple_id t tup)
let add_src t tup = Hashtbl.replace t.srcs (tuple_id t tup) ()
let mem_src_instance t ~ids ~gstate i =
  Hashtbl.mem t.srcs (instance_tuple_id t ~ids ~gstate i)

let mem_src_global t g = Hashtbl.mem t.srcs (global_tuple_id t g)

let add_src_sm t ~ids (sm : Sm.sm_inst) =
  let any = ref false in
  List.iter
    (fun (i : Sm.instance) ->
      if not i.Sm.inactive then begin
        any := true;
        Hashtbl.replace t.srcs (instance_tuple_id t ~ids ~gstate:sm.Sm.gstate i) ()
      end)
    sm.Sm.actives;
  if not !any then Hashtbl.replace t.srcs (global_tuple_id t sm.Sm.gstate) ()

let srcs_count t = Hashtbl.length t.srcs
let size t = Hashtbl.length t.tbl

let clear t =
  Hashtbl.reset t.tbl;
  Hashtbl.reset t.srcs;
  Hashtbl.reset t.by_dst;
  t.earr <- [||];
  t.elen <- 0

(* Oldest-first, matching the pre-index behavior of filtering [edges t]. *)
let find_by_dst t tup =
  match Hashtbl.find_opt t.by_dst (tuple_id t tup) with
  | Some es -> List.rev es
  | None -> []

(* Oldest-first iteration over one destination's edges without the
   [List.rev] copy; the recursion depth is the per-dst fan-in, a handful
   of edges in practice. *)
let iter_by_dst t tup f =
  match Hashtbl.find t.by_dst (tuple_id t tup) with
  | es ->
      let rec go = function
        | [] -> ()
        | e :: tl ->
            go tl;
            f e
      in
      go es
  | exception Not_found -> ()

let srcs_list t =
  List.sort String.compare
    (Hashtbl.fold (fun id () acc -> Intern.name t.it id :: acc) t.srcs [])

(* A persisted key is a full rendered tuple key; its atom id is exactly
   the id [tuple_id] assigns the live tuple, so replayed and recomputed
   entries land in the same id space. *)
let add_src_key t k = Hashtbl.replace t.srcs (Intern.atom t.it k) ()

(* --- binary (de)serialisation, for the persistent summary store -------
   Edges in insertion order and sorted rendered src keys: interning is a
   purely in-memory encoding, so the bytes are a deterministic function
   of the summary's content, which is what lets the engine use them as
   the cutoff content hash. *)

let tuple_to_bin b tup =
  match tup.t_v with
  | None ->
      Wire.u8 b 0;
      Wire.string b tup.t_g
  | Some v ->
      Wire.u8 b 1;
      Wire.string b tup.t_g;
      Wire.string b v.v_key;
      Cast_io.expr_to_bin b v.v_tree;
      Wire.string b v.v_value;
      Wire.int b v.v_depth

let tuple_of_bin r =
  match Wire.ru8 r with
  | 0 -> { t_g = Wire.rstring r; t_v = None }
  | 1 ->
      let t_g = Wire.rstring r in
      let v_key = Wire.rstring r in
      let v_tree = Cast_io.expr_of_bin r in
      let v_value = Wire.rstring r in
      let v_depth = Wire.rint r in
      { t_g; t_v = Some { v_key; v_tree; v_value; v_depth } }
  | n -> raise (Wire.Corrupt (Printf.sprintf "bad tuple tag %d" n))

let edge_to_bin b e =
  Wire.u8 b (match e.e_kind with Transition -> 0 | Add -> 1);
  tuple_to_bin b e.e_src;
  tuple_to_bin b e.e_dst

let edge_of_bin r =
  let e_kind =
    match Wire.ru8 r with
    | 0 -> Transition
    | 1 -> Add
    | n -> raise (Wire.Corrupt (Printf.sprintf "bad edge kind %d" n))
  in
  let e_src = tuple_of_bin r in
  let e_dst = tuple_of_bin r in
  { e_src; e_dst; e_kind }

let to_bin b t =
  Wire.int b t.elen;
  iter_edges (edge_to_bin b) t;
  Wire.list b Wire.string (srcs_list t)

let of_bin r =
  let t = create () in
  let n = Wire.rint r in
  if n < 0 then raise (Wire.Corrupt "bad edge count");
  for _ = 1 to n do
    ignore (add_edge t (edge_of_bin r))
  done;
  List.iter (add_src_key t) (Wire.rlist r Wire.rstring);
  t

let pp ppf t =
  let es = edges t in
  let interesting = List.filter (fun e -> not (is_global_only e)) es in
  let shown = if interesting = [] then es else interesting in
  match shown with
  | [] -> Format.pp_print_string ppf "(empty)"
  | es ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
        pp_edge ppf es
