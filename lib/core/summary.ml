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

(* A summary is a few parallel arrays keyed by interned tuple ids. Edges
   are kept in insertion order, each beside its packed (src id, dst id,
   kind) dedup key and its dst tuple id; source tuples (the block cache)
   are kept as ids. Nearly every summary holds a handful of entries, so
   probes scan the id arrays linearly. An array that grows past
   [index_at] gets a [Hashtbl] index built beside it, which every later
   write keeps in step (and which [remove_edge] and [clear] rebuild or
   drop). The interner is typically shared by every summary of a root
   context, so an id computed against one summary is valid against all
   of them and per-instance id caches amortise across blocks. *)

(* Past this many entries an array's probes go through its index. *)
let index_at = 16

type edge_index = {
  by_key : (int, unit) Hashtbl.t;
  by_dst : (int, edge list) Hashtbl.t;  (* dst tuple id -> edges, newest first *)
}

type t = {
  it : Intern.t;
  (* edges in insertion order: the relax pass re-reads each block's edges
     on every path, so they must iterate oldest-first without building a
     fresh list each time *)
  mutable earr : edge array;
  mutable ekey : int array;
  mutable edst : int array;
  mutable elen : int;
  mutable eidx : edge_index option;
  mutable sarr : int array;  (* source tuple ids, insertion order *)
  mutable slen : int;
  mutable sidx : (int, unit) Hashtbl.t option;
}

let create ?intern () =
  let it = match intern with Some it -> it | None -> Intern.create () in
  {
    it;
    earr = [||];
    ekey = [||];
    edst = [||];
    elen = 0;
    eidx = None;
    sarr = [||];
    slen = 0;
    sidx = None;
  }

let grow arr len fill =
  let a = Array.make (if len = 0 then 4 else 2 * len) fill in
  Array.blit arr 0 a 0 len;
  a

let index_edge ix e k d =
  Hashtbl.replace ix.by_key k ();
  Hashtbl.replace ix.by_dst d
    (e :: Option.value (Hashtbl.find_opt ix.by_dst d) ~default:[])

let build_edge_index t =
  let ix =
    { by_key = Hashtbl.create (2 * t.elen); by_dst = Hashtbl.create t.elen }
  in
  for i = 0 to t.elen - 1 do
    index_edge ix t.earr.(i) t.ekey.(i) t.edst.(i)
  done;
  t.eidx <- Some ix

let push_edge t e k d =
  let n = t.elen in
  if n = Array.length t.earr then begin
    t.earr <- grow t.earr n e;
    t.ekey <- grow t.ekey n 0;
    t.edst <- grow t.edst n 0
  end;
  Array.unsafe_set t.earr n e;
  Array.unsafe_set t.ekey n k;
  Array.unsafe_set t.edst n d;
  t.elen <- n + 1;
  match t.eidx with
  | Some ix -> index_edge ix e k d
  | None -> if t.elen > index_at then build_edge_index t

(* Position of an id among the first [n] of [arr], or -1. *)
let scan (arr : int array) n x =
  let rec go i =
    if i >= n then -1 else if Array.unsafe_get arr i = x then i else go (i + 1)
  in
  go 0

let mem_key t k =
  match t.eidx with
  | Some ix -> Hashtbl.mem ix.by_key k
  | None -> scan t.ekey t.elen k >= 0

let mem_sid t id =
  match t.sidx with
  | Some ix -> Hashtbl.mem ix id
  | None -> scan t.sarr t.slen id >= 0

let add_sid t id =
  if not (mem_sid t id) then begin
    let n = t.slen in
    if n = Array.length t.sarr then t.sarr <- grow t.sarr n 0;
    Array.unsafe_set t.sarr n id;
    t.slen <- n + 1;
    match t.sidx with
    | Some ix -> Hashtbl.replace ix id ()
    | None ->
        if t.slen > index_at then begin
          let ix = Hashtbl.create (2 * t.slen) in
          for i = 0 to t.slen - 1 do
            Hashtbl.replace ix t.sarr.(i) ()
          done;
          t.sidx <- Some ix
        end
  end

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
  (d, pack_edge_id s d (kind_code e.e_kind))

(* --- probe-first recording ------------------------------------------
   The engine's block-edge recording computes src/dst tuple ids from
   component atoms and probes [mem_edge_ids] before constructing any
   tuple or edge record; records are built only on a miss (the first
   sighting). The probe scans packed ints (or looks one up in the index)
   and allocates nothing. *)
let key_atom t s = Intern.atom t.it s
let tuple_id_atoms t ~g ~vkey ~vval = Intern.tuple t.it ~g ~vkey ~vval

let mem_edge_ids t ~src ~dst kind = mem_key t (pack_edge_id src dst (kind_code kind))

let add_edge t e =
  let d, k = edge_ids t e in
  if mem_key t k then false
  else begin
    push_edge t e k d;
    true
  end

let remove_edge t e =
  let _, k = edge_ids t e in
  let n = t.elen in
  let i = scan t.ekey n k in
  if i >= 0 then begin
    let drop a = Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1)) in
    t.earr <- drop t.earr;
    t.ekey <- drop t.ekey;
    t.edst <- drop t.edst;
    t.elen <- n - 1;
    t.eidx <- None;
    if t.elen > index_at then build_edge_index t
  end

let edges t = Array.to_list (Array.sub t.earr 0 t.elen)

(* Oldest-first iteration/fold with no per-call list copy — what the hot
   relax/propagate loops use. The snapshot semantics of the list-based
   [edges] are preserved: the array and length are read once, so edges
   added during iteration (possible when a self-loop makes prev = cur)
   are not seen, and a push that regrows the array leaves the one being
   read intact. *)
let iter_edges f t =
  let arr = t.earr and n = t.elen in
  for i = 0 to n - 1 do
    f (Array.unsafe_get arr i)
  done

let no_edges t = t.elen = 0
let mem_src t tup = mem_sid t (tuple_id t tup)
let add_src t tup = add_sid t (tuple_id t tup)
let mem_src_instance t ~ids ~gstate i = mem_sid t (instance_tuple_id t ~ids ~gstate i)
let mem_src_global t g = mem_sid t (global_tuple_id t g)

let add_src_sm t ~ids (sm : Sm.sm_inst) =
  let any = ref false in
  List.iter
    (fun (i : Sm.instance) ->
      if not i.Sm.inactive then begin
        any := true;
        add_sid t (instance_tuple_id t ~ids ~gstate:sm.Sm.gstate i)
      end)
    sm.Sm.actives;
  if not !any then add_sid t (global_tuple_id t sm.Sm.gstate)

let srcs_count t = t.slen
let size t = t.elen

let clear t =
  t.earr <- [||];
  t.ekey <- [||];
  t.edst <- [||];
  t.elen <- 0;
  t.eidx <- None;
  t.sarr <- [||];
  t.slen <- 0;
  t.sidx <- None

(* Oldest-first iteration over the edges ending in [tup], with the same
   snapshot semantics as [iter_edges]: the scan reads the arrays and the
   length once, and the index holds immutable lists. Without an index
   this is a scan of the dst ids; with one, a walk of the newest-first
   list from its end (the recursion depth is the per-dst fan-in, a
   handful of edges in practice). *)
let iter_by_dst t tup f =
  let d = tuple_id t tup in
  match t.eidx with
  | None ->
      let earr = t.earr and edst = t.edst and n = t.elen in
      for i = 0 to n - 1 do
        if Array.unsafe_get edst i = d then f (Array.unsafe_get earr i)
      done
  | Some ix -> (
      match Hashtbl.find ix.by_dst d with
      | es ->
          let rec go = function
            | [] -> ()
            | e :: tl ->
                go tl;
                f e
          in
          go es
      | exception Not_found -> ())

let find_by_dst t tup =
  let acc = ref [] in
  iter_by_dst t tup (fun e -> acc := e :: !acc);
  List.rev !acc

let srcs_list t =
  List.sort String.compare
    (List.init t.slen (fun i -> Intern.name t.it t.sarr.(i)))

(* A persisted key is a full rendered tuple key; its atom id is exactly
   the id [tuple_id] assigns the live tuple, so replayed and recomputed
   entries land in the same id space. *)
let add_src_key t k = add_sid t (Intern.atom t.it k)

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
