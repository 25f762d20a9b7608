(* Flat, int-indexed supergraph tables for the traversal hot path.

   [Supergraph.build] lowers every function to a [Cfg.t] of dense per-
   function block ids; this module assigns every block of every function
   one dense *flat* id ([block_base.(fidx) + bid]) and stores what the
   engine touches on every block visit in contiguous arrays indexed by
   that id:

   - successor lists in CSR form ([succ_off]/[succ], a Bigarray so the
     table is one unboxed slab), replicating [Cfg.successors] exactly
     (Return flows to the exit node, Branch with equal arms dedups,
     Switch targets sorted and deduped);
   - head-constructor summaries ([head_mask] plus a callee-name CSR),
     the same data as {!Block_heads.of_cfg} — dispatch builds its
     per-block skip sets from these without a string-keyed lookup;
   - the block's node-event sequence ([events]), built once globally
     (declaration-initialiser assignments are synthesised here, once),
     so no root context builds an event list;
   - terminator annotations ([annots]): the [mc_branch]/[mc_return]
     tags of a block's terminator expression. They are recorded here and
     applied by the engine on the block's first visit per root context
     (tracked by a per-context bitset).

   Everything here is immutable after [build] and shared read-only
   across engine worker domains, like the rest of the supergraph. *)

(* The engine aliases this type: a declaration with an initialiser is
   visited as a fresh-variable event followed by the nodes of a
   synthesised assignment [x = init]; branch conditions, switch
   scrutinees and returned expressions are visited like any block
   element. *)
type ev =
  | Ev_node of Cast.expr
  | Ev_fresh of string
  | Ev_scope_end of string list

type ba_int = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  fnames : string array;  (* fidx -> function name, input order *)
  fidx_of : (string, int) Hashtbl.t;
  block_base : int array;  (* length nf+1: flat id of fidx's block 0 *)
  entry : int array;  (* fidx -> flat id of the entry block *)
  exit_ : int array;  (* fidx -> flat id of the exit block *)
  n_blocks : int;
  succ_off : int array;  (* length n_blocks+1 *)
  succ : ba_int;  (* flat successor ids, CSR *)
  head_mask : int array;  (* Block_heads shape bitmask per flat block *)
  call_off : int array;  (* length n_blocks+1 *)
  call_names : string array;  (* sorted distinct callee names, CSR *)
  events : ev array array;  (* flat id -> node events, execution order *)
  annots : (Cast.expr * string) array array;
      (* flat id -> terminator annotations to lay down on first visit *)
}

(* One pass computes both the event array and the terminator annotations
   so they cannot drift apart; test/test_flat.ml checks both, for every
   block, against a rebuild from the [Block.t]. *)
let events_of_block (b : Block.t) =
  let of_elem = function
    | Block.Tree e -> List.map (fun n -> Ev_node n) (Cast.exec_order e)
    | Block.Decl d -> (
        match d.Cast.dinit with
        | Some init ->
            let synth =
              Cast.mk_expr ~loc:init.eloc
                (Cast.Eassign (None, Cast.ident ~loc:init.eloc d.Cast.dname, init))
            in
            Ev_fresh d.Cast.dname
            :: List.map (fun n -> Ev_node n) (Cast.exec_order synth)
        | None -> [ Ev_fresh d.Cast.dname ])
    | Block.End_of_scope vars -> [ Ev_scope_end vars ]
  in
  let term_evs, annots =
    match b.Block.term with
    | Block.Branch (c, _, _) ->
        (List.map (fun n -> Ev_node n) (Cast.exec_order c), [ (c, "mc_branch") ])
    | Block.Switch (e, _) ->
        (List.map (fun n -> Ev_node n) (Cast.exec_order e), [ (e, "mc_branch") ])
    | Block.Return (Some e) ->
        (List.map (fun n -> Ev_node n) (Cast.exec_order e), [ (e, "mc_return") ])
    | Block.Jump _ | Block.Return None | Block.Exit -> ([], [])
  in
  ( Array.of_list (List.concat_map of_elem b.Block.elems @ term_evs),
    Array.of_list annots )

let build (cfgs : Cfg.t list) : t =
  let cfgs = Array.of_list cfgs in
  let nf = Array.length cfgs in
  let fnames = Array.map (fun (c : Cfg.t) -> c.Cfg.fname) cfgs in
  let fidx_of = Hashtbl.create (max 16 nf) in
  Array.iteri (fun i name -> Hashtbl.replace fidx_of name i) fnames;
  let block_base = Array.make (nf + 1) 0 in
  for i = 0 to nf - 1 do
    block_base.(i + 1) <- block_base.(i) + Cfg.n_blocks cfgs.(i)
  done;
  let n_blocks = block_base.(nf) in
  let entry = Array.make nf 0 and exit_ = Array.make nf 0 in
  let succ_off = Array.make (n_blocks + 1) 0 in
  let head_mask = Array.make n_blocks 0 in
  let call_off = Array.make (n_blocks + 1) 0 in
  let events = Array.make n_blocks [||] in
  let annots = Array.make n_blocks [||] in
  (* first pass: per-block successor/call counts, heads, events *)
  let succs : int list array = Array.make n_blocks [] in
  let calls : string list array = Array.make n_blocks [] in
  Array.iteri
    (fun fi (cfg : Cfg.t) ->
      let base = block_base.(fi) in
      entry.(fi) <- base + cfg.Cfg.entry;
      exit_.(fi) <- base + cfg.Cfg.exit_;
      Array.iter
        (fun (b : Block.t) ->
          let fb = base + b.Block.bid in
          let ss = Cfg.successors cfg b.Block.bid in
          succs.(fb) <- List.map (fun s -> base + s) ss;
          let h = Block_heads.of_block b in
          head_mask.(fb) <- h.Block_heads.mask;
          calls.(fb) <- h.Block_heads.calls;
          let evs, ans = events_of_block b in
          events.(fb) <- evs;
          annots.(fb) <- ans)
        cfg.Cfg.blocks)
    cfgs;
  for fb = 0 to n_blocks - 1 do
    succ_off.(fb + 1) <- succ_off.(fb) + List.length succs.(fb);
    call_off.(fb + 1) <- call_off.(fb) + List.length calls.(fb)
  done;
  let succ =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout
      (max 1 succ_off.(n_blocks))
  in
  let call_names = Array.make (max 1 call_off.(n_blocks)) "" in
  for fb = 0 to n_blocks - 1 do
    List.iteri (fun i s -> succ.{succ_off.(fb) + i} <- s) succs.(fb);
    List.iteri (fun i c -> call_names.(call_off.(fb) + i) <- c) calls.(fb)
  done;
  {
    fnames;
    fidx_of;
    block_base;
    entry;
    exit_;
    n_blocks;
    succ_off;
    succ;
    head_mask;
    call_off;
    call_names;
    events;
    annots;
  }

let n_functions t = Array.length t.fnames
let fidx t name = Hashtbl.find_opt t.fidx_of name

let fbase t name =
  match Hashtbl.find_opt t.fidx_of name with
  | Some i -> t.block_base.(i)
  | None -> -1

(* The function owning flat id [fb]: greatest fidx with base <= fb. *)
let fidx_of_flat t fb =
  let lo = ref 0 and hi = ref (n_functions t - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.block_base.(mid) <= fb then lo := mid else hi := mid - 1
  done;
  !lo

let unflatten t fb =
  let fi = fidx_of_flat t fb in
  (t.fnames.(fi), fb - t.block_base.(fi))

let successors t fb =
  List.init (t.succ_off.(fb + 1) - t.succ_off.(fb)) (fun i ->
      t.succ.{t.succ_off.(fb) + i})

let calls t fb =
  Array.to_list (Array.sub t.call_names t.call_off.(fb) (t.call_off.(fb + 1) - t.call_off.(fb)))

let events t fb = t.events.(fb)
let annots t fb = t.annots.(fb)

(* Approximate size of the flat tables themselves (not the AST nodes the
   event arrays point into), for the [--stats] memory line. *)
let table_bytes t =
  let word = Sys.word_size / 8 in
  let arr_words n = n + 1 (* header *) in
  let words =
    arr_words (Array.length t.fnames)
    + arr_words (Array.length t.block_base)
    + arr_words (Array.length t.entry)
    + arr_words (Array.length t.exit_)
    + arr_words (Array.length t.succ_off)
    + arr_words (Array.length t.head_mask)
    + arr_words (Array.length t.call_off)
    + arr_words (Array.length t.call_names)
    + arr_words (Array.length t.events)
    + arr_words (Array.length t.annots)
    + Array.fold_left (fun acc evs -> acc + arr_words (Array.length evs)) 0 t.events
    + Array.fold_left
        (fun acc ans -> acc + arr_words (Array.length ans) + (3 * Array.length ans))
        0 t.annots
  in
  (words * word) + (Bigarray.Array1.dim t.succ * word)
