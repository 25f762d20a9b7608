(** State tuples, transition/add edges, and block/suffix summaries
    (Sections 5.2 and 6.2).

    A state tuple is [(gstate, v)] where [v] is a variable-specific instance
    or the distinguished placeholder [<>]. Each basic block's summary records
    the union of all tuples that reached it and how each corresponding SM was
    transitioned, as two kinds of directed edges:

    - transition edges [(s, v:t→vs) → (s', v:t→vs')];
    - add edges [(s, v:t→unknown) → (s', v:t→vs')], recording instance
      creation (the special [unknown] start applies only when nothing is
      known about [t] at block entry).

    Suffix summaries have the same shape but run from a block's entry to the
    function exit; a function summary is the entry block's suffix summary.
    Edges ending in [stop] are kept in block summaries (they drive the
    intraprocedural cache) but omitted from suffix summaries, as are
    [<>]→[<>] edges except as global-transition carriers for relaxation. *)

type tvar = {
  v_key : string;
  v_tree : Cast.expr;
  v_value : string;
  v_depth : int;
      (** creation depth relative to the recording frame (ranking only;
          excluded from tuple keys) *)
}

type tuple = { t_g : string; t_v : tvar option }
(** [t_v = None] is the [<>] placeholder. *)

val unknown_value : string
(** Start-tuple value of add edges. *)

val tuple_key : tuple -> string
val tuple_equal : tuple -> tuple -> bool
(** Component-wise comparison, equivalent to comparing rendered
    {!tuple_key}s without paying for the rendering. *)

val pp_tuple : Format.formatter -> tuple -> unit

val tuple_of_instance :
  ids:Exprid.ctx -> gstate:string -> ?depth_base:int -> Sm.instance -> tuple
val global_tuple : string -> tuple
val unknown_tuple : gstate:string -> Cast.expr -> tuple

val unknown_tuple_of_instance : ids:Exprid.ctx -> gstate:string -> Sm.instance -> tuple
(** [unknown_tuple ~gstate i.target], but resolving the key through the
    instance's hash-consed [target_id] instead of re-rendering the
    expression. *)

val tuples_of_sm : ids:Exprid.ctx -> Sm.sm_inst -> tuple list
(** The extension state as a tuple set: one tuple per active instance, or
    the placeholder tuple when no instance is active. *)

type kind = Transition | Add

type edge = { e_src : tuple; e_dst : tuple; e_kind : kind }

val edge_key : edge -> string
val pp_edge : Format.formatter -> edge -> unit

val is_global_only : edge -> bool
(** Both endpoints are placeholder tuples — the special edges that record
    how a block updates the global instance. *)

val ends_in_stop : edge -> bool

(** Mutable edge-set summaries, keyed internally by interned tuple ids
    ({!Intern}) rather than rendered key strings. Edges and source tuples
    live in small insertion-ordered arrays that probes scan; an array
    that passes a fixed internal size gets a hash index built beside it,
    so large summaries keep O(1) dedup. *)
type t

val create : ?intern:Intern.t -> unit -> t
(** [?intern] shares one intern table across summaries (the engine passes
    its per-root table, so per-instance id caches amortise across every
    block of the root); omitted, the summary gets a private table. *)

val add_edge : t -> edge -> bool
(** [true] if the edge was new. *)

val remove_edge : t -> edge -> unit
val edges : t -> edge list

val iter_edges : (edge -> unit) -> t -> unit
(** Oldest-first (insertion-order) iteration without the list copy
    [edges] builds — for the per-path relax/propagate loops. The edge
    count is read once, so edges added during iteration are not seen
    (the same snapshot semantics as iterating [edges t]). *)

val no_edges : t -> bool
(** [edges t = []] without building the list. *)

val mem_src : t -> tuple -> bool
val add_src : t -> tuple -> unit
(** Record a tuple as having reached this block (the cache of Section 5.2). *)

val mem_src_instance : t -> ids:Exprid.ctx -> gstate:string -> Sm.instance -> bool
(** [mem_src t (tuple_of_instance ~ids ~gstate i)] without building the
    tuple: the probe looks up an integer tuple id, resolved from the
    instance's hash-consed [target_id]. *)

val mem_src_global : t -> string -> bool
(** [mem_src t (global_tuple g)] without building the tuple. *)

val instance_key_atom : Exprid.ctx -> Intern.t -> Sm.instance -> int
(** The interned atom of the instance's target key: resolved through the
    instance's hash-consed [target_id] with the id -> atom mapping cached
    on the interner ([Intern.eatom]), so the key renders at most once per
    distinct expression per root. *)

val add_src_sm : t -> ids:Exprid.ctx -> Sm.sm_inst -> unit
(** [List.iter (add_src t) (tuples_of_sm sm)] without building the tuples. *)

val key_atom : t -> string -> int
(** Atom of a tuple component (gstate, value, or rendered target key)
    under this summary's interner. *)

val tuple_id_atoms : t -> g:int -> vkey:int -> vval:int -> int
(** Tuple id from component atoms ([vkey] may be [Intern.no_var] for a
    global-only tuple) — the id {!add_edge} dedups by, computed without
    constructing the tuple. *)

val mem_edge_ids : t -> src:int -> dst:int -> kind -> bool
(** Whether an edge with these src/dst tuple ids and kind is already
    recorded. The probe-first fast path of block-edge recording: on a hit
    {!add_edge} would return [false], so the caller can skip building the
    tuple and edge records entirely. *)

val srcs_count : t -> int
val size : t -> int
val clear : t -> unit

val find_by_dst : t -> tuple -> edge list
(** Edges whose destination equals the tuple (for {!Engine}'s relax). *)

val iter_by_dst : t -> tuple -> (edge -> unit) -> unit
(** Oldest-first iteration over [find_by_dst t tup] without the copy. *)

val srcs_list : t -> string list
(** Recorded source-tuple keys, sorted (deterministic, for persistence). *)

val add_src_key : t -> string -> unit
(** Re-record a persisted source-tuple key verbatim. *)

val to_bin : Wire.writer -> t -> unit
val of_bin : Wire.reader -> t
(** Summary persistence: edges (in insertion order) plus sorted src-tuple
    keys. Round-trips everything the engine's caches consult; expression
    trees are re-decoded with fresh node ids. The bytes are also what the
    engine hashes as a summary's cutoff content hash. Raises
    [Wire.Corrupt]. *)

val pp : Format.formatter -> t -> unit
(** Prints the summary the way Figure 5 does: [<>]→[<>] edges are omitted
    unless they are the only content. *)
