(** Positional identity of expression nodes, and the annotation-group
    hashes the persistent cache keys fold.

    Node ids are not stable across runs (decoding allocates fresh ids), so
    the cached driver persists annotation deltas by {e position}: the
    node's location, its printed form, its enclosing global definition,
    and its occurrence rank among the nodes sharing that (location,
    printed form, definition), in program traversal order. The rank
    disambiguates positional twins — the same header parsed into two
    translation units gives distinct nodes the same location, printed
    form and definition — so a replayed delta lands on exactly the node
    the worker annotated.

    The index is lazy: building it prints nothing, and a node's position
    is computed (printing only the nodes at its location) the first time
    it is asked for, then memoized. Its cost therefore follows the
    annotated nodes, not the program. The tables are written by the
    calling domain only; pool workers never touch an index. *)

type t
(** A position index over one program. *)

val build : ?prev:t -> Cast.tunit list -> t
(** One pass over every function body and global initialiser, in unit
    and definition order: records each expression node's enclosing
    definition and, per (location, definition), the nodes found there in
    traversal order. A node reached twice keeps its first visit.

    With [prev] (the index of an earlier version of the program), [prev]
    is updated in place and returned: a definition name whose
    definitions are all physically [prev]'s keeps its nodes and the
    positions already computed for them, and only the other names are
    walked again. The positions are those a fresh index would compute,
    since a position is a function of its spot's nodes, and a node (an
    immutable AST value) prints the same every time. *)

type pos = {
  loc : Srcloc.t;
  printed : string;  (** {!Cprint.expr_to_string} of the node *)
  def : string;  (** name of the enclosing global definition *)
  occ : int;
      (** rank among the nodes at [loc] in [def] that print as [printed],
          in traversal order *)
  key : string;  (** ["file:line:col|printed|def#occ"] *)
}

val position : t -> int -> pos option
(** The position of the node with this id; [None] for nodes outside the
    program (per-context synthesised nodes). Memoized. *)

val resolve : t -> Srcloc.t -> printed:string -> def:string -> occ:int -> int option
(** The id of the node at that position in this program, if any: the
    inverse of {!position}. *)

(** {1 Annotation groups}

    Later extensions see the tags earlier ones left, so cache keys must
    cover the annotation table — but hashing the whole table into every
    key would re-invalidate everything downstream of any annotation.
    Tags are grouped by the annotated node's enclosing definition, and a
    key folds exactly the groups of its closure. Tags in definitions that
    are not functions of the call graph (global initialisers) share one
    misc group folded into every key. A group's hash digests its sorted
    entries, [key=tag1,tag2,...] with tags oldest first. *)

type hashes = {
  misc : Fingerprint.t;
  by_def : (string * Fingerprint.t) list;
      (** one hash per definition with at least one entry, sorted *)
}

type groups
(** Group hashes of one annotation table, kept up to date incrementally
    across a run: only groups with a changed node are re-rendered and
    re-hashed. *)

val groups :
  t -> is_group:(string -> bool) -> (int, string list) Hashtbl.t -> groups
(** Track [table] (node id -> tags, newest first). [is_group def] says
    whether [def] has a group of its own (otherwise its entries go to
    misc). The table's current entries count as touched; every later
    change to it must be reported with {!touch}. *)

val touch : groups -> int -> unit
(** The tags of this node changed. *)

val refresh : groups -> int
(** Bring the hashes up to date with every change touched since the last
    refresh, and say how many groups (misc included) it re-hashed: no
    other group's hash changed. *)

val current : groups -> hashes
(** The hashes as of the last {!refresh}; equal to {!group_hashes} of the
    table at that moment. *)

val group_hashes :
  t -> is_group:(string -> bool) -> (int, string list) Hashtbl.t -> hashes
(** The group hashes of a table computed from scratch (a fresh tracker
    over it). Pure: reads the table, writes nothing but the index's
    memo. *)

val misc_hash : groups -> Fingerprint.t
(** The misc group's hash as of the last {!refresh}: every cache key
    folds it. *)

val group_hash : groups -> string -> Fingerprint.t option
(** The hash of this definition's group as of the last {!refresh};
    [None] while it has none. A cache key folds the hash of each member
    of its closure that has a group ({!Summary_store.key}). *)

val fold_groups : groups -> (string -> Fingerprint.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every definition that has a group, with its hash as of the
    last {!refresh}, in no particular order. *)
