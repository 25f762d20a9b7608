(** The state-machine abstraction (Sections 2–3).

    An extension defines one global state variable and optionally one
    variable-specific state variable. The global variable has exactly one
    instance; the variable-specific one has an instance per tracked program
    object, so the number of SMs grows and shrinks during analysis. An SM
    state is the pair (global value, one variable-specific instance) — the
    state tuple of Section 5.2 ({!Summary.tuple}).

    Extensions written directly in OCaml construct {!t} values through this
    module; metal sources compile to the same representation
    ({!Metal_compile}). *)

type value = string

val stop_value : value
(** The sink state: "when an instance is assigned the value stop, the state
    machine tracking that instance is removed". *)

type instance = {
  target : Cast.expr;  (** the program object carrying the state *)
  target_id : int;
      (** hash-consed id of [target] ({!Exprid}): the integer identity
          every instance lookup, seen-tuple probe and summary key
          compares; id equality is exactly rendered-key equality *)
  mutable value : value;
  mutable data : (string * string) list;
      (** extension-defined data value (Section 3.1): arbitrary fields the
          extension manipulates inside actions *)
  mutable int_data : (string * int) list;  (** numeric data, e.g. lock depth *)
  created_at : int;  (** eid of the creating node: an instance cannot
          trigger a transition where it was created *)
  created_loc : Srcloc.t;
  created_depth : int;  (** call depth at creation, for ranking *)
  mutable conditionals : int;  (** branches crossed while alive, for ranking *)
  mutable syn_chain : int;  (** synonym assignment-chain length *)
  mutable syn_group : int;
      (** synonym set id (0 = none): "state changes in one are mirrored in
          the other" *)
  mutable inactive : bool;  (** file-scope object temporarily out of scope *)
}

(** Where a transition may go. *)
type dest =
  | To_var of value  (** v.state — creates the instance when fired from a
          global-state source *)
  | To_stop
  | To_global of value
  | On_branch of dest * dest  (** path-specific: true-path dest, false-path dest *)
  | Same  (** action-only transition *)

type source = Src_global of value | Src_var of value

(** A pending path-specific transition: matched at a condition (or at a call
    whose result was stored in a variable) and resolved when the branch is
    taken. *)
type pending = {
  p_node : Cast.expr;  (** the matched node (condition root or call) *)
  mutable p_on_var : string option;
      (** if the matched call's result was assigned, the variable to watch *)
  p_true : dest;
  p_false : dest;
  p_inst_id : int option;
      (** triggering instance's [target_id], if var-sourced *)
  p_bindings : Pattern.bindings;
  p_action : (actx -> unit) option;
}

and actx = {
  a_node : Cast.expr option;
  a_loc : Srcloc.t;
  a_bindings : Pattern.bindings;
  a_inst : instance option;  (** the triggering instance *)
  a_sm : sm_inst;
  a_func : string;
  a_depth : int;
  a_typing : Ctyping.env;
  a_report :
    ?annotations:string list -> ?rule:string -> ?var:Cast.expr -> string -> unit;
      (** emit an error report; location/ranking fields are filled from the
          engine context and triggering instance *)
  a_count : [ `Example | `Counterexample ] -> string -> unit;
      (** statistical counters per rule (Sections 3.2, 9) *)
  a_annotate : Cast.expr -> string -> unit;
      (** attach an annotation to an AST node (composition) *)
  a_annots : int -> string list option;
      (** the engine's annotation lookup by node id, as patterns see it:
          what callouts evaluated inside the action read *)
  a_kill_path : unit -> unit;
      (** stop traversing the current path (the path-kill idiom) *)
}

and action = actx -> unit

and transition = {
  tr_source : source;
  tr_pattern : Pattern.t;
  tr_dest : dest;
  tr_action : action option;
}

and t = {
  sm_name : string;
  start_state : value;  (** initial global state *)
  svar : string option;  (** name of the [state decl] hole variable *)
  holes : (string * Holes.t) list;  (** all [decl]/[state decl] holes *)
  transitions : transition list;
  auto_kill : bool;  (** kill-on-redefinition runs unless the checker
          requests otherwise (Section 8) *)
  track_synonyms : bool;
  byval_restore : bool;
      (** Table 2, row 1: restore the actual's state by value (unchanged)
          instead of by reference *)
}

and sm_inst = {
  ext : t;
  mutable gstate : value;
  mutable actives : instance list;
  mutable pendings : pending list;
  mutable killed_path : bool;
}

val make :
  name:string ->
  ?start:value ->
  ?svar:string ->
  ?holes:(string * Holes.t) list ->
  ?auto_kill:bool ->
  ?track_synonyms:bool ->
  ?byval_restore:bool ->
  transition list ->
  t

val initial : t -> sm_inst
(** The initial state: global instance at [start_state], no tracked
    objects (the [<>] placeholder is implicit). *)

val clone : sm_inst -> sm_inst
val clone_instance : instance -> instance

val clone_pendings : pending list -> pending list
(** Copy a pending list so mutations on one path don't leak into another;
    shared by [clone] and the engine's summary-replay partitioning. *)

val fresh_syn_group : unit -> int
(** Deep copy — "modifications ... are private to each path: mutations
    revert when the extension backtracks" is implemented by cloning at
    split points. *)

val new_instance :
  ?data:(string * string) list ->
  ?syn_chain:int ->
  ids:Exprid.ctx ->
  target:Cast.expr ->
  value:value ->
  created_at:int ->
  created_loc:Srcloc.t ->
  created_depth:int ->
  unit ->
  instance

val retargeted : ?value:value -> ids:Exprid.ctx -> instance -> target:Cast.expr -> instance
(** A copy of the instance re-attached to [target] (fresh [target_id]
    resolved under [ids]), optionally with a new value. The only safe way
    to change an instance's target: a record [with] update would carry
    the old target's id over to the new tree. *)

val instance_key : Exprid.ctx -> instance -> string
(** The rendered key of the instance's target: a shared-string table read
    for ids known to [ids], a direct rendering for an instance seeded
    from another context. *)

val find_instance : sm_inst -> id:int -> instance option
(** Active (non-inactive) instance attached to the object with this
    hash-consed id. *)

val add_instance : sm_inst -> instance -> unit
(** Replaces any existing instance on the same object. *)

val remove_instance : sm_inst -> instance -> unit

val get_int : instance -> string -> int
(** Numeric data field, defaulting to 0. *)

val set_int : instance -> string -> int -> unit

val get_data : instance -> string -> string option
val set_data : instance -> string -> string -> unit

val pp_dest : Format.formatter -> dest -> unit
val pp_inst : Format.formatter -> sm_inst -> unit
