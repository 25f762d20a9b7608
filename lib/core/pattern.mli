(** metal patterns and the AST matcher (Section 4).

    A base pattern is a bracketed code fragment in (extended) C; because we
    match ASTs, "spaces and other lexical artifacts do not interfere with
    matching". Base patterns compose with [&&] and [||]; callouts [${...}]
    are boolean C expressions dispatched through {!Callout}; the special
    pattern [$end_of_path$] matches the end-of-path event.

    A pattern matches {e at} a program point: the pattern's root must match
    the current AST node (the engine visits every node in execution order,
    so sub-expression actions are still seen). Repeated holes must bind
    equivalent ASTs ({!Cast.equal_expr}). *)

type t =
  | Pexpr of Cast.expr  (** base pattern: expression fragment with holes *)
  | Pand of t * t
  | Por of t * t
  | Pcallout of Cast.expr  (** [${ ... }] body *)
  | Pend_of_path
  | Pnever  (** the degenerate callout [${0}] *)
  | Palways  (** the degenerate callout [${1}] *)

type binding = Bnode of Cast.expr | Bargs of Cast.expr list

type bindings = (string * binding) list

type event =
  | At_node of Cast.expr  (** ordinary program point *)
  | At_end_of_path

val holes_of : t -> (string * Holes.t) list -> (string * Holes.t) list
(** Restrict a hole environment to the holes actually mentioned. *)

val match_event :
  ?init:bindings ->
  ctx:Callout.ctx ->
  holes:(string * Holes.t) list ->
  t ->
  event ->
  bindings option
(** [Some bindings] if the pattern matches the event. Callouts are evaluated
    with the bindings accumulated so far (so write them as right conjuncts).
    [init] pre-binds holes — the engine binds the state variable to each
    candidate instance's target before matching variable-source transitions,
    so patterns (and callouts) can constrain the tracked object directly. *)

val mentions_hole : t -> string -> bool

val can_match_node : t -> bool
(** Could the pattern ever match an [At_node] event? [false] means
    [match_event] is [None] for every node (e.g. [$end_of_path$], or a
    conjunction containing it); used to compile node candidate lists. *)

val can_match_end_of_path : t -> bool
(** Could the pattern ever match [At_end_of_path]? Base expression
    patterns cannot; callouts conservatively can. *)

val eval_callout : Callout.ctx -> bindings -> Cast.expr -> Callout.value
(** Evaluate a callout body; exposed for the action interpreter. *)

val pp : Format.formatter -> t -> unit
