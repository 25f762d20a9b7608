(** Basic blocks — xgcc's internal representation of a function's CFG
    (Section 5.2).

    A block holds the statement-level expression trees executed in it, in
    order, plus a terminator. Loop headers carry a havoc set: the variables
    assigned anywhere in the loop body, which the false-path pruner must
    forget (Section 8, step 3). *)

type elem =
  | Tree of Cast.expr  (** one statement-level expression tree *)
  | Decl of Cast.decl  (** a declaration; its initializer is analysed *)
  | End_of_scope of string list
      (** the listed locals permanently leave scope here (block exit);
          triggers metal's [$end_of_path$]-style scope events *)

type terminator =
  | Jump of int
  | Branch of Cast.expr * int * int  (** condition, true target, false target *)
  | Switch of Cast.expr * (int64 option * int) list
      (** scrutinee and (guard, target) arms; [None] guard is [default].
          The arm list always contains a default (possibly the join). *)
  | Return of Cast.expr option
  | Exit  (** the function's single exit node [ep] *)

type t = {
  bid : int;
  mutable elems : elem list;
  mutable term : terminator;
  mutable havoc : string list;
      (** variables to forget on entry (nonempty only for loop headers) *)
  mutable bloc : Srcloc.t;
}

val pp_elem : Format.formatter -> elem -> unit
val pp_terminator : Format.formatter -> terminator -> unit
val pp : Format.formatter -> t -> unit
