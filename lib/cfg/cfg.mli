(** Control-flow graph construction for one function.

    Lowering notes:
    - [&&], [||] and [!] in branch conditions are lowered to nested branches
      (short-circuit), so path-specific metal transitions (Section 3.2) see
      one atomic condition per branch.
    - [return] terminators implicitly continue to the single exit node [ep]
      (Section 6's supergraph adds [sp]/[ep] nodes; our entry block is [sp]
      and the exit block is [ep]).
    - loop headers carry the set of variables assigned in the loop, for the
      false-path pruner's havoc rule (Section 8 step 3). *)

type t = {
  fname : string;
  entry : int;
  exit_ : int;
  blocks : Block.t array;
  func : Cast.fundef;
}

val of_fundef : Cast.fundef -> t

val block : t -> int -> Block.t

val successors : t -> int -> int list
(** Like {!Block.successors} but [Return] blocks flow to the exit node. *)

val pp : Format.formatter -> t -> unit

val n_blocks : t -> int

val locals_of : Cast.fundef -> (string * Ctyp.t) list
(** Every local declared anywhere in the body (parameters excluded). *)
