(* Per-block head-constructor summaries for transition dispatch.

   The engine visits every subexpression of every block element in
   execution order, so the set of node events a block can ever produce is
   a static property of the block. [of_block] folds the root constructor
   ("head") of each such node into a compact summary: a shape bitmask plus
   the set of known callee names. Dispatch compares an extension's
   pattern-root requirements against the summary to decide whether the
   block can fire anything at all.

   The walk below must mirror [Engine.events_of_block] exactly: a
   declaration with an initialiser synthesises [x = init], so its summary
   contributes the initialiser's subtrees plus an identifier node and an
   assignment node; branch conditions, switch scrutinees and returned
   expressions are visited too. *)

type shape =
  | Sassign
  | Sderef
  | Sunary
  | Sbinary
  | Scast
  | Scond
  | Scomma
  | Sfield
  | Sarrow
  | Sindex
  | Sident
  | Slit
  | Ssizeof
  | Sinit
  | Scall_other  (** call through a computed callee expression *)

let shape_code = function
  | Sassign -> 0
  | Sderef -> 1
  | Sunary -> 2
  | Sbinary -> 3
  | Scast -> 4
  | Scond -> 5
  | Scomma -> 6
  | Sfield -> 7
  | Sarrow -> 8
  | Sindex -> 9
  | Sident -> 10
  | Slit -> 11
  | Ssizeof -> 12
  | Sinit -> 13
  | Scall_other -> 14

let n_shapes = 15

let all_shapes =
  [
    Sassign; Sderef; Sunary; Sbinary; Scast; Scond; Scomma; Sfield; Sarrow;
    Sindex; Sident; Slit; Ssizeof; Sinit; Scall_other;
  ]

let shape_name = function
  | Sassign -> "assign"
  | Sderef -> "deref"
  | Sunary -> "unary"
  | Sbinary -> "binary"
  | Scast -> "cast"
  | Scond -> "cond"
  | Scomma -> "comma"
  | Sfield -> "field"
  | Sarrow -> "arrow"
  | Sindex -> "index"
  | Sident -> "ident"
  | Slit -> "lit"
  | Ssizeof -> "sizeof"
  | Sinit -> "init"
  | Scall_other -> "call*"

type head = Named_call of string | Shape of shape

let head_of (e : Cast.expr) =
  match e.enode with
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, _) -> Named_call f
  | Cast.Ecall _ -> Shape Scall_other
  | Cast.Eassign _ -> Shape Sassign
  | Cast.Eunary (Cast.Deref, _) -> Shape Sderef
  | Cast.Eunary _ -> Shape Sunary
  | Cast.Ebinary _ -> Shape Sbinary
  | Cast.Ecast _ -> Shape Scast
  | Cast.Econd _ -> Shape Scond
  | Cast.Ecomma _ -> Shape Scomma
  | Cast.Efield _ -> Shape Sfield
  | Cast.Earrow _ -> Shape Sarrow
  | Cast.Eindex _ -> Shape Sindex
  | Cast.Eident _ -> Shape Sident
  | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ -> Shape Slit
  | Cast.Esizeof_type _ | Cast.Esizeof_expr _ -> Shape Ssizeof
  | Cast.Einit_list _ -> Shape Sinit

(* Allocation-free variant of [head_of] for the per-node dispatch hot
   path: returns the shape code directly. Any call — named or computed —
   maps to [Scall_other]; callers that care about the callee name match
   [Ecall (Eident f, _)] themselves before falling back here. *)
let shape_code_of (e : Cast.expr) =
  match e.enode with
  | Cast.Ecall _ -> 14 (* Scall_other *)
  | Cast.Eassign _ -> 0
  | Cast.Eunary (Cast.Deref, _) -> 1
  | Cast.Eunary _ -> 2
  | Cast.Ebinary _ -> 3
  | Cast.Ecast _ -> 4
  | Cast.Econd _ -> 5
  | Cast.Ecomma _ -> 6
  | Cast.Efield _ -> 7
  | Cast.Earrow _ -> 8
  | Cast.Eindex _ -> 9
  | Cast.Eident _ -> 10
  | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ -> 11
  | Cast.Esizeof_type _ | Cast.Esizeof_expr _ -> 12
  | Cast.Einit_list _ -> 13

type t = { mask : int; calls : string list }

let empty = { mask = 0; calls = [] }
let has_shape t s = t.mask land (1 lsl shape_code s) <> 0

module Sset = Set.Make (String)

type acc = { mutable a_mask : int; mutable a_calls : Sset.t }

let add_expr acc e =
  List.iter
    (fun n ->
      match head_of n with
      | Named_call f -> acc.a_calls <- Sset.add f acc.a_calls
      | Shape s -> acc.a_mask <- acc.a_mask lor (1 lsl shape_code s))
    (Cast.exec_order e)

let of_block (b : Block.t) =
  let acc = { a_mask = 0; a_calls = Sset.empty } in
  List.iter
    (function
      | Block.Tree e -> add_expr acc e
      | Block.Decl d -> (
          match d.Cast.dinit with
          | Some init ->
              (* the engine synthesises [dname = init] *)
              add_expr acc init;
              acc.a_mask <-
                acc.a_mask
                lor (1 lsl shape_code Sident)
                lor (1 lsl shape_code Sassign)
          | None -> ())
      | Block.End_of_scope _ -> ())
    b.Block.elems;
  (match b.Block.term with
  | Block.Branch (c, _, _) -> add_expr acc c
  | Block.Switch (e, _) -> add_expr acc e
  | Block.Return (Some e) -> add_expr acc e
  | Block.Jump _ | Block.Return None | Block.Exit -> ());
  { mask = acc.a_mask; calls = Sset.elements acc.a_calls }

let of_cfg (cfg : Cfg.t) = Array.map of_block cfg.Cfg.blocks
