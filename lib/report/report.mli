(** Error reports and the measurements ranking needs (Section 9).

    Every report carries, besides the message, the inputs to the generic
    ranking criteria: the distance between the error and where the checker
    started tracking the property, the number of conditionals the error path
    crossed, the synonym-chain length, and the interprocedural call-chain
    depth. Checker-specific annotations ([SECURITY]/[ERROR]/[MINOR]) and a
    rule key for statistical grouping ride along. *)

type t = {
  checker : string;
  message : string;
  loc : Srcloc.t;  (** the statement containing the error *)
  start_loc : Srcloc.t;  (** where the extension started checking *)
  func : string;
  file : string;
  var : string option;  (** the tracked object, as printed source *)
  rule : string option;  (** grouping key, e.g. the freeing function's name *)
  conditionals : int;
  syn_chain : int;
  call_depth : int;  (** 0 means purely local *)
  annotations : string list;
}

val make :
  checker:string ->
  message:string ->
  loc:Srcloc.t ->
  ?start_loc:Srcloc.t ->
  ?func:string ->
  ?file:string ->
  ?var:string ->
  ?rule:string ->
  ?conditionals:int ->
  ?syn_chain:int ->
  ?call_depth:int ->
  ?annotations:string list ->
  unit ->
  t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val identity_key : t -> string
(** The cross-version identity used by history suppression (Section 8):
    file name, function name, variable names and the error text — fields
    that are "relatively invariant under edits (unlike line numbers)". *)

val to_bin : Wire.writer -> t -> unit
val of_bin : Wire.reader -> t
(** Binary form used by the persistent result cache's hot path. Raises
    [Wire.Corrupt] on malformed input. *)

type collector

val new_collector : unit -> collector
val emit : collector -> t -> unit
val reports : collector -> t list
(** In emission order. *)

val count : collector -> int
val clear : collector -> unit
