type t = {
  checker : string;
  message : string;
  loc : Srcloc.t;
  start_loc : Srcloc.t;
  func : string;
  file : string;
  var : string option;
  rule : string option;
  conditionals : int;
  syn_chain : int;
  call_depth : int;
  annotations : string list;
}

let make ~checker ~message ~loc ?(start_loc = Srcloc.dummy) ?(func = "") ?(file = "")
    ?var ?rule ?(conditionals = 0) ?(syn_chain = 0) ?(call_depth = 0)
    ?(annotations = []) () =
  let start_loc = if start_loc == Srcloc.dummy then loc else start_loc in
  let file = if String.equal file "" then loc.Srcloc.file else file in
  {
    checker;
    message;
    loc;
    start_loc;
    func;
    file;
    var;
    rule;
    conditionals;
    syn_chain;
    call_depth;
    annotations;
  }

let pp ppf r =
  Format.fprintf ppf "%a: [%s] %s" Srcloc.pp r.loc r.checker r.message;
  if r.func <> "" then Format.fprintf ppf " (in %s)" r.func;
  (match r.annotations with
  | [] -> ()
  | anns -> Format.fprintf ppf " {%s}" (String.concat "," anns));
  if r.call_depth > 0 then Format.fprintf ppf " [interprocedural depth %d]" r.call_depth

let to_string r = Format.asprintf "%a" pp r

let identity_key r =
  Printf.sprintf "%s|%s|%s|%s|%s" r.file r.func r.checker
    (Option.value r.var ~default:"")
    r.message

(* Binary form for the persistent root-replay entries: every field, in
   declaration order. *)

let bin_loc b (loc : Srcloc.t) =
  Wire.string b loc.file;
  Wire.int b loc.line;
  Wire.int b loc.col

let rbin_loc r =
  let file = Wire.rstring r in
  let line = Wire.rint r in
  let col = Wire.rint r in
  Srcloc.make ~file ~line ~col

let to_bin b r =
  Wire.string b r.checker;
  Wire.string b r.message;
  bin_loc b r.loc;
  bin_loc b r.start_loc;
  Wire.string b r.func;
  Wire.string b r.file;
  Wire.option b Wire.string r.var;
  Wire.option b Wire.string r.rule;
  Wire.int b r.conditionals;
  Wire.int b r.syn_chain;
  Wire.int b r.call_depth;
  Wire.list b Wire.string r.annotations

let of_bin r =
  let checker = Wire.rstring r in
  let message = Wire.rstring r in
  let loc = rbin_loc r in
  let start_loc = rbin_loc r in
  let func = Wire.rstring r in
  let file = Wire.rstring r in
  let var = Wire.roption r Wire.rstring in
  let rule = Wire.roption r Wire.rstring in
  let conditionals = Wire.rint r in
  let syn_chain = Wire.rint r in
  let call_depth = Wire.rint r in
  let annotations = Wire.rlist r Wire.rstring in
  {
    checker;
    message;
    loc;
    start_loc;
    func;
    file;
    var;
    rule;
    conditionals;
    syn_chain;
    call_depth;
    annotations;
  }

type collector = { mutable items : t list; mutable n : int }

let new_collector () = { items = []; n = 0 }

let emit c r =
  c.items <- r :: c.items;
  c.n <- c.n + 1

let reports c = List.rev c.items
let count c = c.n

let clear c =
  c.items <- [];
  c.n <- 0
