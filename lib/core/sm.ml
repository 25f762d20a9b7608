type value = string

let stop_value = "stop"

type instance = {
  target : Cast.expr;
  target_id : int;
      (* hash-consed id of [target] (Exprid): the identity the engine's
         instance lookups, seen-tuple probes and summary keys compare —
         id equality is exactly rendered-key equality *)
  mutable value : value;
  mutable data : (string * string) list;
  mutable int_data : (string * int) list;
  created_at : int;
  created_loc : Srcloc.t;
  created_depth : int;
  mutable conditionals : int;
  mutable syn_chain : int;
  mutable syn_group : int;
  mutable inactive : bool;
}

type dest =
  | To_var of value
  | To_stop
  | To_global of value
  | On_branch of dest * dest
  | Same

type source = Src_global of value | Src_var of value

type pending = {
  p_node : Cast.expr;
  mutable p_on_var : string option;
  p_true : dest;
  p_false : dest;
  p_inst_id : int option;
  p_bindings : Pattern.bindings;
  p_action : (actx -> unit) option;
}

and actx = {
  a_node : Cast.expr option;
  a_loc : Srcloc.t;
  a_bindings : Pattern.bindings;
  a_inst : instance option;
  a_sm : sm_inst;
  a_func : string;
  a_depth : int;
  a_typing : Ctyping.env;
  a_report :
    ?annotations:string list -> ?rule:string -> ?var:Cast.expr -> string -> unit;
  a_count : [ `Example | `Counterexample ] -> string -> unit;
  a_annotate : Cast.expr -> string -> unit;
  a_annots : int -> string list option;
  a_kill_path : unit -> unit;
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
  start_state : value;
  svar : string option;
  holes : (string * Holes.t) list;
  transitions : transition list;
  auto_kill : bool;
  track_synonyms : bool;
  byval_restore : bool;
}

and sm_inst = {
  ext : t;
  mutable gstate : value;
  mutable actives : instance list;
  mutable pendings : pending list;
  mutable killed_path : bool;
}

let make ~name ?(start = "start") ?svar ?(holes = []) ?(auto_kill = true)
    ?(track_synonyms = true) ?(byval_restore = false) transitions =
  {
    sm_name = name;
    start_state = start;
    svar;
    holes;
    transitions;
    auto_kill;
    track_synonyms;
    byval_restore;
  }

let initial ext = { ext; gstate = ext.start_state; actives = []; pendings = []; killed_path = false }

let clone_instance i =
  {
    target = i.target;
    target_id = i.target_id;
    value = i.value;
    data = i.data;
    int_data = i.int_data;
    created_at = i.created_at;
    created_loc = i.created_loc;
    created_depth = i.created_depth;
    conditionals = i.conditionals;
    syn_chain = i.syn_chain;
    syn_group = i.syn_group;
    inactive = i.inactive;
  }

let clone_pendings ps = List.map (fun p -> { p with p_on_var = p.p_on_var }) ps

let clone sm =
  {
    ext = sm.ext;
    gstate = sm.gstate;
    actives = List.map clone_instance sm.actives;
    pendings = clone_pendings sm.pendings;
    killed_path = sm.killed_path;
  }

let new_instance ?(data = []) ?(syn_chain = 0) ~ids ~target ~value ~created_at
    ~created_loc ~created_depth () =
  {
    target;
    target_id = Exprid.id ids target;
    value;
    data;
    int_data = [];
    created_at;
    created_loc;
    created_depth;
    conditionals = 0;
    syn_chain;
    syn_group = 0;
    inactive = false;
  }

let retargeted ?value ~ids i ~target =
  {
    (clone_instance i) with
    target;
    target_id = Exprid.id ids target;
    value = Option.value value ~default:i.value;
  }

let instance_key ids i =
  (* an instance seeded from another context may carry an overflow id this
     context cannot resolve; render its target directly in that case *)
  match Exprid.find_key ids i.target_id with
  | Some k -> k
  | None -> Cast.key_of_expr i.target

let find_instance sm ~id =
  List.find_opt (fun i -> (not i.inactive) && i.target_id = id) sm.actives

let add_instance sm inst =
  sm.actives <-
    inst :: List.filter (fun i -> i.target_id <> inst.target_id) sm.actives

let remove_instance sm inst = sm.actives <- List.filter (fun i -> i != inst) sm.actives

let get_int i k = Option.value (List.assoc_opt k i.int_data) ~default:0
let set_int i k v = i.int_data <- (k, v) :: List.remove_assoc k i.int_data
let get_data i k = List.assoc_opt k i.data
let set_data i k v = i.data <- (k, v) :: List.remove_assoc k i.data

let rec pp_dest ppf = function
  | To_var v -> Format.fprintf ppf "v.%s" v
  | To_stop -> Format.pp_print_string ppf "v.stop"
  | To_global g -> Format.fprintf ppf "$%s" g
  | On_branch (t, f) -> Format.fprintf ppf "{ true = %a, false = %a }" pp_dest t pp_dest f
  | Same -> Format.pp_print_string ppf "<same>"

let pp_inst ppf sm =
  Format.fprintf ppf "@[<v>[%s] gstate=%s" sm.ext.sm_name sm.gstate;
  List.iter
    (fun i ->
      Format.fprintf ppf "@ %s : %s%s" (Cprint.expr_to_string i.target) i.value
        (if i.inactive then " (inactive)" else ""))
    sm.actives;
  Format.fprintf ppf "@]"

(* Atomic: synonym groups must stay distinct across engine worker domains. *)
let syn_group_counter = Atomic.make 0
let fresh_syn_group () = 1 + Atomic.fetch_and_add syn_group_counter 1
