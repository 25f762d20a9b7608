module Sset = Set.Make (String)
module Iset = Set.Make (Int)
module Smap = Map.Make (String)

let log_src = Logs.Src.create "mc.engine" ~doc:"xgcc analysis engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  caching : bool;
  pruning : bool;
  interproc : bool;
  auto_kill : bool;
  synonyms : bool;
  max_call_depth : int;
  max_instances : int;
  max_nodes_per_root : int;
  timeout_per_root : float;
}

let default_options =
  {
    caching = true;
    pruning = true;
    interproc = true;
    auto_kill = true;
    synonyms = true;
    max_call_depth = 40;
    max_instances = 64;
    max_nodes_per_root = 0;
    timeout_per_root = 0.;
  }

type stats = {
  mutable blocks_visited : int;
  mutable nodes_visited : int;
  mutable cache_hits : int;
  mutable paths_explored : int;
  mutable calls_followed : int;
  mutable summary_hits : int;
  mutable pruned_branches : int;
  mutable transitions_fired : int;
  mutable instances_created : int;
  mutable functions_traversed : int;
      (* distinct functions entered by the traversal, for coverage *)
  mutable cache_probes : int;
      (* block-cache and summary-cache membership tests (each an interned
         integer lookup); cache_hits / cache_probes is the hit rate *)
  mutable intern_atoms : int;
  mutable intern_tuples : int;
      (* final intern-table sizes, summed over root contexts; not persisted
         in the summary store (replayed roots contribute 0) *)
  mutable match_attempts : int;
      (* Pattern.match_event calls made by the transition loops *)
  mutable index_hits : int;
      (* nodes whose head-index candidate list was narrower than the full
         node-matching transition list *)
  mutable blocks_skipped : int;
      (* block visits where the skip set proved no transition could match
         any node, so apply_transitions never ran.
         Like the intern counters these three are process-local: not
         persisted in the summary store, replayed roots contribute 0. *)
  mutable shared_published : int;
  mutable shared_replayed : int;
  mutable shared_recomputed : int;
      (* always 0: the shared summary units these counted are gone; kept
         only until the benchmark harness stops reading them *)
  mutable sched_steals : int;
      (* tasks taken from another worker's deque, at [jobs > 1];
         scheduling noise (timing-dependent) *)
  mutable sched_waits : int;  (* always 0, like the three above *)
  mutable worker_alloc_bytes : int;
      (* bytes pool tasks allocated on domains other than the caller's,
         which [Gc.allocated_bytes] (per-domain) cannot see from there;
         process-local, like the intern counters *)
}

let new_stats () =
  {
    blocks_visited = 0;
    nodes_visited = 0;
    cache_hits = 0;
    paths_explored = 0;
    calls_followed = 0;
    summary_hits = 0;
    pruned_branches = 0;
    transitions_fired = 0;
    instances_created = 0;
    functions_traversed = 0;
    cache_probes = 0;
    intern_atoms = 0;
    intern_tuples = 0;
    match_attempts = 0;
    index_hits = 0;
    blocks_skipped = 0;
    shared_published = 0;
    shared_replayed = 0;
    shared_recomputed = 0;
    sched_steals = 0;
    sched_waits = 0;
    worker_alloc_bytes = 0;
  }

type degraded = { d_root : string; d_reason : string }

type result = {
  reports : Report.t list;
  counters : (string * int * int) list;
  stats : stats;
  degraded : degraded list;
}

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(* ------------------------------------------------------------------ *)

type fsum = {
  f_it : Intern.t;  (* interner the lazily created tables below share *)
  bs : Summary.t option array;
  sfx : Summary.t option array;
      (* per-block summary / suffix-summary tables, created on first use:
         a given extension touches only the blocks its traversal reaches,
         so eagerly building three hash tables for every block of every
         function it ever calls into dominated cold-run allocation *)
  rets : (string, unit) Hashtbl.t;
      (* values with which a tracked, *returned* object left the function —
         the "follow simple value flow" hook: callers re-attach the state to
         the call expression so assignments pick it up as a synonym *)
}

let block_sum (f : fsum) (arr : Summary.t option array) i =
  match Array.unsafe_get arr i with
  | Some s -> s
  | None ->
      let s = Summary.create ~intern:f.f_it () in
      Array.unsafe_set arr i (Some s);
      s

let bsum f i = block_sum f f.bs i
let sfxsum f i = block_sum f f.sfx i

(* Materialise the dense shape the introspection API and the summary
   store expect; untouched blocks yield (empty) summaries exactly as the
   eager representation produced. *)
let densify it (arr : Summary.t option array) =
  Array.map
    (function Some s -> s | None -> Summary.create ~intern:it ())
    arr

(* Alias of the flat table's event type, so [events_of_block] can return
   the prebuilt global arrays directly. *)
type ev = Flat.ev =
  | Ev_node of Cast.expr
  | Ev_fresh of string
  | Ev_scope_end of string list

type rctx = {
  sg : Supergraph.t;
  opts : options;
  ids : Exprid.ctx;
      (* expression-identity resolver over the supergraph's shared
         hash-cons table; per context (the overflow side tables are
         unsynchronised), never shared across domains *)
  intern : Intern.t;  (* shared by every summary this context creates *)
  store0 : Store.t;
      (* empty store seeding this context's {!Store} family: derived
         stores share one variable-interning table, so it must stay
         within this context's domain (like [ids]) *)
  collector : Report.collector;
  counters : (string, int * int) Hashtbl.t;
  annots_base : (int, string list) Hashtbl.t;
      (* read-only view of the annotations laid down before this context
         started (earlier extensions' tags, and at [-j 1] earlier roots'
         too); never written through this context, so every worker, frame
         and scratch context shares the one table instead of copying it *)
  annots : (int, string list) Hashtbl.t;
      (* this context's delta over [annots_base]: a node's entry is its
         full tag list, newest first. Writes and merges touch only this
         table; reads ([find_annot]) check it first *)
  annots_lookup : int -> string list option;
      (* [find_annot] over this context, built once: callouts and actions
         take it per node, where a fresh closure each time would show in
         the allocation profile *)
  annots_done : Bytes.t;
      (* per flat block id: terminator annotations ([mc_branch]/[mc_return])
         already laid down in this context — [events_of_block] applies
         them on the block's first visit. A [-j 1] frame shares its run's
         bitset, which is cleared when a frame's tags are dropped *)
  mutable kill_seen : bool;
      (* false only while no node in [annots_base] or [annots] carries
         [kill_path_tag]: [add_annots] sets it when it lays that tag, a
         context built over another's table starts from the other's flag,
         and nothing clears it. While it is false, [process_events] skips
         the per-node kill-path probe. *)
  fsums_base : (string, fsum) Hashtbl.t;
      (* read-only view of the summaries computed before this context
         started: a [-j 1] frame reads its run's tables here, and
         [get_fsum] copies one into [fsums] before the frame extends it *)
  fsums : (string, fsum) Hashtbl.t;
  dedup : (int, unit) Hashtbl.t;
      (* emitted-report identity keys, interned through [intern] so probes
         are int-sized; the merge-time dedup tables stay string-keyed
         because atoms are context-local *)
  traversed : (string, unit) Hashtbl.t;
  st : stats;
  mutable cur_ext : Sm.t;
  mutable dsp : Dispatch.t;  (* compiled form of cur_ext, kept in lockstep *)
  (* per-root analysis budget (fault containment): [fuel] counts down over
     nodes visited + instances created, [deadline] is an absolute wall
     clock polled every [budget_poll] charges; both are re-armed by
     [reset_budget] at each root *)
  mutable fuel : int;
  mutable deadline : float;
  mutable poll : int;
  mutable degraded_roots : degraded list;  (* reverse order of abandonment *)
  mutable node_matched : bool;
      (* out-parameter of [apply_transitions]: whether the last node event
         matched (consulted by the caller to decide call following).
         Returning it alongside the walk would box a 3-word tuple on
         every node visited — the single hottest allocation site. *)
}

type fctx = {
  cfg : Cfg.t;
  typing : Ctyping.env;
  fname : string;
  ffile : string;
  fbase : int;
      (* flat id of this function's block 0 ([Flat.fbase]). Every frame's
         CFG comes from [Supergraph.cfg_of], and [Flat.build] ran over
         exactly those CFGs, so the base is always a valid id *)
  fsum : fsum;
      (* this function's summary tables, resolved once per frame instead
         of per block visit (fsums entries are never replaced while a
         frame is live: they are moved or removed only between roots, by
         the [-j 1] merge and the release schedule) *)
  depth : int;
  stack : string list;
  locals : string list;  (* declared locals, not params: filtered from suffix summaries *)
}

type walk = { sm : Sm.sm_inst; store : Store.t; created : Iset.t }
(* [created]: target ids of the instances created since block entry — the
   add-edge discriminator of [record_block_edges] *)

(* ------------------------------------------------------------------ *)
(* Per-root analysis budgets (fault containment)                       *)
(* ------------------------------------------------------------------ *)

(* Raised from the traversal's charge points when the current root's
   budget runs out; [run_contained] converts it into a [degraded]
   note and abandons exactly that root. Never escapes the engine. *)
exception Budget_exceeded of string

let budget_poll = 256

let reset_budget rctx =
  rctx.fuel <-
    (if rctx.opts.max_nodes_per_root > 0 then rctx.opts.max_nodes_per_root
     else max_int);
  rctx.deadline <-
    (if rctx.opts.timeout_per_root > 0. then
       Unix.gettimeofday () +. rctx.opts.timeout_per_root
     else 0.);
  rctx.poll <- budget_poll

(* One unit of work: a node visit or an instance creation. The fuel test
   is a decrement and compare; the clock is only read every [budget_poll]
   charges so the deadline costs nothing measurable on the hot path. *)
let charge_budget rctx =
  rctx.fuel <- rctx.fuel - 1;
  if rctx.fuel <= 0 then
    raise
      (Budget_exceeded
         (Printf.sprintf "node budget of %d exhausted"
            rctx.opts.max_nodes_per_root));
  if rctx.deadline > 0. then begin
    rctx.poll <- rctx.poll - 1;
    if rctx.poll <= 0 then begin
      rctx.poll <- budget_poll;
      if Unix.gettimeofday () > rctx.deadline then
        raise
          (Budget_exceeded
             (Printf.sprintf "deadline of %gs exceeded"
                rctx.opts.timeout_per_root))
    end
  end

let lookup_annot ~delta ~base eid =
  match Hashtbl.find_opt delta eid with
  | None -> Hashtbl.find_opt base eid
  | tags -> tags

(* Every analysis context is built here: the sequential run's, each
   per-root worker's, and the canonical scratch.
   Workers start on an already-compiled extension: eager dispatch
   compilation is per-extension work, and the compiled form is immutable,
   so one compile (in the base context) serves every per-root context.
   [annots_base] is the read-only annotation view the context starts from
   (empty for a run's own context, whose delta is therefore the whole
   table), and [kill_seen] must be true if that table may hold
   [kill_path_tag]: callers pass the flag of a context that reads it;
   [ids] and [store0] default to fresh per-context instances and are
   shared only by a same-domain scratch. *)
let new_rctx_in ?(options = default_options) ?ids ?(store0 = Store.create ())
    ?(annots_base = Hashtbl.create 1) ?(kill_seen = false) ~ext ~dsp sg =
  let ids =
    match ids with
    | Some ids -> ids
    | None -> Exprid.make_ctx sg.Supergraph.ids
  in
  let annots = Hashtbl.create 64 in
  {
    sg;
    opts = options;
    ids;
    intern = Intern.create ~n_exprs:(Exprid.n sg.Supergraph.ids) ();
    store0;
    collector = Report.new_collector ();
    counters = Hashtbl.create 16;
    annots_base;
    annots;
    annots_lookup = lookup_annot ~delta:annots ~base:annots_base;
    annots_done = Bytes.make (max 1 sg.Supergraph.flat.Flat.n_blocks) '\000';
    kill_seen;
    fsums_base = Hashtbl.create 1;
    fsums = Hashtbl.create 64;
    dedup = Hashtbl.create 64;
    traversed = Hashtbl.create 64;
    st = new_stats ();
    cur_ext = ext;
    dsp;
    fuel = max_int;
    deadline = 0.;
    poll = budget_poll;
    degraded_roots = [];
    node_matched = false;
  }

let new_rctx ?(options = default_options) sg =
  let none = Sm.make ~name:"<none>" [] in
  new_rctx_in ~options ~ext:none ~dsp:(Dispatch.compile ~sg none) sg

(* Content-level union of one function's block or suffix summaries:
   edges (in order) and src keys are re-added through [dst]'s interner,
   so tables decoded from the store seed a canonical scratch whatever
   interner produced them. *)
let union_sums (dst : fsum) (d : Summary.t option array)
    (s : Summary.t option array) =
  Array.iteri
    (fun i sum ->
      match sum with
      | None -> ()
      | Some sum ->
          let di = block_sum dst d i in
          Summary.iter_edges (fun e -> ignore (Summary.add_edge di e)) sum;
          List.iter (Summary.add_src_key di) (Summary.srcs_list sum))
    s

let merge_fsum_into (dst : fsum) (src : fsum) =
  union_sums dst dst.bs src.bs;
  union_sums dst dst.sfx src.sfx;
  Hashtbl.iter (fun k () -> Hashtbl.replace dst.rets k ()) src.rets

(* A copy that behaves as [s] does under every probe: the same edges in
   the same order, the same sources, and [rets] by [Hashtbl.copy] because
   [follow_call] reads the last element its fold meets. *)
let copy_fsum (s : fsum) =
  let n = Array.length s.bs in
  let c =
    { s with bs = Array.make n None; sfx = Array.make n None; rets = Hashtbl.copy s.rets }
  in
  union_sums c c.bs s.bs;
  union_sums c c.sfx s.sfx;
  c

(* [cfg]'s tables for extending: this context's own, else a copy of its
   base's (which stay as they were), else new ones. *)
let get_fsum rctx (cfg : Cfg.t) =
  match Hashtbl.find_opt rctx.fsums cfg.fname with
  | Some s -> s
  | None ->
      let s =
        match Hashtbl.find_opt rctx.fsums_base cfg.fname with
        | Some b -> copy_fsum b
        | None ->
            let n = Cfg.n_blocks cfg in
            {
              f_it = rctx.intern;
              bs = Array.make n None;
              sfx = Array.make n None;
              rets = Hashtbl.create 4;
            }
      in
      Hashtbl.replace rctx.fsums cfg.fname s;
      s

(* [cfg]'s tables for reading only: the base's are not copied. *)
let read_fsum rctx (cfg : Cfg.t) =
  match Hashtbl.find_opt rctx.fsums cfg.fname with
  | Some s -> s
  | None -> (
      match Hashtbl.find_opt rctx.fsums_base cfg.fname with
      | Some b -> b
      | None -> get_fsum rctx cfg)

(* The same key [emit_report] guards the per-rctx dedup table with. *)
let report_key (r : Report.t) =
  Printf.sprintf "%s@%s" (Report.identity_key r) (Srcloc.to_string r.Report.loc)

let make_fctx rctx ~depth ~stack (cfg : Cfg.t) =
  let f = cfg.func in
  Hashtbl.replace rctx.traversed f.fname ();
  {
    cfg;
    typing = Ctyping.enter_function rctx.sg.Supergraph.typing f;
    fname = f.fname;
    ffile = f.ffile;
    fbase = Flat.fbase rctx.sg.Supergraph.flat f.fname;
    fsum = get_fsum rctx cfg;
    depth;
    stack;
    locals = List.map fst (Cfg.locals_of f);
  }

(* ------------------------------------------------------------------ *)
(* Events of a block (prebuilt once per supergraph by [Flat.build])   *)
(* ------------------------------------------------------------------ *)

let find_annot rctx eid =
  lookup_annot ~delta:rctx.annots ~base:rctx.annots_base eid

(* The tag [pathkill] lays on a call to a terminating function: a path
   reaching a node that carries it ends there ([process_events]). *)
let kill_path_tag = "mc_kill_path"

(* Whether [kill_path_tag] is among the tags prepended to [old] to make
   [cur]; only that prefix is compared. *)
let rec adds_kill cur old =
  cur != old
  &&
  match cur with
  | t :: rest -> String.equal t kill_path_tag || adds_kill rest old
  | [] -> false

(* Lay [tags] (oldest first) on node [eid], skipping those it already
   carries; the one write path into the delta. True iff the node's tags
   changed. Laying [kill_path_tag] sets [kill_seen]. *)
let add_annots rctx eid tags =
  let old = Option.value (find_annot rctx eid) ~default:[] in
  let cur =
    List.fold_left
      (fun cur t -> if List.mem t cur then cur else t :: cur)
      old tags
  in
  if cur == old then false
  else begin
    if adds_kill cur old then rctx.kill_seen <- true;
    Hashtbl.replace rctx.annots eid cur;
    true
  end

let annotate_node rctx (e : Cast.expr) tag = ignore (add_annots rctx e.eid [ tag ])

(* The tags a delta entry adds beyond [base], oldest first (annotations
   prepend, so they are the list's prefix). *)
let fresh_annots ~base eid tags =
  let n =
    List.length tags
    - List.length (Option.value (Hashtbl.find_opt base eid) ~default:[])
  in
  List.rev (List.filteri (fun i _ -> i < n) tags)

(* A block's events are the supergraph's prebuilt global event array
   (no per-context list building at all). Its terminator annotations are
   laid down on the block's first visit in this context, tracked by the
   [annots_done] bitset (idempotent anyway — [annotate_node] dedups — but
   the bitset keeps repeat visits allocation- and probe-free). *)
let events_of_block rctx fctx (block : Block.t) =
  let flat = rctx.sg.Supergraph.flat in
  let fb = fctx.fbase + block.bid in
  if Bytes.get rctx.annots_done fb = '\000' then begin
    Bytes.set rctx.annots_done fb '\001';
    Array.iter (fun (e, tag) -> annotate_node rctx e tag) (Flat.annots flat fb)
  end;
  Flat.events flat fb

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let bump_counter rctx which rule =
  let e, c = Option.value (Hashtbl.find_opt rctx.counters rule) ~default:(0, 0) in
  let e, c = match which with `Example -> (e + 1, c) | `Counterexample -> (e, c + 1) in
  Hashtbl.replace rctx.counters rule (e, c)

let node_annotated rctx (e : Cast.expr) tag =
  match find_annot rctx e.eid with
  | Some tags -> List.mem tag tags
  | None -> false

(* Severity annotations left on AST nodes by previously-run extensions
   (the SECURITY/ERROR/MINOR composition idiom of Section 9) are folded
   into reports emitted at those nodes. *)
let severity_tags = [ "SECURITY"; "ERROR"; "MINOR" ]

let emit_report rctx fctx ~node ~inst ?(annotations = []) ?rule ?var msg =
  let loc =
    match node with
    | Some (n : Cast.expr) -> n.eloc
    | None -> (
        match inst with
        | Some (i : Sm.instance) -> i.created_loc
        | None -> fctx.cfg.Cfg.func.Cast.floc)
  in
  let start_loc, conds, syn, cdepth, default_var =
    match inst with
    | Some (i : Sm.instance) ->
        ( i.created_loc,
          i.conditionals,
          i.syn_chain,
          abs (fctx.depth - i.created_depth),
          Some (Cprint.expr_to_string i.target) )
    | None -> (loc, 0, 0, 0, None)
  in
  let var =
    match var with Some (v : Cast.expr) -> Some (Cprint.expr_to_string v) | None -> default_var
  in
  let annotations =
    match node with
    | Some (n : Cast.expr) -> (
        match find_annot rctx n.eid with
        | Some tags ->
            annotations
            @ List.filter
                (fun t -> List.mem t severity_tags && not (List.mem t annotations))
                tags
        | None -> annotations)
    | None -> annotations
  in
  let r =
    Report.make ~checker:rctx.cur_ext.Sm.sm_name ~message:msg ~loc ~start_loc
      ~func:fctx.fname ~file:fctx.ffile ?var ?rule ~conditionals:conds ~syn_chain:syn
      ~call_depth:cdepth ~annotations ()
  in
  let key = Printf.sprintf "%s@%s" (Report.identity_key r) (Srcloc.to_string loc) in
  let atom = Intern.atom rctx.intern key in
  if not (Hashtbl.mem rctx.dedup atom) then begin
    Hashtbl.replace rctx.dedup atom ();
    Log.info (fun m -> m "report: %a" Report.pp r);
    Report.emit rctx.collector r
  end

let make_actx rctx fctx walk ~node ~bindings ~inst : Sm.actx =
  {
    a_node = node;
    a_loc =
      (match node with
      | Some (n : Cast.expr) -> n.eloc
      | None -> Srcloc.dummy);
    a_bindings = bindings;
    a_inst = inst;
    a_sm = walk.sm;
    a_func = fctx.fname;
    a_depth = fctx.depth;
    a_typing = fctx.typing;
    a_report =
      (fun ?annotations ?rule ?var msg ->
        emit_report rctx fctx ~node ~inst ?annotations ?rule ?var msg);
    a_count = (fun which rule -> bump_counter rctx which rule);
    a_annotate = (fun e tag -> annotate_node rctx e tag);
    a_annots = rctx.annots_lookup;
    a_kill_path = (fun () -> walk.sm.killed_path <- true);
  }

(* ------------------------------------------------------------------ *)
(* Destinations                                                        *)
(* ------------------------------------------------------------------ *)

(* The common case on every hot path: no instance at all, live or not.
   A pattern match, where [sm.actives = []] would call the polymorphic
   compare. *)
let no_instances (sm : Sm.sm_inst) = match sm.actives with [] -> true | _ :: _ -> false

(* Mirror a state change onto every synonym of [inst]. *)
let synonyms_of (sm : Sm.sm_inst) (inst : Sm.instance) =
  if inst.syn_group = 0 then []
  else
    List.filter
      (fun (i : Sm.instance) -> i != inst && i.syn_group = inst.syn_group)
      sm.actives

let set_instance_value (sm : Sm.sm_inst) (inst : Sm.instance) v =
  inst.value <- v;
  List.iter (fun (i : Sm.instance) -> i.value <- v) (synonyms_of sm inst)

let stop_instance (sm : Sm.sm_inst) (inst : Sm.instance) =
  let syns = synonyms_of sm inst in
  Sm.remove_instance sm inst;
  List.iter (Sm.remove_instance sm) syns

let create_tracked rctx fctx walk ?(syn_chain = 0) ?(data = []) ~target ~value
    ~(node : Cast.expr) () =
  if List.length walk.sm.actives >= rctx.opts.max_instances then walk
  else begin
    let inst =
      Sm.new_instance ~data ~syn_chain ~ids:rctx.ids ~target ~value
        ~created_at:node.eid ~created_loc:node.eloc ~created_depth:fctx.depth ()
    in
    Sm.add_instance walk.sm inst;
    rctx.st.instances_created <- rctx.st.instances_created + 1;
    charge_budget rctx;
    { walk with created = Iset.add inst.target_id walk.created }
  end

let svar_binding (ext : Sm.t) (bindings : Pattern.bindings) =
  match ext.svar with
  | None -> None
  | Some v -> (
      match List.assoc_opt v bindings with
      | Some (Pattern.Bnode tree) -> Some tree
      | _ -> None)

(* Apply a destination for a transition triggered by [inst] (variable
   source) or creating/affecting the object bound to the state variable
   (global source). Returns the updated walk. *)
(* Apply a destination; returns the updated walk and the instance the
   transition affected (for creations, the new instance — so that actions,
   which run after the destination, can initialise its data values). *)
let apply_dest rctx fctx walk ~(node : Cast.expr option) ~bindings
    ~(inst : Sm.instance option) (dest : Sm.dest) =
  let sm = walk.sm in
  match dest with
  | Sm.Same -> (walk, inst)
  | Sm.To_global g ->
      sm.gstate <- g;
      (walk, inst)
  | Sm.To_stop -> (
      match inst with
      | Some i ->
          stop_instance sm i;
          (walk, inst)
      | None -> (
          (* global-source stop: stop the instance on the bound object *)
          match svar_binding sm.ext bindings with
          | Some tree -> (
              match Sm.find_instance sm ~id:(Exprid.id rctx.ids tree) with
              | Some i ->
                  stop_instance sm i;
                  (walk, Some i)
              | None -> (walk, None))
          | None -> (walk, None)))
  | Sm.To_var v -> (
      match inst with
      | Some i ->
          set_instance_value sm i v;
          (walk, inst)
      | None -> (
          match svar_binding sm.ext bindings with
          | Some tree -> (
              match node with
              | Some n ->
                  let walk =
                    create_tracked rctx fctx walk ~target:tree ~value:v ~node:n ()
                  in
                  (walk, Sm.find_instance walk.sm ~id:(Exprid.id rctx.ids tree))
              | None -> (walk, None))
          | None -> (walk, None)))
  | Sm.On_branch (t, f) ->
      (match node with
      | Some n ->
          sm.pendings <-
            {
              Sm.p_node = n;
              p_on_var = None;
              p_true = t;
              p_false = f;
              p_inst_id = Option.map (fun (i : Sm.instance) -> i.target_id) inst;
              p_bindings = bindings;
              p_action = None;
            }
            :: sm.pendings
      | None -> ());
      (walk, inst)

(* ------------------------------------------------------------------ *)
(* Transitions at a node                                               *)
(* ------------------------------------------------------------------ *)

let callout_ctx rctx fctx node =
  { Callout.typing = fctx.typing; node; annots = rctx.annots_lookup }

(* Apply the extension at a program point. Returns (any pattern matched,
   updated walk). Semantics:
   - variable-specific instances are iterated before the global instance,
     so e.g. a double-free fires before the start-state transition would
     silently re-track the pointer;
   - per instance (and for the global machine) the first matching
     transition in declaration order wins — this is what makes the
     targeted-suppression idiom of Section 8 work: a suppression rule
     listed before the error rule absorbs the idiomatic match;
   - transitions are judged against the state as it was when the point was
     reached (no same-node cascading).

   The loops run over the compiled candidate list for the node's head
   constructor (see {!Dispatch}), which preserves declaration order and is
   a superset of the transitions that can actually match, so
   first-match-wins picks the same winner as a scan of the full list.

   Callsite modelling (Section 6): "the analysis does not follow calls to
   kfree because the extension matches these calls". The prepass matches
   each candidate's pruned call model ([Dispatch.call_model]) instead of
   its full pattern, so only call-shaped disjuncts (and callouts) count —
   a bare hole that happens to match a pointer-valued call expression must
   not suppress following it, even when it sits in a disjunction with a
   call pattern. *)
let apply_transitions rctx fctx walk (node : Cast.expr) =
  let sm = walk.sm in
  let ext = sm.ext in
  let dsp = rctx.dsp in
  let trs = Dispatch.transitions dsp in
  let bucket = Dispatch.candidates dsp node in
  let cand = bucket.Dispatch.b_trs in
  if Array.length cand < Array.length (Dispatch.all_node dsp) then
    rctx.st.index_hits <- rctx.st.index_hits + 1;
  (* Short-circuit prepass: decide from the bucket's precompiled facts
     alone whether any loop below could do anything, before allocating
     the callout context or the entry-state tables. No per-transition
     scan, no closure: three field reads plus (rarely) a short
     string-array walk for the global source states. *)
  let entry_gstate = sm.gstate in
  (* resolved by content: a runtime [set_global] string codes to the same
     int as the equal static state, or to -1 when outside the state table *)
  let entry_gc = Dispatch.state_code dsp entry_gstate in
  let any_model = bucket.Dispatch.b_any_model in
  let any_var = bucket.Dispatch.b_has_var && sm.actives <> [] in
  let any_glob =
    let gs = bucket.Dispatch.b_global_codes in
    let n = Array.length gs in
    let rec scan i = i < n && (gs.(i) = entry_gc || scan (i + 1)) in
    n > 0 && scan 0
  in
  if (not any_model) && (not any_var) && not any_glob then begin
    rctx.node_matched <- false;
    walk
  end
  else begin
    let cctx = callout_ctx rctx fctx (Some node) in
    let matched = ref false in
    let touched : (int, unit) Hashtbl.t option ref = ref None in
    let touch id =
      match !touched with
      | Some t -> Hashtbl.replace t id ()
      | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.replace t id ();
          touched := Some t
    in
    let touched_mem id =
      match !touched with Some t -> Hashtbl.mem t id | None -> false
    in
    let walk = ref walk in
    if any_model then
      Array.iter
        (fun ti ->
          let c = trs.(ti) in
          if not !matched then
            match c.Dispatch.c_call_model with
            | None -> ()
            | Some model -> (
                rctx.st.match_attempts <- rctx.st.match_attempts + 1;
                match
                  Pattern.match_event ~ctx:cctx ~holes:c.Dispatch.c_holes model
                    (Pattern.At_node node)
                with
                | Some _ -> matched := true
                | None -> ()))
        cand;
    (* variable-specific instances first; first matching transition wins *)
    if any_var then begin
      let entry_values : (int, string) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (i : Sm.instance) ->
          Hashtbl.replace entry_values i.target_id i.value)
        sm.actives;
      let value_at_entry (i : Sm.instance) =
        Option.value (Hashtbl.find_opt entry_values i.target_id) ~default:i.value
      in
      List.iter
        (fun (i : Sm.instance) ->
          if i.created_at <> node.eid && not i.inactive then begin
            let v0 = value_at_entry i in
            if String.equal i.value v0 then begin
              let init =
                match ext.svar with
                | Some sv -> [ (sv, Pattern.Bnode i.target) ]
                | None -> []
              in
              let fired = ref false in
              Array.iter
                (fun ti ->
                  let c = trs.(ti) in
                  if not !fired then
                    match c.Dispatch.c_src_var with
                    | Some v when String.equal v v0 -> (
                        let tr = c.Dispatch.c_tr in
                        rctx.st.match_attempts <- rctx.st.match_attempts + 1;
                        match
                          Pattern.match_event ~init ~ctx:cctx
                            ~holes:c.Dispatch.c_holes tr.Sm.tr_pattern
                            (Pattern.At_node node)
                        with
                        | None -> ()
                        | Some bindings ->
                            fired := true;
                            matched := true;
                            rctx.st.transitions_fired <-
                              rctx.st.transitions_fired + 1;
                            touch i.target_id;
                            let walk', affected =
                              apply_dest rctx fctx !walk ~node:(Some node)
                                ~bindings ~inst:(Some i) tr.Sm.tr_dest
                            in
                            walk := walk';
                            (match tr.Sm.tr_action with
                            | Some act ->
                                act
                                  (make_actx rctx fctx !walk ~node:(Some node)
                                     ~bindings ~inst:affected)
                            | None -> ()))
                    | Some _ | None -> ())
                cand
            end
          end)
        sm.actives
    end;
    (* then the global machine; first matching transition wins *)
    if any_glob then begin
      let gfired = ref false in
      Array.iter
        (fun ti ->
          let c = trs.(ti) in
          match c.Dispatch.c_src_global with
          | None -> ()
          | Some _ ->
              if
                (not !gfired)
                && c.Dispatch.c_src_global_code = entry_gc
                && String.equal sm.gstate entry_gstate
              then begin
                let tr = c.Dispatch.c_tr in
                rctx.st.match_attempts <- rctx.st.match_attempts + 1;
                match
                  Pattern.match_event ~ctx:cctx ~holes:c.Dispatch.c_holes
                    tr.Sm.tr_pattern (Pattern.At_node node)
                with
                | None -> ()
                | Some bindings ->
                    matched := true;
                    (* suppress re-creation when the bound object was already
                       transitioned at this very node (e.g. a double free) *)
                    let suppressed =
                      match svar_binding ext bindings with
                      | Some tree -> touched_mem (Exprid.id rctx.ids tree)
                      | None -> false
                    in
                    if not suppressed then begin
                      gfired := true;
                      rctx.st.transitions_fired <- rctx.st.transitions_fired + 1;
                      let walk', affected =
                        apply_dest rctx fctx !walk ~node:(Some node) ~bindings
                          ~inst:None tr.Sm.tr_dest
                      in
                      walk := walk';
                      match tr.Sm.tr_action with
                      | Some act ->
                          act
                            (make_actx rctx fctx !walk ~node:(Some node)
                               ~bindings ~inst:affected)
                      | None -> ()
                    end
              end)
        cand
    end;
    rctx.node_matched <- !matched;
    !walk
  end

(* End-of-path events: fire [$end_of_path$] transitions for the given
   instances (those permanently leaving scope) and, when [global] is set,
   also global-source end-of-path transitions (program termination).
   First-match-wins per instance, matching the node semantics. *)
let fire_end_of_path rctx fctx walk ~(instances : Sm.instance list) ~global =
  let sm = walk.sm in
  let ext = sm.ext in
  let dsp = rctx.dsp in
  let trs = Dispatch.transitions dsp in
  let eop_var = Dispatch.eop_var dsp in
  let eop_global = Dispatch.eop_global dsp in
  if
    (instances = [] || Array.length eop_var = 0)
    && ((not global) || Array.length eop_global = 0)
  then walk
  else begin
    let cctx = callout_ctx rctx fctx None in
    let walk = ref walk in
    if Array.length eop_var > 0 then
      List.iter
        (fun (i : Sm.instance) ->
          let fired = ref false in
          Array.iter
            (fun ti ->
              let c = trs.(ti) in
              if (not !fired) && List.memq i sm.actives then
                match c.Dispatch.c_src_var with
                | Some v when String.equal i.value v && not i.inactive -> (
                    let tr = c.Dispatch.c_tr in
                    rctx.st.match_attempts <- rctx.st.match_attempts + 1;
                    match
                      Pattern.match_event ~ctx:cctx ~holes:c.Dispatch.c_holes
                        tr.Sm.tr_pattern Pattern.At_end_of_path
                    with
                    | None -> ()
                    | Some bindings ->
                        fired := true;
                        rctx.st.transitions_fired <- rctx.st.transitions_fired + 1;
                        let bindings =
                          match ext.svar with
                          | Some sv -> (sv, Pattern.Bnode i.target) :: bindings
                          | None -> bindings
                        in
                        (* the action runs before the destination so it can
                           still read the dying instance's state *)
                        (match tr.Sm.tr_action with
                        | Some act ->
                            act
                              (make_actx rctx fctx !walk ~node:None ~bindings
                                 ~inst:(Some i))
                        | None -> ());
                        let walk', _ =
                          apply_dest rctx fctx !walk ~node:None ~bindings
                            ~inst:(Some i) tr.Sm.tr_dest
                        in
                        walk := walk')
                | Some _ | None -> ())
            eop_var)
        instances;
    if global && Array.length eop_global > 0 then begin
      let gfired = ref false in
      let gc = Dispatch.state_code dsp sm.gstate in
      Array.iter
        (fun ti ->
          let c = trs.(ti) in
          if not !gfired then
            match c.Dispatch.c_src_global with
            | Some _ when c.Dispatch.c_src_global_code = gc -> (
                let tr = c.Dispatch.c_tr in
                rctx.st.match_attempts <- rctx.st.match_attempts + 1;
                match
                  Pattern.match_event ~ctx:cctx ~holes:c.Dispatch.c_holes
                    tr.Sm.tr_pattern Pattern.At_end_of_path
                with
                | None -> ()
                | Some bindings ->
                    gfired := true;
                    rctx.st.transitions_fired <- rctx.st.transitions_fired + 1;
                    (match tr.Sm.tr_action with
                    | Some act ->
                        act
                          (make_actx rctx fctx !walk ~node:None ~bindings
                             ~inst:None)
                    | None -> ());
                    let walk', _ =
                      apply_dest rctx fctx !walk ~node:None ~bindings ~inst:None
                        tr.Sm.tr_dest
                    in
                    walk := walk')
            | Some _ | None -> ())
        eop_global
    end;
    !walk
  end

(* ------------------------------------------------------------------ *)
(* Transparent write handling: synonyms, kills, value tracking         *)
(* ------------------------------------------------------------------ *)

let rec contains_eid (e : Cast.expr) eid =
  e.eid = eid
  ||
  let children =
    match e.enode with
    | Cast.Eunary (_, e1)
    | Cast.Ecast (_, e1)
    | Cast.Esizeof_expr e1
    | Cast.Efield (e1, _)
    | Cast.Earrow (e1, _) ->
        [ e1 ]
    | Cast.Ebinary (_, l, r)
    | Cast.Eassign (_, l, r)
    | Cast.Eindex (l, r)
    | Cast.Ecomma (l, r) ->
        [ l; r ]
    | Cast.Econd (c, t, f) -> [ c; t; f ]
    | Cast.Ecall (f, args) -> f :: args
    | Cast.Einit_list es -> es
    | _ -> []
  in
  List.exists (fun c -> contains_eid c eid) children

let rec strip_casts (e : Cast.expr) =
  match e.enode with Cast.Ecast (_, e1) -> strip_casts e1 | _ -> e

(* Kill-on-redefinition: [x] was just (re)defined at [node]; any tracked
   object that uses [x] is transitioned to stop — "the single most important
   technique for suppressing false positives". *)
let kill_mentions rctx walk ~(at : int) x =
  ignore rctx;
  let sm = walk.sm in
  let victims =
    List.filter
      (fun (i : Sm.instance) ->
        i.created_at <> at && List.mem x (Cast.idents_of_expr i.target))
      sm.actives
  in
  List.iter (fun i -> Sm.remove_instance sm i) victims

(* Writing through an lvalue path ([*p = e], [x.f = e], [a[i] = e]) defines
   the named location, not its base variable: only tracked objects that
   contain the written lvalue are invalidated. *)
let kill_containing rctx walk ~(at : int) (lv : Cast.expr) =
  ignore rctx;
  let sm = walk.sm in
  let victims =
    List.filter
      (fun (i : Sm.instance) ->
        i.created_at <> at && Cast.contains_expr ~needle:lv i.target)
      sm.actives
  in
  List.iter (fun i -> Sm.remove_instance sm i) victims

let handle_writes rctx fctx walk (node : Cast.expr) =
  let sm = walk.sm in
  let opts = rctx.opts in
  match node.enode with
  | Cast.Eassign (op, l, r) ->
      (* a pending path-specific transition whose call result is being
         stored: remember the destination variable *)
      List.iter
        (fun (p : Sm.pending) ->
          if p.p_on_var = None && contains_eid r p.p_node.Cast.eid then
            p.p_on_var <-
              (match Cast.base_lvalue l with
              | Some { enode = Cast.Eident x; _ } -> Some x
              | _ -> None))
        sm.pendings;
      (* synonyms: q = p gives q a copy of p's state *)
      let walk =
        if op = None && opts.synonyms && sm.ext.track_synonyms then begin
          (* the value of [a = b = e] is [b]'s value: follow chained
             assignments to the innermost lvalue *)
          let rec value_source (e : Cast.expr) =
            match (strip_casts e).enode with
            | Cast.Eassign (None, l2, _) -> value_source l2
            | _ -> strip_casts e
          in
          let rsrc = value_source r in
          match
            if no_instances sm then None
            else Sm.find_instance sm ~id:(Exprid.id rctx.ids rsrc)
          with
          | Some src
            when src.created_at <> node.eid
                 && Option.is_some (Cast.base_lvalue l)
                 && not (Cast.equal_expr l rsrc) ->
              let group =
                if src.syn_group = 0 then begin
                  let g = Sm.fresh_syn_group () in
                  src.syn_group <- g;
                  g
                end
                else src.syn_group
              in
              let walk =
                create_tracked rctx fctx walk ~syn_chain:(src.syn_chain + 1)
                  ~data:src.data ~target:l ~value:src.value ~node ()
              in
              (match Sm.find_instance walk.sm ~id:(Exprid.id rctx.ids l) with
              | Some i when i.created_at = node.eid -> i.syn_group <- group
              | _ -> ());
              walk
          | _ -> walk
        end
        else walk
      in
      (* kill *)
      if opts.auto_kill && sm.ext.auto_kill then begin
        match l.enode with
        | Cast.Eident x -> kill_mentions rctx walk ~at:node.eid x
        | _ -> kill_containing rctx walk ~at:node.eid l
      end;
      (* value tracking *)
      let store =
        match l.enode with
        | Cast.Eident x -> (
            match op with
            | None -> Store.assign walk.store x r
            | Some o ->
                Store.assign walk.store x (Cast.mk_expr (Cast.Ebinary (o, l, r))))
        | _ -> walk.store
      in
      { walk with store }
  | Cast.Eunary (((Cast.Preinc | Cast.Predec | Cast.Postinc | Cast.Postdec) as u), l)
    -> (
      (if opts.auto_kill && sm.ext.auto_kill then
         match l.enode with
         | Cast.Eident x -> kill_mentions rctx walk ~at:node.eid x
         | _ -> kill_containing rctx walk ~at:node.eid l);
      match l.enode with
      | Cast.Eident x ->
          let op =
            match u with
            | Cast.Preinc | Cast.Postinc -> Cast.Add
            | _ -> Cast.Sub
          in
          let store =
            Store.assign walk.store x
              (Cast.mk_expr (Cast.Ebinary (op, l, Cast.intlit 1L)))
          in
          { walk with store }
      | _ -> walk)
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, args)
    when Supergraph.cfg_of rctx.sg f = None ->
      (* unknown function: its callees may write through pointer args *)
      let store =
        List.fold_left
          (fun store (a : Cast.expr) ->
            match (strip_casts a).enode with
            | Cast.Eunary (Cast.Addrof, { enode = Cast.Eident x; _ }) ->
                Store.assign_unknown store x
            | _ -> store)
          walk.store args
      in
      { walk with store }
  | _ -> walk

(* ------------------------------------------------------------------ *)
(* Block edge recording                                                *)
(* ------------------------------------------------------------------ *)

(* The block-entry snapshot is an array of (instance key atom, rendered
   target key, entry tuple id, entry tuple), deduplicated so each atom
   appears once (last active wins — exactly what the [Smap.add] fold this
   replaces did). Probes are a linear scan by int atom over a handful of
   entries; the dominant no-instance case is a zero-length array and
   costs nothing. The entry tuple (and its id) must be captured at block
   entry: [instance.value] is mutated in place as transitions fire, so it
   cannot be reconstructed from the instance afterwards. *)
type snapshot_entry = {
  se_atom : int;  (* instance key atom = the vkey atom of its tuples *)
  se_key : string;
  se_id : int;  (* entry tuple id, for probe-first edge recording *)
  se_tup : Summary.tuple;
}

let snapshot_find (snapshot : snapshot_entry array) atom =
  let n = Array.length snapshot in
  let rec go i =
    if i >= n then None
    else
      let se = Array.unsafe_get snapshot i in
      if se.se_atom = atom then Some se else go (i + 1)
  in
  go 0

(* Probe-first: src/dst tuple ids are computed from component atoms and
   checked against the edge table before any tuple or edge record is
   built — on the hit path (the overwhelming majority of block visits
   re-walk already-recorded state) this allocates nothing in ids mode.
   The probes are exactly the ids [Summary.add_edge] dedups by, so the
   recorded edge set and its insertion order are unchanged. *)
let record_block_edges ~ids ~intern (bs : Summary.t) ~depth_base ~entry_g
    ~(snapshot : snapshot_entry array) walk =
  let sm = walk.sm in
  let exit_g = sm.gstate in
  let entry_ga = Summary.key_atom bs entry_g in
  let exit_ga = Summary.key_atom bs exit_g in
  let gsrc =
    Summary.tuple_id_atoms bs ~g:entry_ga ~vkey:Intern.no_var ~vval:Intern.no_var
  in
  let gdst =
    Summary.tuple_id_atoms bs ~g:exit_ga ~vkey:Intern.no_var ~vval:Intern.no_var
  in
  if not (Summary.mem_edge_ids bs ~src:gsrc ~dst:gdst Summary.Transition) then
    ignore
      (Summary.add_edge bs
         {
           Summary.e_src = Summary.global_tuple entry_g;
           e_dst = Summary.global_tuple exit_g;
           e_kind = Summary.Transition;
         });
  (* interned on every call, instances or not: the [interning:] atom
     count includes it *)
  let unknown_a = Summary.key_atom bs Summary.unknown_value in
  (* key atoms of the live instances, read only by the stop pass below,
     so gathered only when the block was entered with live instances *)
  let live = ref [] in
  let track_live = Array.length snapshot > 0 in
  List.iter
    (fun (i : Sm.instance) ->
      if not i.inactive then begin
        let atom = Summary.instance_key_atom ids intern i in
        if track_live then live := atom :: !live;
        let cur_id =
          Summary.tuple_id_atoms bs ~g:exit_ga ~vkey:atom
            ~vval:(Summary.key_atom bs i.value)
        in
        let add_unknown () =
          if
            not
              (Summary.mem_edge_ids bs
                 ~src:
                   (Summary.tuple_id_atoms bs ~g:entry_ga ~vkey:atom
                      ~vval:unknown_a)
                 ~dst:cur_id Summary.Add)
          then
            ignore
              (Summary.add_edge bs
                 {
                   Summary.e_src =
                     Summary.unknown_tuple_of_instance ~ids ~gstate:entry_g i;
                   e_dst = Summary.tuple_of_instance ~ids ~gstate:exit_g ~depth_base i;
                   e_kind = Summary.Add;
                 })
        in
        if Iset.mem i.target_id walk.created then add_unknown ()
        else
          match snapshot_find snapshot atom with
          | Some se ->
              if
                not
                  (Summary.mem_edge_ids bs ~src:se.se_id ~dst:cur_id
                     Summary.Transition)
              then
                ignore
                  (Summary.add_edge bs
                     {
                       Summary.e_src = se.se_tup;
                       e_dst =
                         Summary.tuple_of_instance ~ids ~gstate:exit_g ~depth_base i;
                       e_kind = Summary.Transition;
                     })
          | None -> add_unknown ()
      end)
    sm.actives;
  (* Entry tuples whose instance died: transition to stop. Edge insertion
     order is observable (it flows through [Summary.order] into relax and
     summary application), so iterate in the lexicographic target-key
     order the [Smap.iter] this replaces used — the sort runs only on the
     rare blocks entered with live instances. *)
  if Array.length snapshot > 0 then begin
    let stop_a = Summary.key_atom bs Sm.stop_value in
    let by_key = Array.copy snapshot in
    Array.sort (fun a b -> String.compare a.se_key b.se_key) by_key;
    Array.iter
      (fun se ->
        if not (List.mem se.se_atom !live) then
          match se.se_tup.Summary.t_v with
          | Some v ->
              let dst_id =
                Summary.tuple_id_atoms bs ~g:exit_ga ~vkey:se.se_atom ~vval:stop_a
              in
              if
                not
                  (Summary.mem_edge_ids bs ~src:se.se_id ~dst:dst_id
                     Summary.Transition)
              then
                ignore
                  (Summary.add_edge bs
                     {
                       Summary.e_src = se.se_tup;
                       e_dst =
                         {
                           Summary.t_g = exit_g;
                           t_v = Some { v with Summary.v_value = Sm.stop_value };
                         };
                       e_kind = Summary.Transition;
                     })
          | None -> ())
      by_key
  end

(* ------------------------------------------------------------------ *)
(* Relax: suffix-summary computation (Figure 6)                        *)
(* ------------------------------------------------------------------ *)

(* Suffix summaries never mention function locals ("the analysis would never
   use these edges") nor edges ending in stop. *)
let suffix_eligible fctx (e : Summary.edge) =
  (not (Summary.ends_in_stop e))
  &&
  let local_tv (tv : Summary.tvar option) =
    match tv with
    | None -> false
    | Some v ->
        List.exists
          (fun x -> List.mem x fctx.locals)
          (Cast.idents_of_expr v.Summary.v_tree)
  in
  (not (local_tv e.e_src.t_v)) && not (local_tv e.e_dst.t_v)

let propagate fctx (prev_bs : Summary.t) (prev_sfx : Summary.t) (cur_sfx : Summary.t) =
  let changed = ref false in
  Summary.iter_edges
    (fun (e : Summary.edge) ->
      if suffix_eligible fctx e then
        match e.e_kind with
        | Summary.Transition ->
            Summary.iter_by_dst prev_bs e.e_src
              (fun (pe : Summary.edge) ->
                let newe =
                  { Summary.e_src = pe.e_src; e_dst = e.e_dst; e_kind = pe.e_kind }
                in
                if suffix_eligible fctx newe && Summary.add_edge prev_sfx newe then
                  changed := true)
        | Summary.Add ->
            Summary.iter_edges
              (fun (pe : Summary.edge) ->
                if
                  Summary.is_global_only pe
                  && String.equal pe.e_dst.t_g e.e_src.t_g
                then begin
                  let newe =
                    { e with Summary.e_src = { e.e_src with Summary.t_g = pe.e_src.t_g } }
                  in
                  if Summary.add_edge prev_sfx newe then changed := true
                end)
              prev_bs)
    cur_sfx;
  !changed

(* [backtrace] lists the blocks of the current intraprocedural path, most
   recent first. The head is the terminal block: the function exit on a
   completed path, or the block where a cache hit aborted the path. *)
let relax _rctx fctx (backtrace : int list) =
  let sums = fctx.fsum in
  match backtrace with
  | [] -> ()
  | terminal :: rest ->
      if terminal = fctx.cfg.exit_ then
        (* ep's suffix summary equals its block summary *)
        (let tsfx = sfxsum sums terminal in
         Summary.iter_edges
           (fun e ->
             if suffix_eligible fctx e then ignore (Summary.add_edge tsfx e))
           (bsum sums terminal));
      let rec walk cur = function
        | [] -> ()
        | prev :: rest ->
            let changed =
              propagate fctx (bsum sums prev) (sfxsum sums prev) (sfxsum sums cur)
            in
            if changed then walk prev rest
      in
      walk terminal rest

(* ------------------------------------------------------------------ *)
(* Pending path-specific transitions                                   *)
(* ------------------------------------------------------------------ *)

(* Does the pending apply to this branch condition? Either the condition is
   (or contains at its root) the very node the pattern matched, or it tests
   the variable the call's result was assigned to. *)
let pending_applies (p : Sm.pending) (cond : Cast.expr) =
  let rec root_test (c : Cast.expr) =
    c.eid = p.p_node.Cast.eid
    ||
    match c.enode with
    | Cast.Ebinary (Cast.Ne, l, { enode = Cast.Eint 0L; _ }) -> root_test l
    | Cast.Ecast (_, e1) -> root_test e1
    | _ -> false
  in
  if root_test cond then Some false (* direct: polarity as-is *)
  else
    match p.p_on_var with
    | None -> None
    | Some x -> (
        match cond.enode with
        | Cast.Eident y when String.equal x y -> Some false
        | Cast.Ebinary (Cast.Ne, { enode = Cast.Eident y; _ }, { enode = Cast.Eint 0L; _ })
          when String.equal x y ->
            Some false
        | Cast.Ebinary (Cast.Eq, { enode = Cast.Eident y; _ }, { enode = Cast.Eint 0L; _ })
          when String.equal x y ->
            Some true (* inverted polarity *)
        | _ -> None)

let resolve_pendings rctx fctx walk ~(cond : Cast.expr option) ~taken =
  let sm = walk.sm in
  let walk = ref walk in
  let remaining = ref [] in
  List.iter
    (fun (p : Sm.pending) ->
      let applies =
        match cond with
        | None ->
            (* path end: a pending whose call result was stored but never
               branched on resolves pessimistically to the false dest; a
               pending that was never even observable (result discarded or
               an incidental non-branch match) is dropped without
               transitioning *)
            if p.p_on_var = None then `Drop else `Apply false
        | Some c -> (
            match pending_applies p c with
            | None -> `Keep
            | Some inverted -> `Apply inverted)
      in
      match applies with
      | `Drop -> ()
      | `Keep -> remaining := p :: !remaining
      | `Apply inverted ->
          let taken = match cond with None -> false | Some _ -> taken in
          let effective = if inverted then not taken else taken in
          let dest = if effective then p.p_true else p.p_false in
          let inst =
            match p.p_inst_id with
            | Some id -> Sm.find_instance sm ~id
            | None -> None
          in
          let walk', _ =
            apply_dest rctx fctx !walk ~node:(Some p.p_node) ~bindings:p.p_bindings ~inst
              dest
          in
          walk := walk')
    sm.pendings;
  sm.pendings <- List.rev !remaining;
  !walk

(* ------------------------------------------------------------------ *)
(* Interprocedural: refine / summary application / restore             *)
(* ------------------------------------------------------------------ *)

type call_setup = {
  cs_mapping : Refine.mapping;
  cs_refined : Sm.sm_inst;
  cs_saved : Sm.instance list;  (* caller-local and sleeping file-scope state *)
  cs_meta : (int, Sm.instance) Hashtbl.t;  (* refined target id -> caller instance *)
}

let refine_call rctx fctx walk (callee : Cast.fundef) (args : Cast.expr list) =
  let sm = walk.sm in
  let mapping = Refine.make_mapping ~params:callee.fparams ~args in
  let refined = Sm.initial sm.ext in
  refined.gstate <- sm.gstate;
  let saved = ref [] in
  let meta = Hashtbl.create 8 in
  let caller_scope = Refine.scope_names fctx.cfg.func in
  List.iter
    (fun (i : Sm.instance) ->
      if i.inactive then saved := i :: !saved
      else
        match
          Refine.classify_refine ~typing:rctx.sg.Supergraph.typing
            ~caller:fctx.cfg.func ~caller_scope ~callee_file:callee.ffile mapping
            i.target
        with
        | Refine.Mapped tree ->
            let i' = Sm.retargeted i ~ids:rctx.ids ~target:tree in
            Sm.add_instance refined i';
            Hashtbl.replace meta i'.Sm.target_id i;
            (* by-value (Table 2 row 1): the callee sees the state, but the
               caller's own instance is untouched at return *)
            if sm.ext.byval_restore && Refine.is_byval_root mapping tree then
              saved := i :: !saved
        | Refine.Global_pass ->
            let i' = Sm.clone_instance i in
            Sm.add_instance refined i';
            Hashtbl.replace meta i'.Sm.target_id i
        | Refine.Inactivate | Refine.Save -> saved := i :: !saved)
    sm.actives;
  { cs_mapping = mapping; cs_refined = refined; cs_saved = List.rev !saved; cs_meta = meta }

(* One tracked-object outcome of a call, pulled out of the callee's
   function summary. *)
type outcome = {
  o_tree : Cast.expr;  (* callee-scope tree *)
  o_value : string;
  o_from : int option;
      (* target id of the refined instance it transitioned from,
         None = created in the callee *)
  o_depth : int;  (* creation depth relative to the caller (ranking) *)
}

(* Partition the applicable function-summary edges into disjoint exit
   states (Section 6.3 step 5). The summary has lost cross-object path
   correlation; we build [max per-object multiplicity] exit states, object
   [j] contributing outcome [min (i, n_j - 1)] to state [i], so the
   continuation cost stays linear. *)
let apply_function_summary ~ids (sums : fsum) (cfg : Cfg.t) (refined : Sm.sm_inst) :
    (string * outcome list) list =
  let sfx = sfxsum sums cfg.entry in
  let all = Summary.edges sfx in
  if all = [] then
    (* the callee has never completed a path (e.g. recursion bottom):
       assume identity *)
    [
      ( refined.gstate,
        List.filter_map
          (fun (i : Sm.instance) ->
            if i.inactive then None
            else
              Some
                {
                  o_tree = i.target;
                  o_value = i.value;
                  o_from = Some i.target_id;
                  o_depth = 0;
                })
          refined.actives );
    ]
  else begin
    let g = refined.gstate in
    (* rendered keys: summary tuples are string-keyed (they persist) *)
    let instance_keys =
      List.filter_map
        (fun (i : Sm.instance) ->
          if i.inactive then None else Some (Sm.instance_key ids i))
        refined.actives
    in
    (* global outcomes *)
    let gouts =
      let from_global =
        List.filter_map
          (fun (e : Summary.edge) ->
            if Summary.is_global_only e && String.equal e.e_src.t_g g then
              Some e.e_dst.t_g
            else None)
          all
      in
      let outs = List.sort_uniq String.compare from_global in
      if outs = [] then [ g ] else outs
    in
    (* per-instance outcomes *)
    let inst_outs =
      List.filter_map
        (fun (i : Sm.instance) ->
          if i.inactive then None
          else begin
            let tup = Summary.tuple_of_instance ~ids ~gstate:g i in
            let outs =
              List.filter_map
                (fun (e : Summary.edge) ->
                  if e.e_kind = Summary.Transition && Summary.tuple_equal e.e_src tup
                  then
                    match e.e_dst.t_v with
                    | Some v ->
                        Some
                          {
                            o_tree = v.v_tree;
                            o_value = v.v_value;
                            o_from = Some i.target_id;
                            o_depth = v.v_depth + 1;
                          }
                    | None -> None
                  else None)
                all
            in
            (* dedup by value *)
            let outs =
              List.sort_uniq (fun a b -> String.compare a.o_value b.o_value) outs
            in
            if outs = [] then None (* stopped (or unseen) in callee: dropped *)
            else Some outs
          end)
        refined.actives
    in
    (* created objects *)
    let add_groups : (string, outcome list) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun (e : Summary.edge) ->
        if e.e_kind = Summary.Add && String.equal e.e_src.t_g g then
          match (e.e_src.t_v, e.e_dst.t_v) with
          | Some sv, Some dv when not (List.mem sv.v_key instance_keys) ->
              let prev = Option.value (Hashtbl.find_opt add_groups sv.v_key) ~default:[] in
              let out =
                {
                  o_tree = dv.v_tree;
                  o_value = dv.v_value;
                  o_from = None;
                  o_depth = dv.v_depth + 1;
                }
              in
              if not (List.exists (fun o -> String.equal o.o_value out.o_value) prev)
              then Hashtbl.replace add_groups sv.v_key (out :: prev)
          | _ -> ())
      all;
    let add_outs = Hashtbl.fold (fun _ outs acc -> List.rev outs :: acc) add_groups [] in
    let k =
      List.fold_left max 1
        (List.length gouts
        :: List.map List.length inst_outs
        @ List.map List.length add_outs)
    in
    let nth_clamped xs i = List.nth xs (min i (List.length xs - 1)) in
    List.init k (fun i ->
        let gstate = nth_clamped gouts i in
        let outs = List.map (fun outs -> nth_clamped outs i) (inst_outs @ add_outs) in
        (gstate, outs))
  end

let restore_partition rctx fctx walk0 (setup : call_setup) (callee : Cast.fundef)
    ~(callsite : Cast.expr) ((gstate, outs) : string * outcome list) : walk =
  let pre = walk0.sm in
  let sm' : Sm.sm_inst =
    {
      Sm.ext = pre.ext;
      gstate;
      actives = [];
      pendings = Sm.clone_pendings pre.pendings;
      killed_path = false;
    }
  in
  let created = ref walk0.created in
  let callee_scope = Refine.scope_names callee in
  List.iter
    (fun out ->
      match
        Refine.classify_restore ~typing:rctx.sg.Supergraph.typing ~callee
          ~callee_scope setup.cs_mapping out.o_tree
      with
      | Refine.Back_dropped -> ()
      | (Refine.Back_global | Refine.Back _) as back -> (
          let tree =
            match back with Refine.Back t -> t | _ -> out.o_tree
          in
          match out.o_from with
          | Some refined_id -> (
              match Hashtbl.find_opt setup.cs_meta refined_id with
              | Some orig ->
                  let value =
                    if
                      pre.ext.byval_restore
                      && Refine.is_byval_root setup.cs_mapping out.o_tree
                    then orig.value (* Table 2 row 1, by-value restore *)
                    else out.o_value
                  in
                  let i' = Sm.retargeted orig ~ids:rctx.ids ~target:tree ~value in
                  Sm.add_instance sm' i'
              | None ->
                  let i =
                    Sm.new_instance ~ids:rctx.ids ~target:tree ~value:out.o_value
                      ~created_at:callsite.eid ~created_loc:callsite.eloc
                      ~created_depth:(fctx.depth + out.o_depth) ()
                  in
                  Sm.add_instance sm' i;
                  created := Iset.add i.Sm.target_id !created)
          | None ->
              let i =
                Sm.new_instance ~ids:rctx.ids ~target:tree ~value:out.o_value
                  ~created_at:callsite.eid ~created_loc:callsite.eloc
                  ~created_depth:(fctx.depth + out.o_depth) ()
              in
              Sm.add_instance sm' i;
              created := Iset.add i.Sm.target_id !created))
    outs;
  (* saved caller-local state reappears; sleeping file-scope state wakes up
     if we are back in its file *)
  List.iter
    (fun (i : Sm.instance) ->
      let i = Sm.clone_instance i in
      (match Cast.idents_of_expr i.target with
      | x :: _ -> (
          match Ctyping.lookup_global_info rctx.sg.Supergraph.typing x with
          | Some (file, true) -> i.inactive <- not (String.equal file fctx.ffile)
          | _ -> ())
      | [] -> ());
      Sm.add_instance sm' i)
    setup.cs_saved;
  { sm = sm'; store = walk0.store; created = !created }

(* ------------------------------------------------------------------ *)
(* The traversal                                                       *)
(* ------------------------------------------------------------------ *)

let rec contains_call (e : Cast.expr) =
  match e.enode with
  | Cast.Ecall _ -> true
  | Cast.Eunary (_, e1)
  | Cast.Ecast (_, e1)
  | Cast.Esizeof_expr e1
  | Cast.Efield (e1, _)
  | Cast.Earrow (e1, _) ->
      contains_call e1
  | Cast.Ebinary (_, l, r)
  | Cast.Eassign (_, l, r)
  | Cast.Eindex (l, r)
  | Cast.Ecomma (l, r) ->
      contains_call l || contains_call r
  | Cast.Econd (c, t, f) -> contains_call c || contains_call t || contains_call f
  | Cast.Einit_list es -> List.exists contains_call es
  | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ | Cast.Eident _
  | Cast.Esizeof_type _ ->
      false

let call_target rctx (node : Cast.expr) =
  match node.enode with
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, args) -> (
      match Supergraph.cfg_of rctx.sg f with
      | Some cfg -> Some (f, args, cfg)
      | None -> None)
  | _ -> None

let rec traverse rctx fctx walk (backtrace : int list) (bid : int) : unit =
  rctx.st.blocks_visited <- rctx.st.blocks_visited + 1;
  let block = Cfg.block fctx.cfg bid in
  let bs = bsum fctx.fsum bid in
  let sm = walk.sm in
  let store =
    if block.havoc = [] then walk.store else Store.havoc walk.store block.havoc
  in
  (* cache check: drop instances whose tuple this block has seen; abort the
     path when nothing new remains *)
  let aborted =
    if not rctx.opts.caching then false
    else if no_instances sm then begin
      (* no instance: only the global tuple can hit *)
      rctx.st.cache_probes <- rctx.st.cache_probes + 1;
      Summary.mem_src_global bs sm.gstate
    end
    else begin
      (* sleeping (inactive) instances are never probed, so they stay in
         [fresh], in place *)
      let seen, fresh =
        List.partition
          (fun (i : Sm.instance) ->
            (not i.inactive)
            &&
            (rctx.st.cache_probes <- rctx.st.cache_probes + 1;
             Summary.mem_src_instance bs ~ids:rctx.ids ~gstate:sm.gstate i))
          sm.actives
      in
      sm.actives <- fresh;
      if List.exists (fun (i : Sm.instance) -> not i.inactive) fresh then false
      else if seen <> [] then true (* every var tuple was cached *)
      else begin
        rctx.st.cache_probes <- rctx.st.cache_probes + 1;
        Summary.mem_src_global bs sm.gstate
      end
    end
  in
  if aborted then begin
    Log.debug (fun m ->
        m "[%s] cache hit in %s at B%d" rctx.cur_ext.Sm.sm_name fctx.fname bid);
    rctx.st.cache_hits <- rctx.st.cache_hits + 1;
    rctx.st.paths_explored <- rctx.st.paths_explored + 1;
    relax rctx fctx (bid :: backtrace)
  end
  else begin
    Summary.add_src_sm bs ~ids:rctx.ids sm;
    let entry_g = sm.gstate in
    (* block-entry snapshot: (key atom, target key, entry tuple) per live
       instance, later duplicates of an atom replacing earlier ones (the
       [Smap.add] overwrite this array replaces); [||] when no instance
       is live, which is the common case and allocates nothing *)
    let snapshot =
      if List.for_all (fun (i : Sm.instance) -> i.inactive) sm.actives then [||]
      else begin
        let entry_ga = Summary.key_atom bs entry_g in
        let entries =
          List.filter_map
            (fun (i : Sm.instance) ->
              if i.inactive then None
              else
                let atom = Summary.instance_key_atom rctx.ids rctx.intern i in
                Some
                  {
                    se_atom = atom;
                    se_key = Sm.instance_key rctx.ids i;
                    se_id =
                      Summary.tuple_id_atoms bs ~g:entry_ga ~vkey:atom
                        ~vval:(Summary.key_atom bs i.value);
                    se_tup =
                      Summary.tuple_of_instance ~ids:rctx.ids ~gstate:entry_g
                        ~depth_base:fctx.depth i;
                  })
            sm.actives
        in
        let seen = Hashtbl.create 8 in
        let keep =
          List.filter
            (fun se ->
              if Hashtbl.mem seen se.se_atom then false
              else begin
                Hashtbl.replace seen se.se_atom ();
                true
              end)
            (List.rev entries)
        in
        Array.of_list (List.rev keep)
      end
    in
    let walk = { walk with store; created = Iset.empty } in
    (* at the function exit node, unresolved path-specific transitions take
       their false destination before scope-end events fire *)
    let walk =
      if bid = fctx.cfg.exit_ && walk.sm.pendings <> [] then
        resolve_pendings rctx fctx walk ~cond:None ~taken:false
      else walk
    in
    (* skip-set check: when no transition of the extension could match any
       node of this block, apply_transitions is a provable no-op for every
       node event and is skipped wholesale; scope ends, fresh-variable
       kills and write handling still run *)
    let live = Dispatch.block_live_flat rctx.dsp (fctx.fbase + bid) in
    if not live then rctx.st.blocks_skipped <- rctx.st.blocks_skipped + 1;
    let evs = events_of_block rctx fctx block in
    process_events rctx fctx ~live evs 0 walk (fun walk' ->
        (* call-expression instances are ephemeral value-flow carriers:
           they must not leak into summaries or outlive their statement *)
        walk'.sm.actives <-
          List.filter
            (fun (i : Sm.instance) ->
              not (contains_call i.target))
            walk'.sm.actives;
        record_block_edges ~ids:rctx.ids ~intern:rctx.intern bs
          ~depth_base:fctx.depth ~entry_g ~snapshot walk';
        let bt = bid :: backtrace in
        if walk'.sm.killed_path then begin
          rctx.st.paths_explored <- rctx.st.paths_explored + 1;
          relax rctx fctx bt
        end
        else handle_terminator rctx fctx walk' bt block)
  end

and process_events rctx fctx ~live (evs : ev array) (i : int) walk
    (k : walk -> unit) : unit =
  if i >= Array.length evs then k walk
  else if walk.sm.killed_path then k walk
  else
    match Array.unsafe_get evs i with
    | Ev_scope_end vars ->
        let leaving =
          List.filter
            (fun (inst : Sm.instance) ->
              (not inst.inactive)
              && List.exists
                   (fun x -> List.mem x vars)
                   (Cast.idents_of_expr inst.target))
            walk.sm.actives
        in
        let walk =
          if leaving = [] then walk
          else fire_end_of_path rctx fctx walk ~instances:leaving ~global:false
        in
        process_events rctx fctx ~live evs (i + 1) walk k
    | Ev_fresh x ->
        if rctx.opts.auto_kill && walk.sm.ext.auto_kill then
          kill_mentions rctx walk ~at:(-1) x;
        let walk = { walk with store = Store.assign_unknown walk.store x } in
        process_events rctx fctx ~live evs (i + 1) walk k
    | Ev_node node ->
        rctx.st.nodes_visited <- rctx.st.nodes_visited + 1;
        charge_budget rctx;
        if rctx.kill_seen && node_annotated rctx node kill_path_tag then begin
          walk.sm.killed_path <- true;
          k walk
        end
        else begin
          let walk =
            if live then apply_transitions rctx fctx walk node
            else begin
              rctx.node_matched <- false;
              walk
            end
          in
          let matched = rctx.node_matched in
          let walk = handle_writes rctx fctx walk node in
          match call_target rctx node with
          | Some (f, args, callee_cfg)
            when rctx.opts.interproc && (not matched)
                 && fctx.depth < rctx.opts.max_call_depth ->
              follow_call rctx fctx walk node f args callee_cfg (fun walk' ->
                  process_events rctx fctx ~live evs (i + 1) walk' k)
          | _ -> process_events rctx fctx ~live evs (i + 1) walk k
        end

and follow_call rctx fctx walk (node : Cast.expr) fname args (callee_cfg : Cfg.t)
    (k : walk -> unit) : unit =
  rctx.st.calls_followed <- rctx.st.calls_followed + 1;
  Log.debug (fun m ->
      m "[%s] follow %s -> %s at %a (depth %d)" rctx.cur_ext.Sm.sm_name fctx.fname
        fname Srcloc.pp node.eloc fctx.depth);
  let callee = callee_cfg.func in
  let setup = refine_call rctx fctx walk callee args in
  let probed = read_fsum rctx callee_cfg in
  let entry_bs = bsum probed callee_cfg.entry in
  (* has the callee's entry block already seen every tuple of the refined
     state? (the probes mirror [Summary.tuples_of_sm]) *)
  let all_cached =
    let refined = setup.cs_refined in
    let any = ref false in
    let missing = ref false in
    List.iter
      (fun (i : Sm.instance) ->
        if not i.Sm.inactive then begin
          any := true;
          rctx.st.cache_probes <- rctx.st.cache_probes + 1;
          if
            not
              (Summary.mem_src_instance entry_bs ~ids:rctx.ids
                 ~gstate:refined.Sm.gstate i)
          then missing := true
        end)
      refined.Sm.actives;
    if !any then not !missing
    else begin
      rctx.st.cache_probes <- rctx.st.cache_probes + 1;
      Summary.mem_src_global entry_bs refined.Sm.gstate
    end
  in
  (* a hit reads the tables where the probe found them; a traversal
     extends this context's own, a copy if the probe read the base's *)
  let sums =
    if all_cached then begin
      rctx.st.summary_hits <- rctx.st.summary_hits + 1;
      probed
    end
    else begin
      (* analyse the callee in this (refined) state, populating its summary *)
      let callee_fctx =
        make_fctx rctx ~depth:(fctx.depth + 1) ~stack:(fname :: fctx.stack) callee_cfg
      in
      let callee_sm = Sm.clone setup.cs_refined in
      callee_sm.pendings <- [];
      (* False-path pruning stays per-function: caller-specific parameter
         constants must NOT flow into the callee, or the callee's function
         summary (keyed only by state tuples, Section 6.2) would memoise
         conclusions that are valid for one caller only. This also matches
         the published system, whose pruning was intraprocedural
         (Section 8, footnote). *)
      traverse rctx callee_fctx
        { sm = callee_sm; store = rctx.store0; created = Iset.empty }
        [] callee_cfg.entry;
      callee_fctx.fsum
    end
  in
  let partitions =
    apply_function_summary ~ids:rctx.ids sums callee_cfg setup.cs_refined
  in
  let ret_value =
    (* simple value flow: if the callee returned a tracked object, its state
       rides on the call expression so that [l = f(...)] re-attaches it to
       [l] via the synonym machinery *)
    Hashtbl.fold (fun v () _acc -> Some v) sums.rets None
  in
  List.iter
    (fun part ->
      let walk' = restore_partition rctx fctx walk setup callee ~callsite:node part in
      let walk' =
        match ret_value with
        | Some v when not (String.equal v Sm.stop_value) ->
            let i =
              Sm.new_instance ~ids:rctx.ids ~target:node ~value:v
                ~created_at:node.eid ~created_loc:node.eloc
                ~created_depth:(fctx.depth + 1) ()
            in
            Sm.add_instance walk'.sm i;
            { walk' with created = Iset.add i.Sm.target_id walk'.created }
        | _ -> walk'
      in
      (* the callee may have written through pointer arguments *)
      let store =
        List.fold_left
          (fun store (a : Cast.expr) ->
            match (strip_casts a).enode with
            | Cast.Eunary (Cast.Addrof, { enode = Cast.Eident x; _ }) ->
                Store.assign_unknown store x
            | _ -> store)
          walk'.store args
      in
      k { walk' with store })
    partitions

and handle_terminator rctx fctx walk (bt : int list) (block : Block.t) : unit =
  match block.term with
  | Block.Jump b -> traverse rctx fctx walk bt b
  | Block.Return ret ->
      (match ret with
      | Some e when not (no_instances walk.sm) ->
          let rid = Exprid.id rctx.ids (strip_casts e) in
          let sums = fctx.fsum in
          List.iter
            (fun (i : Sm.instance) ->
              if (not i.inactive) && i.target_id = rid then
                Hashtbl.replace sums.rets i.value ())
            walk.sm.actives
      | Some _ | None -> ());
      traverse rctx fctx walk bt fctx.cfg.exit_
  | Block.Exit ->
      rctx.st.paths_explored <- rctx.st.paths_explored + 1;
      let walk =
        if fctx.depth = 0 then
          fire_end_of_path rctx fctx walk
            ~instances:(List.filter (fun (i : Sm.instance) -> not i.inactive) walk.sm.actives)
            ~global:true
        else walk
      in
      ignore walk;
      relax rctx fctx bt
  | Block.Branch (cond, tdest, fdest) ->
      let verdict =
        if rctx.opts.pruning then Store.decide walk.store cond else Store.Unknown
      in
      let go taken target ~split =
        let sm' = Sm.clone walk.sm in
        if split then
          List.iter
            (fun (i : Sm.instance) -> i.conditionals <- i.conditionals + 1)
            sm'.actives;
        let store' =
          if rctx.opts.pruning then Store.assume walk.store cond taken else walk.store
        in
        let walk' = { walk with sm = sm'; store = store' } in
        let walk' = resolve_pendings rctx fctx walk' ~cond:(Some cond) ~taken in
        traverse rctx fctx walk' bt target
      in
      (match verdict with
      | Store.True ->
          rctx.st.pruned_branches <- rctx.st.pruned_branches + 1;
          go true tdest ~split:false
      | Store.False ->
          rctx.st.pruned_branches <- rctx.st.pruned_branches + 1;
          go false fdest ~split:false
      | Store.Unknown ->
          go true tdest ~split:true;
          go false fdest ~split:true)
  | Block.Switch (scrut, arms) ->
      let known = if rctx.opts.pruning then Store.eval walk.store scrut else None in
      let arms_to_take =
        match known with
        | Some v -> (
            match List.find_opt (fun (g, _) -> g = Some v) arms with
            | Some arm -> [ arm ]
            | None -> (
                match List.find_opt (fun (g, _) -> g = None) arms with
                | Some d -> [ d ]
                | None -> arms))
        | None -> arms
      in
      if List.length arms_to_take < List.length arms then
        rctx.st.pruned_branches <- rctx.st.pruned_branches + 1;
      let split = List.length arms_to_take > 1 in
      List.iter
        (fun (guard, target) ->
          let sm' = Sm.clone walk.sm in
          if split then
            List.iter
              (fun (i : Sm.instance) -> i.conditionals <- i.conditionals + 1)
              sm'.actives;
          let store' =
            match guard with
            | Some v when rctx.opts.pruning ->
                Store.assume walk.store
                  (Cast.mk_expr (Cast.Ebinary (Cast.Eq, scrut, Cast.intlit v)))
                  true
            | None when rctx.opts.pruning ->
                (* default arm: the scrutinee differs from every case guard *)
                List.fold_left
                  (fun store (g, _) ->
                    match g with
                    | Some v ->
                        Store.assume store
                          (Cast.mk_expr (Cast.Ebinary (Cast.Eq, scrut, Cast.intlit v)))
                          false
                    | None -> store)
                  walk.store arms
            | _ -> walk.store
          in
          traverse rctx fctx { walk with sm = sm'; store = store' } bt target)
        arms_to_take

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let run_root rctx (ext : Sm.t) root =
  match Supergraph.cfg_of rctx.sg root with
  | None -> ()
  | Some cfg ->
      let fctx = make_fctx rctx ~depth:0 ~stack:[ root ] cfg in
      let walk =
        { sm = Sm.initial ext; store = rctx.store0; created = Iset.empty }
      in
      traverse rctx fctx walk [] cfg.entry

(* ------------------------------------------------------------------ *)
(* Root-boundary fault containment                                     *)
(* ------------------------------------------------------------------ *)

(* A root that blows its budget (or crashes outright) must abandon ONLY
   itself: every other root's output stays byte-identical to a run that
   never had the bad root, at any [-j]. So every root runs in a context
   whose output tables are its own — a fresh per-root context, or at
   [-j 1] a frame over the run's context — and what it produced reaches
   the run only through [merge_out], in root order. A root that raises
   hands over its [degraded] note and nothing else: no reports, counters,
   annotations, traversed functions or stats, and no summaries (a
   truncated summary records source tuples whose paths never ran to
   completion, and a later root trusting it would take a cache hit that
   suppresses exactly the re-traversal that reports). *)

(* What the root-order merge reads of one root: a root context's run, or
   a stored entry decoded into the same shape. The rest of a per-root
   context — intern and id tables, the [annots_done] bitset, the dedup
   table, the store family, the summaries — dies with the task instead
   of waiting for the merge, and a root that touched little hands over a
   few words. *)
type root_out = {
  o_reports : Report.t list;  (* emission order *)
  o_counters : (string * int * int) list;
  o_annots : (int * string list) list;
      (* per node id, the tags the root added beyond its context's base,
         oldest first *)
  o_traversed : string list;
  o_stats : stats;
  o_degraded : degraded list;  (* the root's note if it raised *)
}

(* A table's entries in its iteration order. *)
let entries tbl = List.rev (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The tags [rctx] laid beyond its base, per node, oldest first. *)
let annot_fresh rctx =
  List.map
    (fun (eid, tags) -> (eid, fresh_annots ~base:rctx.annots_base eid tags))
    (entries rctx.annots)

(* The root boundary: run one root in [w] under its budget, catching
   budget exhaustion and arbitrary crashes (a checker action raising, a
   stack overflow on a pathological CFG) alike. A healthy root returns
   what it produced; one that raised calls [on_fault] and returns only
   its note. *)
let run_contained ~on_fault w (ext : Sm.t) root =
  reset_budget w;
  match run_root w ext root with
  | () ->
      {
        o_reports = Report.reports w.collector;
        o_counters = List.map (fun (rule, (e, c)) -> (rule, e, c)) (entries w.counters);
        o_annots = annot_fresh w;
        o_traversed = List.map fst (entries w.traversed);
        o_stats = w.st;
        o_degraded = [];
      }
  | exception e ->
      let reason =
        match e with
        | Budget_exceeded r -> r
        | e -> "uncaught exception: " ^ Printexc.to_string e
      in
      on_fault ();
      {
        o_reports = [];
        o_counters = [];
        o_annots = [];
        o_traversed = [];
        o_stats = new_stats ();
        o_degraded = [ { d_root = root; d_reason = reason } ];
      }

let add_stats (acc : stats) (s : stats) =
  acc.blocks_visited <- acc.blocks_visited + s.blocks_visited;
  acc.nodes_visited <- acc.nodes_visited + s.nodes_visited;
  acc.cache_hits <- acc.cache_hits + s.cache_hits;
  acc.paths_explored <- acc.paths_explored + s.paths_explored;
  acc.calls_followed <- acc.calls_followed + s.calls_followed;
  acc.summary_hits <- acc.summary_hits + s.summary_hits;
  acc.pruned_branches <- acc.pruned_branches + s.pruned_branches;
  acc.transitions_fired <- acc.transitions_fired + s.transitions_fired;
  acc.instances_created <- acc.instances_created + s.instances_created;
  acc.cache_probes <- acc.cache_probes + s.cache_probes;
  acc.intern_atoms <- acc.intern_atoms + s.intern_atoms;
  acc.intern_tuples <- acc.intern_tuples + s.intern_tuples;
  acc.match_attempts <- acc.match_attempts + s.match_attempts;
  acc.index_hits <- acc.index_hits + s.index_hits;
  acc.blocks_skipped <- acc.blocks_skipped + s.blocks_skipped;
  acc.sched_steals <- acc.sched_steals + s.sched_steals;
  acc.worker_alloc_bytes <- acc.worker_alloc_bytes + s.worker_alloc_bytes

(* Fold one root's output into [base]: reports deduplicated by their
   identity key through [dedup] (the first in root order wins), counters
   and stats summed, tags laid with [touched] hearing of every node whose
   tags change, and a degraded root's note recorded. *)
let merge_out ?(touched = ignore) ~dedup base o =
  List.iter
    (fun r ->
      let key = report_key r in
      if not (Hashtbl.mem dedup key) then begin
        Hashtbl.replace dedup key ();
        Report.emit base.collector r
      end)
    o.o_reports;
  List.iter
    (fun (rule, e, c) ->
      let e0, c0 = Option.value (Hashtbl.find_opt base.counters rule) ~default:(0, 0) in
      Hashtbl.replace base.counters rule (e0 + e, c0 + c))
    o.o_counters;
  List.iter (fun (eid, tags) -> if add_annots base eid tags then touched eid) o.o_annots;
  List.iter (fun f -> Hashtbl.replace base.traversed f ()) o.o_traversed;
  add_stats base.st o.o_stats;
  List.iter (fun d -> base.degraded_roots <- d :: base.degraded_roots) o.o_degraded

(* Installing an extension in a context compiles its dispatch tables;
   [cur_ext] and [dsp] must stay in lockstep, so this is the only way
   either is assigned. *)
let set_extension rctx (ext : Sm.t) =
  rctx.cur_ext <- ext;
  rctx.dsp <- Dispatch.compile ~sg:rctx.sg ext

(* The sequential driver runs each root in a frame over the run's context
   [rctx]: its own collector, counters, dedup, traversed set and stats, a
   tag delta over [rctx.annots] and a summary delta over [rctx.fsums],
   and everything else (interner, id resolver, store family, dispatch,
   first-visit bitset) shared. Each frame is merged before the next root
   starts, so a root sees the tags and reuses the summaries of every root
   before it, exactly as if all of them wrote into [rctx]. A frame whose
   root raised leaves [rctx] as it was, but for the first-visit bitset,
   which is cleared: the bits it set guard tags that were dropped, and
   laying a terminator's tags again is idempotent. *)
let frame rctx =
  let annots = Hashtbl.create 16 in
  {
    rctx with
    collector = Report.new_collector ();
    counters = Hashtbl.create 16;
    annots_base = rctx.annots;
    annots;
    annots_lookup = lookup_annot ~delta:annots ~base:rctx.annots;
    fsums_base = rctx.fsums;
    fsums = Hashtbl.create 16;
    dedup = Hashtbl.create 16;
    traversed = Hashtbl.create 16;
    st = new_stats ();
  }

(* A function's summary tables serve every later root that reaches the
   function, and are worth keeping only that long: [release] (from
   {!Callgraph.release_schedule}, computed once per run) lists, per root,
   the functions whose last reader it is, and their tables are dropped —
   handed to [on_release] first — as soon as that root's frame is merged.
   That is exact. Only [get_fsum] and [read_fsum] read [fsums], and a
   root's traversal enters only functions of its callgraph closure
   ([call_target] follows only [Ecall (Eident f)] calls, each of which
   [Callgraph.build] records as an edge), so no released table is read
   again, and the last root leaves the table empty for the next
   extension. [dedup] is the run's merge-time report dedup. *)
let run_extension ?on_release ~release ~dedup rctx (ext : Sm.t) =
  set_extension rctx ext;
  let roots = Supergraph.roots rctx.sg in
  Log.debug (fun m ->
      m "running extension %s over roots: %s" ext.Sm.sm_name
        (String.concat ", " roots));
  let clear_done () = Bytes.fill rctx.annots_done 0 (Bytes.length rctx.annots_done) '\000' in
  List.iteri
    (fun i root ->
      let w = frame rctx in
      let o = run_contained ~on_fault:clear_done w ext root in
      (* a healthy frame's tables replace the ones it copied *)
      if o.o_degraded = [] then Hashtbl.iter (Hashtbl.replace rctx.fsums) w.fsums;
      merge_out ~dedup rctx o;
      List.iter
        (fun f ->
          match Hashtbl.find_opt rctx.fsums f with
          | None -> ()
          | Some s ->
              Hashtbl.remove rctx.fsums f;
              Option.iter (fun k -> k f s) on_release)
        release.(i))
    roots;
  assert (Hashtbl.length rctx.fsums = 0)

let collect_result rctx =
  rctx.st.functions_traversed <- Hashtbl.length rctx.traversed;
  (* fold in this context's own intern tables, which its frames share;
     per-root contexts already contributed theirs through [add_stats] *)
  rctx.st.intern_atoms <- rctx.st.intern_atoms + Intern.n_atoms rctx.intern;
  rctx.st.intern_tuples <- rctx.st.intern_tuples + Intern.n_tuples rctx.intern;
  {
    reports = Report.reports rctx.collector;
    counters =
      List.sort
        (fun (a, _, _) (b, _, _) -> String.compare a b)
        (Hashtbl.fold (fun rule (e, c) acc -> (rule, e, c) :: acc) rctx.counters []);
    stats = rctx.st;
    degraded = List.rev rctx.degraded_roots;
  }

(* ------------------------------------------------------------------ *)
(* The per-root driver                                                 *)
(* ------------------------------------------------------------------ *)

(* Per-root traversals are independent monotone computations over the
   shared, immutable supergraph — the only cross-root coupling in the
   sequential engine is through caches (function summaries, block src
   tuples) that trade repeated work for nothing observable. So every run
   other than uncached [-j 1] gives each root a fresh [rctx] and folds
   the outputs back in root order, which makes the output independent of
   how the pool schedules roots onto domains, and of whether a root was
   computed or replayed from the store. *)

(* Run one root in a fresh context on a pool domain. Its intern-table
   sizes and, when it ran off the [caller]'s domain, its allocation are
   stamped into its stats so the root-order merge can fold them like any
   other counter. *)
let run_worker ~caller base (ext : Sm.t) root =
  let alloc0 = Gc.allocated_bytes () in
  let w =
    new_rctx_in ~options:base.opts ~annots_base:base.annots
      ~kill_seen:base.kill_seen ~ext ~dsp:base.dsp base.sg
  in
  let o = run_contained ~on_fault:ignore w ext root in
  o.o_stats.intern_atoms <- Intern.n_atoms w.intern;
  o.o_stats.intern_tuples <- Intern.n_tuples w.intern;
  if Domain.self () <> caller then
    o.o_stats.worker_alloc_bytes <- int_of_float (Gc.allocated_bytes () -. alloc0);
  o

(* The per-root driver, for [ext] (already installed in [base]): every
   root without a [replayed] output runs in its own context on the pool,
   in root order; [on_computed] hears of each computed output before the
   merge touches [base]; then replayed and computed outputs alike are
   folded into [base] in root order. Each root's output is independent
   of every other root's and of the domain that ran it, so the merge is
   byte-identical at any [jobs]. The dedup table is fresh per extension
   rather than one per run as in the sequential driver — report identity
   keys embed the checker name, so the observable result is the same. *)
let run_roots ?touched ?(on_computed = fun _ _ -> ()) ~pool base
    (ext : Sm.t) (replayed : root_out option array) =
  let roots = Array.of_list (Supergraph.roots base.sg) in
  let todo =
    Array.of_list
      (List.filter
         (fun i -> Option.is_none replayed.(i))
         (List.init (Array.length roots) Fun.id))
  in
  Log.debug (fun m ->
      m "extension %s: %d/%d roots to compute on %d domains" ext.Sm.sm_name
        (Array.length todo) (Array.length roots) (Pool.jobs pool));
  (* [base] is read-only while the pool runs. *)
  let caller = Domain.self () in
  let computed, sched =
    Pool.sched pool (Array.length todo) (fun ~worker:_ j ->
        run_worker ~caller base ext roots.(todo.(j)))
  in
  Array.iteri
    (fun j r -> match r with Ok o -> on_computed todo.(j) o | Error _ -> ())
    computed;
  let dedup = Hashtbl.create 64 in
  let next = ref 0 in
  Array.iteri
    (fun i root ->
      let out =
        match replayed.(i) with
        | Some o -> Ok o
        | None ->
            incr next;
            computed.(!next - 1)
      in
      match out with
      | Ok o -> merge_out ?touched ~dedup base o
      | Error e ->
          (* the task failed outside the root boundary (worker setup) —
             degrade this root, keep the rest *)
          base.degraded_roots <-
            { d_root = root; d_reason = "worker failed: " ^ Printexc.to_string e }
            :: base.degraded_roots)
    roots;
  base.st.sched_steals <- base.st.sched_steals + sched.Pool.stolen

(* ------------------------------------------------------------------ *)
(* Persistent-cache execution                                          *)
(* ------------------------------------------------------------------ *)

(* The cached mode is the per-root driver with a store: every root is an
   independent computation in a private rctx, merged in root order. That
   equivalence is what lets a warm run replay a stored per-root result
   verbatim — a stored entry becomes the same [root_out] a worker
   returns, and the merge cannot tell the two apart. Cached function
   summaries are deliberately
   NOT seeded into live output traversals: a seeded summary would take
   summary hits that suppress exactly the re-traversals that emit reports,
   so the warm output would stop being byte-identical to the cold run.

   Invalidation is two-level, with early cutoff (the Shake/Salsa
   discipline). Each function has a persisted entry keyed by a digest of
   its OWN body, the file-scope declarations, its callees' summary
   CONTENT hashes, and the annotation state its closure can observe. The
   content hash digests what the function's analysis actually produces: a
   canonical traversal from the function's entry under the extension's
   initial state, recorded as summary tables + reports + counter and
   annotation deltas. A warm run recomputes edited functions bottom-up
   (callgraph height order, callees seeded from their canonical tables);
   when an edit leaves a function's canonical result byte-identical, its
   content hash is unchanged, so every caller's key — which folds content,
   not body — still validates and the edit stops propagating right there.
   Root replay entries key on the content hashes of the root's transitive
   closure, so a root whose closure absorbed the edit replays verbatim.

   The canonical traversal is a DIGEST, never an output path: reports
   always come from stored root entries (recorded from real worker runs)
   or fresh worker runs, which keeps warm output byte-identical by the
   same argument as before. The cutoff boundary is the standard
   summary-based trade: the canonical run observes callees from the
   extension's initial entry state, so a behaviour difference visible
   only under a caller-specific state that canonical summaries happen to
   cover can in principle escape the content hash. Any body edit still
   flips the edited function's own key (body hash), so the edited
   function itself always recomputes. *)

(* Bump whenever engine or builtin-checker semantics change in a way that
   can alter analysis output. The digest below is folded into every
   extension key, so a stamp change orphans results computed by older
   builds instead of silently replaying them — the store's format version
   only guards the entry encoding, not what the engine computed. A change
   to how entry keys are built ({!Summary_store.key}) needs no bump: no
   key of the old scheme can equal one of the new, so every old entry
   probes stale, is never replayed, and is rewritten in place. *)
let analysis_version = "xgcc-analysis-5"

let options_digest (o : options) =
  (* budgets are part of the digest: a budget-limited run can legitimately
     produce fewer reports, so its cache entries must not be replayed by
     an unlimited run (or vice versa) *)
  Printf.sprintf "%s c%b p%b i%b k%b s%b d%d m%d n%d t%g" analysis_version
    o.caching o.pruning o.interproc o.auto_kill o.synonyms o.max_call_depth
    o.max_instances o.max_nodes_per_root o.timeout_per_root

let stats_to_list (s : stats) =
  [
    s.blocks_visited; s.nodes_visited; s.cache_hits; s.paths_explored;
    s.calls_followed; s.summary_hits; s.pruned_branches; s.transitions_fired;
    s.instances_created;
  ]

let stats_of_list l =
  let s = new_stats () in
  (match l with
  | [ b; n; ch; p; cf; sh; pb; tf; ic ] ->
      s.blocks_visited <- b;
      s.nodes_visited <- n;
      s.cache_hits <- ch;
      s.paths_explored <- p;
      s.calls_followed <- cf;
      s.summary_hits <- sh;
      s.pruned_branches <- pb;
      s.transitions_fired <- tf;
      s.instances_created <- ic
  | _ -> ());
  s

(* The tags [annots] lays on nodes of the program, each with its node's
   position, sorted by position (see {!Annot_pos}: node ids are not
   stable across runs, so persisted deltas are positional and
   re-resolved against the current program on replay). Tags on nodes
   outside the program (per-rctx synthesised nodes, e.g. declaration
   initialisers) are dropped — their ids are meaningless to other
   contexts anyway. *)
let positioned ~ix annots =
  List.sort
    (fun ((a : Annot_pos.pos), _, _) ((b : Annot_pos.pos), _, _) ->
      compare
        (a.loc.file, a.loc.line, a.loc.col, a.printed, a.def, a.occ)
        (b.loc.file, b.loc.line, b.loc.col, b.printed, b.def, b.occ))
    (List.filter_map
       (fun (eid, tags) -> Option.map (fun p -> (p, eid, tags)) (Annot_pos.position ix eid))
       annots)

(* The stored form of a [positioned] delta. *)
let annot_delta positioned =
  List.map
    (fun ((p : Annot_pos.pos), _, tags) -> (p.loc, p.printed, p.def, p.occ, tags))
    positioned

(* A stored delta against the current program, or [None] when some
   position no longer resolves: the entry was written over a program
   this key cannot tell apart from the current one (e.g. by a build
   whose printer spelt a literal differently), so it must not replay. *)
let resolve_annots ~ix annots =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (loc, printed, def, occ, tags) :: rest -> (
        match Annot_pos.resolve ix loc ~printed ~def ~occ with
        | None -> None
        | Some eid -> go ((eid, tags) :: acc) rest)
  in
  go [] annots

(* A replayed root's output: what the merge reads of a stored entry whose
   delta resolved to [annots] against the current program. *)
let replay_out (e : Summary_store.root_entry) annots =
  {
    o_reports = e.r_reports;
    o_counters = e.r_counters;
    o_annots = annots;
    o_traversed = e.r_traversed;
    o_stats = stats_of_list e.r_stats;
    o_degraded = [];
  }

(* What the keys of every extension share, computed once per cached run. *)
type fn_probe = {
  pr_fn : string;
  pr_body : Fingerprint.t;
  pr_prefix : string;  (* body hash ^ declarations hash *)
  pr_closure : string list;
  pr_callees : string list;  (* the closure less the function itself *)
}

(* [heights] holds every function's height, [None] when its closure
   touches a cycle: such a function is never probed, and its content
   hash stays its body hash. [fns] holds the probe entries built so far,
   each built on first use. *)
type key_plan = {
  decls_hash : Fingerprint.t;
  heights : (string, int option) Hashtbl.t;
  fns : (string, fn_probe) Hashtbl.t;
}

(* Analysis output depends on more than function bodies: typedefs,
   struct/union layouts, enum constants, prototypes and global-variable
   declarations all feed the typing environment (and file-scope statics
   drive sleep/wake partitioning), yet none of them appear in any Gfun
   body. Hash every non-function global into every cache key so a
   declaration-level edit invalidates cached entries too. *)
let decls_hash sg =
  let b = Wire.writer () in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function Cast.Gfun _ -> () | g -> Cast_io.global_to_bin b g)
        tu.tu_globals)
    sg.Supergraph.tunits;
  Fingerprint.of_string ~salt:Cast_io.cache_version (Wire.contents b)

let body_of sg f =
  match Supergraph.body_hash sg f with Some h -> h | None -> Fingerprint.of_string f

(* [f]'s probe entry. A function that is not dirty keeps the entry it was
   given last: its body is the same, and so are its closure and the
   declarations hash. *)
let plan_entry plan sg f =
  match Hashtbl.find plan.fns f with
  | p -> p
  | exception Not_found ->
      let body = body_of sg f in
      let cl = Callgraph.closure sg.Supergraph.callgraph f in
      let p =
        {
          pr_fn = f;
          pr_body = body;
          pr_prefix = body ^ plan.decls_hash;
          pr_closure = cl;
          pr_callees = List.filter (fun g -> not (String.equal g f)) cl;
        }
      in
      Hashtbl.replace plan.fns f p;
      p

(* The last pass's plan brought up to [sg], in place, under the same
   declarations hash: the heights of [dirty] functions are recomputed and
   their entries dropped (the next use rebuilds them), and [removed] ones
   are dropped. Every other function keeps its height and entry, since no
   member of its closure is dirty. A first pass builds its plan this way
   from an empty one, with every function dirty. *)
let update_plan plan sg ~dirty ~removed =
  let heights =
    Callgraph.acyclic_heights sg.Supergraph.callgraph ~known:(fun f ->
        if Hashtbl.mem dirty f then None else Some (Hashtbl.find plan.heights f))
  in
  let fresh = Hashtbl.fold (fun f () acc -> (f, heights f) :: acc) dirty [] in
  List.iter
    (fun f ->
      Hashtbl.remove plan.heights f;
      Hashtbl.remove plan.fns f)
    removed;
  List.iter
    (fun (f, h) ->
      Hashtbl.replace plan.heights f h;
      Hashtbl.remove plan.fns f)
    fresh

(* The acyclic functions among [names] bottom-up, by (height, name):
   every callee's content hash exists before any caller's key needs it.
   Cycle members are never probed, and no acyclic function's closure
   holds one, so no probe waits on a cycle member's content. *)
let probe_order plan sg names =
  List.filter_map (fun f -> Option.map (fun h -> (h, f)) (Hashtbl.find plan.heights f)) names
  |> List.sort (fun (h, f) (h', f') ->
         match Int.compare h h' with 0 -> String.compare f f' | c -> c)
  |> List.map (fun (_, f) -> plan_entry plan sg f)

(* A function's canonical tables, the seeds of recomputed callers. *)
type canon = (Summary.t array * Summary.t array * string list) option Lazy.t

let no_canon : canon = Lazy.from_val None

let canon_of_hit h : canon =
  lazy
    (Option.map
       (fun (e : Summary_store.fn_entry) -> (e.f_bs, e.f_sfx, e.f_rets))
       (Summary_store.hit_entry h))

(* Early cutoff needs the canonical traversal to terminate and to be
   timing-independent, so it requires the summary caches on and per-root
   budgets off; otherwise entries degrade to body-hash keying (any edit
   invalidates transitive callers — the pre-cutoff behaviour), and no
   function is probed. *)
let cutoff_on (o : options) =
  o.caching && o.max_nodes_per_root = 0 && o.timeout_per_root = 0.

(* What the last pass left of one root: its merged output in replay
   form; a valid slot of the root pack, when the last pass is a carry
   file's; or nothing (it degraded, its task failed, or it was no root
   then). *)
type kept = Merged of root_out | In_pack | No_slot

(* What a cached run decides at one extension, for the next pass to
   trust: the annotation-group hashes at the boundary, every function's
   content hash and canonical tables, the probed functions whose
   canonical run raised, and what each root left. A first pass starts
   from an empty record with every function and root dirty; a daemon's
   next pass updates the last one in place ("What a pass carries"
   below). A carry file's record holds no content hash, canonical table
   or root output: those of a function or root that is not dirty are its
   pack slot's, which [d_stamps] vouches for. *)
type decided = {
  mutable d_misc : Fingerprint.t;
  d_groups : (string, Fingerprint.t) Hashtbl.t;
  mutable d_rehashed : int;  (* groups the boundary's refresh re-hashed *)
  d_content : (string, Fingerprint.t) Hashtbl.t;
  d_canon : (string, canon) Hashtbl.t;
  mutable d_raised : string list;
  mutable d_roots : kept array;  (* per root, in root order *)
  mutable d_stamps : string * string;
      (* the stamps of the summary and root packs the record's slots are
         in ({!Summary_store.stamp}); [""] when unknown *)
}

(* [probes] are the functions to probe, in [probe_order]. Every other
   function's content hash and canonical tables are in [x], or, for a
   carry file's, in its summary slot (its body hash when it is never
   probed). A root whose [root_dirty] bit is clear merges what it kept
   in [x.d_roots]: its output, or its slot's entry when the stored delta
   resolves. Every other root is loaded or computed, and what it merged
   replaces its slot there. [x.d_raised] becomes the probed functions
   whose canonical run raised. *)
let run_extension_cached ~pool ~store ~ext_key ~plan ~ix ~groups ~probes ~root_dirty x base
    (ext : Sm.t) =
  set_extension base ext;
  let sst = Summary_store.stats store in
  let cutoff = cutoff_on base.opts in
  (* Content hashes start at the body hashes: cycle members — neither
     probed nor stored — stay pinned there, as does every function when
     the cutoff is off. A stored entry's summaries stay encoded in
     [d_canon] until a caller needs them: usually none does, as only
     edited closures recompute. *)
  let content_of g =
    match Hashtbl.find x.d_content g with
    | c -> c
    | exception Not_found ->
        let c, canon =
          match
            if cutoff && Option.is_some (Hashtbl.find plan.heights g) then
              Summary_store.find_fn store ~ext:ext_key ~fname:g
            else None
          with
          | Some h -> (Summary_store.hit_content h, canon_of_hit h)
          | None -> (body_of base.sg g, no_canon)
        in
        Hashtbl.replace x.d_content g c;
        Hashtbl.replace x.d_canon g canon;
        c
  in
  let canon_of g =
    ignore (content_of g);
    Lazy.force (Hashtbl.find x.d_canon g)
  in
  let unchanged : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  x.d_raised <- [];
  (* The annotation component of a key is the hashes of the groups its
     closure can observe ({!Annot_pos}), as of this extension's boundary. *)
  let misc = Annot_pos.misc_hash groups in
  let key prefix closure contents =
    Summary_store.key ~prefix ~misc
      ~groups:
        (List.filter_map
           (fun d -> Option.map (fun h -> (d, h)) (Annot_pos.group_hash groups d))
           closure)
      ~contents:(List.map (fun g -> (g, content_of g)) contents)
  in
  (* Canonical recomputation: traverse [f] alone from its entry under the
     extension's initial state, callees seeded from their canonical
     tables (summary hits make the pass cheap and make the result a
     function of callee CONTENT, which is exactly what the key folds).
     Runs in a scratch context — a digest computation, never an output
     path. Returns the canonical tables plus the content hash of
     everything observable: tables, returned states, reports, counter
     deltas, and the annotation delta. *)
  let compute_canonical f callees =
    match Supergraph.cfg_of base.sg f with
    | None -> None
    | Some (cfg : Cfg.t) -> (
        let scratch =
          new_rctx_in ~options:base.opts ~ids:base.ids ~store0:base.store0
            ~annots_base:base.annots ~kill_seen:base.kill_seen
            ~ext:base.cur_ext ~dsp:base.dsp base.sg
        in
        List.iter
          (fun g ->
            match (canon_of g, Supergraph.cfg_of base.sg g) with
            | Some (gbs, gsfx, grets), Some gcfg ->
                let rets = Hashtbl.create (List.length grets + 1) in
                List.iter (fun k -> Hashtbl.replace rets k ()) grets;
                merge_fsum_into
                  (get_fsum scratch gcfg)
                  {
                    f_it = scratch.intern;
                    bs = Array.map Option.some gbs;
                    sfx = Array.map Option.some gsfx;
                    rets;
                  }
            | _ -> ())
          callees;
        match
          let fctx = make_fctx scratch ~depth:0 ~stack:[ f ] cfg in
          traverse scratch fctx
            {
              sm = Sm.initial scratch.cur_ext;
              store = scratch.store0;
              created = Iset.empty;
            }
            [] cfg.entry
        with
        | exception _ -> None
        | () ->
            let s = get_fsum scratch cfg in
            let bs = densify scratch.intern s.bs in
            let sfx = densify scratch.intern s.sfx in
            let rets =
              List.sort String.compare
                (Hashtbl.fold (fun k () acc -> k :: acc) s.rets [])
            in
            let b = Wire.writer () in
            Wire.int b (Array.length bs);
            Array.iter (Summary.to_bin b) bs;
            Array.iter (Summary.to_bin b) sfx;
            Wire.list b Wire.string rets;
            Wire.list b Report.to_bin (Report.reports scratch.collector);
            Wire.list b Summary_store.counter_to_bin
              (List.sort compare
                 (Hashtbl.fold (fun rule (e, c) acc -> (rule, e, c) :: acc) scratch.counters []));
            Wire.list b Summary_store.annot_to_bin
              (annot_delta (positioned ~ix (annot_fresh scratch)));
            Some
              (bs, sfx, rets, Fingerprint.of_string ~salt:"canon-1" (Wire.contents b)))
  in
  if cutoff then
    List.iter
      (fun { pr_fn = f; pr_body; pr_prefix; pr_closure; pr_callees = callees } ->
        let key = key pr_prefix pr_closure callees in
        match Summary_store.probe_fn store ~ext:ext_key ~fname:f ~key with
        | Summary_store.Hit h ->
            Hashtbl.replace x.d_content f (Summary_store.hit_content h);
            Hashtbl.replace x.d_canon f (canon_of_hit h)
        | (Summary_store.Stale _ | Summary_store.Absent) as p -> (
            sst.Summary_store.fns_recomputed <-
              sst.Summary_store.fns_recomputed + 1;
            match compute_canonical f callees with
            | None ->
                (* no slot to trust: it stays an unprobed function *)
                Hashtbl.replace x.d_content f pr_body;
                Hashtbl.replace x.d_canon f no_canon;
                x.d_raised <- f :: x.d_raised
            | Some (bs, sfx, rets, c) ->
                Hashtbl.replace x.d_content f c;
                Hashtbl.replace x.d_canon f (Lazy.from_val (Some (bs, sfx, rets)));
                (match p with
                | Summary_store.Stale old when String.equal old c ->
                    (* the cutoff: recomputation reproduced the stored
                       content, so callers' keys still validate *)
                    sst.Summary_store.sums_unchanged <-
                      sst.Summary_store.sums_unchanged + 1;
                    Hashtbl.replace unchanged f ()
                | _ -> ());
                Summary_store.store_fn store ~ext:ext_key ~fname:f ~key
                  ~content:c ~bs ~sfx ~rets))
      probes;
  let roots = Array.of_list (Supergraph.roots base.sg) in
  let keys = Array.make (Array.length roots) None in
  let replayed =
    Array.mapi
      (fun i r ->
        let kept =
          if root_dirty.(i) then None
          else
            match x.d_roots.(i) with
            | Merged o -> Some o
            | In_pack ->
                (* the entry the load would replay, resolved as it would
                   resolve it: a delta that no longer resolves makes the
                   root dirty *)
                Option.bind (Summary_store.find_root store ~ext:ext_key ~root:r)
                  (fun (e : Summary_store.root_entry) ->
                    Option.map (replay_out e) (resolve_annots ~ix e.r_annots))
            | No_slot -> None
        in
        match kept with
        | Some _ ->
            (* its key and slot are the last pass's, so a load would
               replay this very output: it counts as one *)
            sst.Summary_store.roots_replayed <- sst.Summary_store.roots_replayed + 1;
            sst.Summary_store.roots_reused <- sst.Summary_store.roots_reused + 1;
            kept
        | None ->
            let closure = (plan_entry plan base.sg r).pr_closure in
            let k = key plan.decls_hash closure closure in
            keys.(i) <- Some k;
            let annots = ref [] in
            let resolves (e : Summary_store.root_entry) =
              match resolve_annots ~ix e.r_annots with
              | Some a ->
                  annots := a;
                  true
              | None -> false
            in
            let o =
              Option.map
                (fun e ->
                  if List.exists (Hashtbl.mem unchanged) closure then
                    sst.Summary_store.roots_salvaged <-
                      sst.Summary_store.roots_salvaged + 1;
                  replay_out e !annots)
                (Summary_store.load_root ~valid:resolves store ~ext:ext_key ~root:r ~key:k)
            in
            x.d_roots.(i) <- (match o with Some o -> Merged o | None -> No_slot);
            o)
      roots
  in
  (* A computed root's entry is stored before the merge, skipping roots
     that blew their budget (or crashed) and handed over only their note:
     an empty entry would replay as "this root is clean" on the next warm
     run. *)
  let store_computed i o =
    if Summary_store.persist store && o.o_degraded = [] then begin
      let key = Option.get keys.(i) in
      let pos = positioned ~ix o.o_annots in
      let e =
        {
          Summary_store.r_root = roots.(i);
          r_key = Summary_store.digest store key;
          r_reports = o.o_reports;
          r_counters =
            List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) o.o_counters;
          r_annots = annot_delta pos;
          r_traversed = List.sort String.compare o.o_traversed;
          r_stats = stats_to_list o.o_stats;
        }
      in
      Summary_store.store_root store ~ext:ext_key ~key e;
      x.d_roots.(i) <-
        Merged (replay_out e (List.map (fun (_, eid, tags) -> (eid, tags)) pos))
    end
  in
  (* the merge is the only writer of [base.annots] in a cached run: every
     node whose tags it changes is re-hashed at the next boundary *)
  run_roots ~touched:(Annot_pos.touch groups) ~on_computed:store_computed ~pool
    base ext replayed;
  Summary_store.flush store

(* ------------------------------------------------------------------ *)
(* What a pass carries                                                 *)
(* ------------------------------------------------------------------ *)

(* A daemon re-checks an edit of the program it checked last, over the
   same memory store, so most of what the last pass decided still holds.
   It keeps the pass's key plan and each extension's [decided]. The next
   pass computes which functions the edit can reach (their keys may have
   changed) and probes only those; a root outside that set merges what
   it kept as the load it stands for. A [--cache-dir] run does the same
   over the carry file the run before it left beside the packs. INTERNALS
   "What a pass carries" argues why every skipped probe and load would
   have hit. *)

(* How the dirty rule tells the last pass's functions: a daemon's last
   supergraph and callgraph, whose unchanged definitions are physically
   this pass's; or a carry file's record of each function's defining
   unit (its identity, {!Cast_io.ast_fingerprint}) and callee list. *)
type since =
  | Last_pass of (string, Cfg.t) Hashtbl.t * Callgraph.t
  | Carry_file of (string, Fingerprint.t * string list) Hashtbl.t

type carried = {
  l_store : Summary_store.t;
  l_since : since;
  l_plan : key_plan;
  l_roots : string array;
  l_exts : decided array;
}

type carry = {
  mutable last : carried option;
  units : (string * Fingerprint.t) array option;
      (* a carry file's: this run's units (path, identity), in input
         order *)
  mutable read : Digest.t;  (* the payload read, not written back unchanged *)
}

let carry () = { last = None; units = None; read = "" }

(* Add [f] and every transitive caller of it to [dirty]. *)
let rec add_callers cg dirty f =
  if not (Hashtbl.mem dirty f) then begin
    Hashtbl.replace dirty f ();
    List.iter (add_callers cg dirty) (Callgraph.callers cg f)
  end

(* Each function's defining unit, by identity: the unit of the definition
   [Supergraph.build] keeps, the first in input order. *)
let defining_units sg units =
  if Array.length units <> List.length sg.Supergraph.tunits then
    invalid_arg "Engine.run: the carry's units are not the program's";
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gfun fd when not (Hashtbl.mem tbl fd.Cast.fname) ->
              Hashtbl.replace tbl fd.Cast.fname (snd units.(i))
          | _ -> ())
        tu.tu_globals)
    sg.Supergraph.tunits;
  tbl

(* The functions whose keys the edit can have changed at every extension,
   closed over callers: a definition that is new or changed — not
   physically the last pass's, or defined by a unit whose identity is
   not the recorded one — and one whose callee list changed
   ([Callgraph.callees] lists only defined functions, so defining,
   deleting or renaming a function elsewhere changes a caller whose body
   did not; while the names stay the same, an unchanged body calls the
   same functions). A changed declarations hash is checked by the
   caller: it changes every key. Also returns the last pass's functions
   that are gone. [units] are a carry file's run's defining units. *)
let pass_dirty l sg ~units =
  let cg = sg.Supergraph.callgraph in
  let n, was, changed, callees_then =
    match l.l_since with
    | Last_pass (cfgs, cg') ->
        ( Hashtbl.length cfgs,
          Hashtbl.mem cfgs,
          (fun f (cfg : Cfg.t) -> (Hashtbl.find cfgs f).func != cfg.func),
          Callgraph.callees cg' )
    | Carry_file fns ->
        let units = Option.get units in
        ( Hashtbl.length fns,
          Hashtbl.mem fns,
          (fun f _ -> not (String.equal (fst (Hashtbl.find fns f)) (Hashtbl.find units f))),
          fun f -> match Hashtbl.find_opt fns f with Some (_, c) -> c | None -> [] )
  in
  let dirty = Hashtbl.create 64 in
  let both = ref 0 in
  Hashtbl.iter
    (fun f cfg ->
      if was f then begin
        incr both;
        if changed f cfg then add_callers cg dirty f
      end
      else add_callers cg dirty f)
    sg.Supergraph.cfgs;
  if !both = n && !both = Hashtbl.length sg.Supergraph.cfgs then (dirty, [])
  else begin
    Hashtbl.iter
      (fun f _ ->
        if not (List.equal String.equal (callees_then f) (Callgraph.callees cg f)) then
          add_callers cg dirty f)
      sg.Supergraph.cfgs;
    ( dirty,
      List.filter
        (fun f -> not (Hashtbl.mem sg.Supergraph.cfgs f))
        (Hashtbl.fold (fun f _ acc -> f :: acc) l.l_plan.heights []) )
  end

(* Bring [tbl] to the group hashes of this boundary, returning the
   definitions whose hash is not the one [tbl] held: the last pass's at
   the same boundary. *)
let regroup groups tbl =
  let changed = ref [] and n = ref 0 in
  Annot_pos.fold_groups groups
    (fun d h () ->
      incr n;
      match Hashtbl.find_opt tbl d with
      | Some h' when String.equal h h' -> ()
      | _ ->
          changed := d :: !changed;
          Hashtbl.replace tbl d h)
    ();
  if Hashtbl.length tbl > !n then
    Hashtbl.filter_map_inplace
      (fun d h ->
        match Annot_pos.group_hash groups d with
        | Some _ -> Some h
        | None ->
            changed := d :: !changed;
            None)
      tbl;
  !changed

(* One pool per run: its helpers are spawned here, once, and serve every
   extension. Callout registration mutates a global table, so it is
   forced before any helper exists rather than raced on first lookup. *)
let with_run_pool ~jobs f =
  Callout.install_builtins ();
  Pool.with_pool ~jobs f

let run_cached ?options ?observe ?carry ~jobs store sg exts =
  let rctx = new_rctx ?options sg in
  let cg = sg.Supergraph.callgraph in
  let roots = Array.of_list (Supergraph.roots sg) in
  let decls_hash = decls_hash sg in
  (* a carry file's run: each function's defining unit *)
  let units =
    match carry with
    | Some { units = Some u; _ } -> Some (defining_units sg u)
    | _ -> None
  in
  (* The last pass's decisions leave the carry before anything runs, so a
     run that raises leaves nothing behind for the next one to trust. A
     changed declarations hash changes every key. *)
  let last =
    match carry with
    | None -> None
    | Some c -> (
        let l = c.last in
        c.last <- None;
        match l with
        | Some l
          when l.l_store == store
               && Array.length l.l_exts = List.length exts
               && String.equal l.l_plan.decls_hash decls_hash ->
            Some l
        | _ -> None)
  in
  (* [dirty0]: the functions the edit can reach at every extension; with
     no last pass to trust, every function, over an empty plan *)
  let all () =
    let d = Hashtbl.create 64 in
    List.iter (fun f -> Hashtbl.replace d f ()) (Callgraph.functions cg);
    d
  in
  let dirty0, removed, plan =
    match last with
    | None ->
        (all (), [], { decls_hash; heights = Hashtbl.create 64; fns = Hashtbl.create 64 })
    | Some l ->
        let d, removed = pass_dirty l sg ~units in
        (d, removed, l.l_plan)
  in
  update_plan plan sg ~dirty:dirty0 ~removed;
  (* What the last pass left of this pass's roots, by position: the same
     array when the roots are the same. *)
  let old_roots =
    match last with
    | Some l
      when Array.length l.l_roots <> Array.length roots
           || not (Array.for_all2 String.equal l.l_roots roots) ->
        let at = Hashtbl.create 64 in
        Array.iteri (fun j r -> Hashtbl.replace at r j) l.l_roots;
        fun (x : decided) ->
          Array.map
            (fun r ->
              match Hashtbl.find_opt at r with Some j -> x.d_roots.(j) | None -> No_slot)
            roots
    | _ -> fun (x : decided) -> x.d_roots
  in
  (* what a dirty set asks of an extension: which roots it holds, the
     functions to probe, in order, and those no probe visits, which start
     over from their body hash *)
  let cutoff = cutoff_on rctx.opts in
  let work d =
    let names = Hashtbl.fold (fun f () acc -> f :: acc) d [] in
    ( Array.map (Hashtbl.mem d) roots,
      probe_order plan sg names,
      List.filter
        (fun f -> not (cutoff && Option.is_some (Hashtbl.find plan.heights f)))
        names )
  in
  let work0 = lazy (work dirty0) and everything = lazy (work (all ())) in
  (* A carry file's slots are trusted only while their pack's stamp is
     the recorded one: the root pack's always, the summary pack's when
     anything is dirty here (then a key reads clean callees' content). *)
  let stamps_hold ext (x : decided) (root_dirty, probes, _) =
    match last with
    | Some { l_since = Carry_file _; _ } ->
        String.equal (Summary_store.stamp store ~ext ~sums:false) (snd x.d_stamps)
        && ((not (cutoff && (probes <> [] || Array.exists Fun.id root_dirty)))
           || String.equal (Summary_store.stamp store ~ext ~sums:true) (fst x.d_stamps))
    | _ -> true
  in
  (* positions (kept with the supergraph, so a daemon's next pass reuses
     those of unchanged definitions) and annotation-group hashes, kept
     for the whole run: each merge reports the nodes it re-tags, and each
     boundary re-hashes only their groups *)
  let ix = Supergraph.positions sg in
  let groups =
    Annot_pos.groups ix ~is_group:(Callgraph.is_defined cg) rctx.annots
  in
  let groups_differed = ref false in
  let decided =
    with_run_pool ~jobs (fun pool ->
        List.mapi
          (fun i ext ->
            (* An extension holds every store entry it decodes until its
               merge ends, and they all die then. Emptying the minor heap
               at the boundary lets the next extension's entries die
               young: on a warm 12-file run, promoted words fall from ~21M
               to ~0.7M. *)
            Gc.minor ();
            let rehashed = Annot_pos.refresh groups in
            Option.iter (fun f -> f (Annot_pos.current groups) rctx.annots) observe;
            let misc = Annot_pos.misc_hash groups in
            let ext_key = Summary_store.ext_key store i in
            (* What this extension decides for the next pass: the last
               pass's, updated in place, or an empty record. *)
            let x =
              match last with
              | Some l ->
                  let x = l.l_exts.(i) in
                  x.d_roots <- old_roots x;
                  x
              | None ->
                  {
                    d_misc = misc;
                    d_groups = Hashtbl.create 64;
                    d_rehashed = 0;
                    d_content = Hashtbl.create 64;
                    d_canon = Hashtbl.create 64;
                    d_raised = [];
                    d_roots = Array.make (Array.length roots) No_slot;
                    d_stamps = ("", "");
                  }
            in
            (* The groups whose hash differs from the last pass's at this
               boundary. None can when neither pass re-hashed a group here
               and none differed at the last boundary; then the carried
               hashes are this boundary's too. A run given no carry keeps
               no hashes: it has no last pass to compare them with and no
               next pass to hand them to. *)
            let changed =
              if
                Option.is_none carry
                || (rehashed = 0 && x.d_rehashed = 0 && not !groups_differed)
              then []
              else regroup groups x.d_groups
            in
            x.d_rehashed <- rehashed;
            groups_differed := changed <> [];
            (* the functions and roots the edit can reach here: a changed
               misc hash reaches all of them *)
            let root_dirty, probes, unprobed =
              let w =
                if not (String.equal x.d_misc misc) then Lazy.force everything
                else
                  match
                    List.filter
                      (fun f -> (not (Hashtbl.mem dirty0 f)) && Callgraph.is_defined cg f)
                      (changed @ x.d_raised)
                  with
                  | [] -> Lazy.force work0
                  | seeds ->
                      let d = Hashtbl.copy dirty0 in
                      List.iter (add_callers cg d) seeds;
                      work d
              in
              if stamps_hold ext_key x w then w else Lazy.force everything
            in
            x.d_misc <- misc;
            List.iter
              (fun f ->
                Hashtbl.remove x.d_content f;
                Hashtbl.remove x.d_canon f)
              removed;
            List.iter
              (fun f ->
                Hashtbl.replace x.d_content f (body_of sg f);
                Hashtbl.replace x.d_canon f no_canon)
              unprobed;
            run_extension_cached ~pool ~store ~ext_key ~plan ~ix ~groups ~probes ~root_dirty x
              rctx ext;
            (* A run that hands its decisions on keeps them past the
               extension; a run without a carry would otherwise hold every
               extension's tables and root outputs until it ends. A carry
               file's keeps only what the packs do not hold, and the
               stamps its slots are trusted by: a pack this extension
               neither read nor wrote keeps the recorded one. *)
            match carry with
            | None -> None
            | Some { units = None; _ } -> Some x
            | Some { units = Some _; _ } ->
                let stamp ~sums old =
                  Option.value (Summary_store.flushed_stamp store ~ext:ext_key ~sums) ~default:old
                in
                x.d_stamps <- (stamp ~sums:true (fst x.d_stamps), stamp ~sums:false (snd x.d_stamps));
                Hashtbl.reset x.d_content;
                Hashtbl.reset x.d_canon;
                x.d_roots <- Array.map (function Merged _ -> In_pack | k -> k) x.d_roots;
                Some x)
          exts)
  in
  Option.iter
    (fun c ->
      let l_since =
        match units with
        | None -> Last_pass (sg.Supergraph.cfgs, cg)
        | Some units ->
            Hashtbl.reset plan.fns;
            let fns = Hashtbl.create 64 in
            List.iter
              (fun f -> Hashtbl.replace fns f (Hashtbl.find units f, Callgraph.callees cg f))
              (Callgraph.functions cg);
            Carry_file fns
      in
      c.last <-
        Some
          {
            l_store = store;
            l_since;
            l_plan = plan;
            l_roots = roots;
            l_exts = Array.of_list (List.filter_map Fun.id decided);
          })
    carry;
  collect_result rctx

(* ------------------------------------------------------------------ *)
(* The carry file                                                      *)
(* ------------------------------------------------------------------ *)

(* The payload of [DIR/carry] ({!Summary_store.read_carry}): a format
   tag, the extension keys, the declarations hash, the units (path,
   identity) in input order, the functions by name (defining unit, callee
   list and height, functions as indices into this list), the roots in
   root order, and per extension its misc hash, how many groups its
   boundary re-hashed, its group hashes as a change to the previous
   extension's (most boundaries re-hash none), the functions whose
   canonical run raised, one byte per root ('1' when it left a valid
   slot), and its two pack stamps. *)
let carry_format = "xgcc-carry-1"

let encode_carry (l : carried) units =
  match l.l_since with
  | Last_pass _ -> None
  | Carry_file fns ->
      let names = List.sort String.compare (Hashtbl.fold (fun f _ acc -> f :: acc) fns []) in
      let index = Hashtbl.create 64 in
      List.iteri (fun i f -> Hashtbl.replace index f i) names;
      let unit_index = Hashtbl.create 16 in
      Array.iteri
        (fun i (_, fp) -> if not (Hashtbl.mem unit_index fp) then Hashtbl.replace unit_index fp i)
        units;
      let b = Wire.writer () in
      let fn b f = Wire.int b (Hashtbl.find index f) in
      let fns_in b l = Wire.list b fn (List.filter (Hashtbl.mem index) l) in
      Wire.string b carry_format;
      Wire.list b Wire.string (Summary_store.ext_keys l.l_store);
      Wire.string b l.l_plan.decls_hash;
      Wire.list b
        (fun b (path, id) ->
          Wire.string b path;
          Wire.string b id)
        (Array.to_list units);
      Wire.list b
        (fun b f ->
          let u, callees = Hashtbl.find fns f in
          Wire.string b f;
          Wire.int b (Hashtbl.find unit_index u);
          fns_in b callees;
          Wire.option b Wire.int (Hashtbl.find l.l_plan.heights f))
        names;
      fns_in b (Array.to_list l.l_roots);
      let prev = ref (Hashtbl.create 1) in
      Wire.list b
        (fun b x ->
          let changed =
            Hashtbl.fold
              (fun d h acc ->
                match (Hashtbl.find_opt !prev d, Hashtbl.find_opt index d) with
                | Some h', _ when String.equal h h' -> acc
                | _, Some i -> (i, h) :: acc
                | _, None -> acc)
              x.d_groups []
          and gone =
            Hashtbl.fold
              (fun d _ acc ->
                match Hashtbl.find_opt index d with
                | Some i when not (Hashtbl.mem x.d_groups d) -> i :: acc
                | _ -> acc)
              !prev []
          in
          prev := x.d_groups;
          Wire.string b x.d_misc;
          Wire.int b x.d_rehashed;
          Wire.list b
            (fun b (i, h) ->
              Wire.int b i;
              Wire.string b h)
            (List.sort (fun (i, _) (j, _) -> Int.compare i j) changed);
          Wire.list b Wire.int (List.sort Int.compare gone);
          fns_in b (List.sort String.compare x.d_raised);
          Wire.string b
            (String.init (Array.length x.d_roots) (fun i ->
                 match x.d_roots.(i) with No_slot -> '0' | Merged _ | In_pack -> '1'));
          Wire.string b (fst x.d_stamps);
          Wire.string b (snd x.d_stamps))
        (Array.to_list l.l_exts);
      Some (Wire.contents b)

(* A payload's fields, checked for shape only; raises [Wire.Corrupt]. *)
let decode_carry payload =
  let r = Wire.reader payload in
  if not (String.equal (Wire.rstring r) carry_format) then raise (Wire.Corrupt "carry format");
  let keys = Wire.rlist r Wire.rstring in
  let decls_hash = Wire.rstring r in
  let units =
    Array.of_list
      (Wire.rlist r (fun r ->
           let path = Wire.rstring r in
           (path, Wire.rstring r)))
  in
  let at a i = if i >= 0 && i < Array.length a then a.(i) else raise (Wire.Corrupt "index") in
  let fns =
    Array.of_list
      (Wire.rlist r (fun r ->
           let f = Wire.rstring r in
           let u = snd (at units (Wire.rint r)) in
           let callees = Wire.rlist r Wire.rint in
           (f, u, callees, Wire.roption r Wire.rint)))
  in
  let name i =
    let f, _, _, _ = at fns i in
    f
  in
  let since = Hashtbl.create (Array.length fns) and heights = Hashtbl.create (Array.length fns) in
  Array.iter
    (fun (f, u, callees, h) ->
      Hashtbl.replace since f (u, List.map name callees);
      Hashtbl.replace heights f h)
    fns;
  let roots = Array.of_list (List.map name (Wire.rlist r Wire.rint)) in
  let prev = ref (Hashtbl.create 1) in
  let exts =
    Wire.rlist r (fun r ->
        let d_misc = Wire.rstring r in
        let d_rehashed = Wire.rint r in
        let d_groups = Hashtbl.copy !prev in
        List.iter
          (fun (i, h) -> Hashtbl.replace d_groups (name i) h)
          (Wire.rlist r (fun r ->
               let i = Wire.rint r in
               (i, Wire.rstring r)));
        List.iter (fun i -> Hashtbl.remove d_groups (name i)) (Wire.rlist r Wire.rint);
        prev := d_groups;
        let d_raised = List.map name (Wire.rlist r Wire.rint) in
        let valid = Wire.rstring r in
        if String.length valid <> Array.length roots then raise (Wire.Corrupt "root count");
        let sums = Wire.rstring r in
        let root_pack = Wire.rstring r in
        {
          d_misc;
          d_groups;
          d_rehashed;
          d_content = Hashtbl.create 64;
          d_canon = Hashtbl.create 64;
          d_raised;
          d_roots = Array.init (Array.length roots) (fun i -> if valid.[i] = '1' then In_pack else No_slot);
          d_stamps = (sums, root_pack);
        })
  in
  if not (Wire.at_end r) then raise (Wire.Corrupt "trailing bytes");
  if List.compare_lengths exts keys <> 0 then raise (Wire.Corrupt "extension count");
  (keys, decls_hash, units, since, heights, roots, Array.of_list exts)

let read_carry store ~units =
  let c = { last = None; units = Some (Array.of_list units); read = "" } in
  (match Summary_store.read_carry ~dir:(Summary_store.dir store) with
  | Error _ -> ()
  | Ok payload -> (
      match decode_carry payload with
      | keys, decls_hash, _, since, heights, roots, exts
        when List.equal String.equal keys (Summary_store.ext_keys store) ->
          c.read <- Digest.string payload;
          c.last <-
            Some
              {
                l_store = store;
                l_since = Carry_file since;
                l_plan = { decls_hash; heights; fns = Hashtbl.create 64 };
                l_roots = roots;
                l_exts = exts;
              }
      | _ -> ()
      | exception (Wire.Corrupt _ | Invalid_argument _ | Failure _) -> ()));
  c

let write_carry store c =
  match (c.last, c.units) with
  | Some l, Some units when l.l_store == store ->
      Option.iter
        (fun p ->
          if not (String.equal (Digest.string p) c.read) then Summary_store.write_carry store p)
        (encode_carry l units)
  | _ -> ()

type carry_file = { cf_units : int; cf_functions : int; cf_extensions : int }

let carry_file ~dir =
  Result.bind (Summary_store.read_carry ~dir) (fun payload ->
      match decode_carry payload with
      | _, _, units, since, _, _, exts ->
          Ok
            {
              cf_units = Array.length units;
              cf_functions = Hashtbl.length since;
              cf_extensions = Array.length exts;
            }
      | exception (Wire.Corrupt msg | Invalid_argument msg | Failure msg) -> Error msg)

let run ?options ?(jobs = 1) ?cache ?carry sg exts =
  match cache with
  | Some store -> run_cached ?options ?carry ~jobs store sg exts
  | None ->
      let rctx = new_rctx ?options sg in
      if jobs > 1 then begin
        let n = List.length (Supergraph.roots sg) in
        with_run_pool ~jobs (fun pool ->
            List.iter
              (fun ext ->
                set_extension rctx ext;
                run_roots ~pool rctx ext (Array.make n None))
              exts)
      end
      else begin
        let release = Callgraph.release_schedule sg.Supergraph.callgraph in
        let dedup = Hashtbl.create 64 in
        List.iter (run_extension ~release ~dedup rctx) exts
      end;
      collect_result rctx

let run_observing_groups ?options ?(jobs = 1) ~cache ~observe sg exts =
  run_cached ?options ~observe ~jobs cache sg exts

let run_with_summaries ?options sg exts =
  let rctx = new_rctx ?options sg in
  let release = Callgraph.release_schedule sg.Supergraph.callgraph in
  let dedup = Hashtbl.create 64 in
  let per_ext =
    List.map
      (fun ext ->
        let summaries = Hashtbl.create 16 in
        run_extension ~release ~dedup rctx ext ~on_release:(fun fname (s : fsum) ->
            Hashtbl.replace summaries fname
              (densify s.f_it s.bs, densify s.f_it s.sfx));
        (ext.Sm.sm_name, summaries))
      exts
  in
  (collect_result rctx, per_ext)

(* Sections in function-name order: a table's own order follows the
   release schedule's history, which no reader can predict. *)
let pp_summary_tables sg ppf summaries =
  List.iter
    (fun (fname, (bs, sfx)) ->
      match Supergraph.cfg_of sg fname with
      | None -> ()
      | Some cfg ->
          Format.fprintf ppf "@[<v>=== %s ===@," fname;
          Array.iteri
            (fun bid (block_sum : Summary.t) ->
              let b = Cfg.block cfg bid in
              Format.fprintf ppf "@[<v 2>B%d%s:@," bid
                (if bid = cfg.Cfg.entry then " (entry)"
                 else if bid = cfg.Cfg.exit_ then " (exit)"
                 else "");
              Format.fprintf ppf "block summary:  @[%a@]@," Summary.pp block_sum;
              Format.fprintf ppf "suffix summary: @[%a@]@," Summary.pp sfx.(bid);
              List.iter (fun e -> Format.fprintf ppf "%a@," Block.pp_elem e) b.Block.elems;
              Format.fprintf ppf "%a@]@," Block.pp_terminator b.Block.term)
            bs;
          Format.fprintf ppf "@]@.")
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun f s acc -> (f, s) :: acc) summaries []))

(* Summaries are per-extension: each extension's tables print under its
   own banner (a single extension keeps the flat layout). *)
let pp_summaries sg ppf per_ext =
  match per_ext with
  | [ (_, summaries) ] -> pp_summary_tables sg ppf summaries
  | _ ->
      List.iter
        (fun (ext_name, summaries) ->
          Format.fprintf ppf "##### extension %s #####@.@." ext_name;
          pp_summary_tables sg ppf summaries)
        per_ext

let run_function ?options sg (sm : Sm.sm_inst) ~fname =
  let rctx = new_rctx ?options sg in
  set_extension rctx sm.Sm.ext;
  (match Supergraph.cfg_of sg fname with
  | None -> ()
  | Some cfg ->
      let fctx = make_fctx rctx ~depth:0 ~stack:[ fname ] cfg in
      traverse rctx fctx
        { sm = Sm.clone sm; store = rctx.store0; created = Iset.empty }
        [] cfg.entry);
  collect_result rctx

let check_source ?options ~file src exts =
  let tu = Cparse.parse_tunit ~file src in
  let sg = Supergraph.build [ tu ] in
  run ?options sg exts

let check_files ?options files exts =
  let tus = List.map Cparse.parse_tunit_file files in
  let sg = Supergraph.build tus in
  run ?options sg exts
