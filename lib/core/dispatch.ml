(* Compiled transition dispatch.

   [compile] runs once per extension per run context and precomputes
   everything [Engine.apply_transitions] used to rediscover at every node:

   - per-transition metadata ([ctr]): source kind, the pruned
     callsite-model pattern, the mentioned holes, event-kind capabilities;
   - a head-constructor discrimination index: the subject node's root
     constructor (call to a known name, or one of ~15 shapes) selects the
     subset of transitions whose pattern root could possibly match it;
   - block-level skip sets: a block whose head summary
     ({!Block_heads.of_block}) intersects no pattern-root requirement of
     the extension cannot fire anything, so the engine skips
     [apply_transitions] for all of its nodes.

   Soundness of the index rests on how {!Pattern.match_expr} treats
   roots: the subject's root constructor is compared literally against a
   non-hole pattern root (casts are only stripped at hole positions), so
   a pattern rooted in a specific constructor can only match subjects
   with that same root. Hole-rooted patterns (other than [any_fn_call])
   strip subject casts and can match anything, so they live in a wildcard
   fallback list that is appended to every bucket; callout-only patterns
   are unknowable statically and stay wildcards too. Candidate lists are
   sorted by declaration index, so first-match-wins semantics are
   bit-for-bit those of a scan over the full transition list. *)

module Sset = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Callsite modelling                                                  *)
(* ------------------------------------------------------------------ *)

(* Callsite modelling (Section 6): "the analysis does not follow calls to
   kfree because the extension matches these calls". Only call-shaped
   patterns model a call. The value of an assignment or cast chain, of a
   comma expression, and of either conditional arm can come from a call,
   so the walk looks through all of them. *)
let rec expr_shape_is_call (e : Cast.expr) =
  match e.enode with
  | Cast.Ecall _ -> true
  | Cast.Eassign (_, _, r) -> expr_shape_is_call r
  | Cast.Ecast (_, e1) -> expr_shape_is_call e1
  | Cast.Ecomma (_, r) -> expr_shape_is_call r
  | Cast.Econd (_, t, f) -> expr_shape_is_call t || expr_shape_is_call f
  | _ -> false

let rec pattern_models_call = function
  | Pattern.Pexpr e -> expr_shape_is_call e
  | Pattern.Pcallout _ -> true
  | Pattern.Pand (a, b) | Pattern.Por (a, b) ->
      pattern_models_call a || pattern_models_call b
  | Pattern.Pend_of_path | Pattern.Pnever | Pattern.Palways -> false

(* The sub-pattern the engine matches at call nodes to decide whether the
   extension models the callsite. Keeping only call-shaped disjuncts (and
   callouts, which are unknowable) means a bare hole that happens to sit
   in a disjunction with a call pattern cannot suppress following a
   pointer-valued call it incidentally matches — the same guarantee the
   engine always gave bare-hole patterns standing alone. A conjunction is
   kept whole: both conjuncts must hold anyway. *)
let rec call_model (p : Pattern.t) : Pattern.t option =
  match p with
  | Pattern.Pexpr e -> if expr_shape_is_call e then Some p else None
  | Pattern.Pcallout _ -> Some p
  | Pattern.Pand (a, b) ->
      if pattern_models_call a || pattern_models_call b then Some p else None
  | Pattern.Por (a, b) -> (
      match (call_model a, call_model b) with
      | Some a', Some b' -> Some (Pattern.Por (a', b'))
      | (Some _ as r), None | None, (Some _ as r) -> r
      | None, None -> None)
  | Pattern.Pend_of_path | Pattern.Pnever | Pattern.Palways -> None

(* ------------------------------------------------------------------ *)
(* Pattern-root head sets                                              *)
(* ------------------------------------------------------------------ *)

type headset =
  | Any
  | Heads of { mask : int; calls : Sset.t; any_call : bool }

let hs_empty = Heads { mask = 0; calls = Sset.empty; any_call = false }

let hs_shape s =
  Heads
    { mask = 1 lsl Block_heads.shape_code s; calls = Sset.empty; any_call = false }

let hs_union a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Heads a, Heads b ->
      Heads
        {
          mask = a.mask lor b.mask;
          calls = Sset.union a.calls b.calls;
          any_call = a.any_call || b.any_call;
        }

(* Set-theoretic intersection of the denoted node sets: a named call [f]
   is covered by a side either via its [calls] or via [any_call]. *)
let hs_inter a b =
  match (a, b) with
  | Any, x | x, Any -> x
  | Heads a, Heads b ->
      Heads
        {
          mask = a.mask land b.mask;
          calls =
            Sset.union
              (Sset.inter a.calls b.calls)
              (Sset.union
                 (if a.any_call then b.calls else Sset.empty)
                 (if b.any_call then a.calls else Sset.empty));
          any_call = a.any_call && b.any_call;
        }

let expr_heads holes (e : Cast.expr) =
  match e.enode with
  | Cast.Eident h -> (
      match List.assoc_opt h holes with
      | Some Holes.Any_fn_call ->
          (* matches only call subjects, any callee *)
          Heads { mask = 0; calls = Sset.empty; any_call = true }
      | Some Holes.Any_arguments ->
          (* an argument-list hole in expression position never matches *)
          hs_empty
      | Some _ ->
          (* bare hole: subject casts are stripped, so any root can match *)
          Any
      | None -> hs_shape Block_heads.Sident)
  | Cast.Ecall (pf, _) -> (
      match pf.enode with
      | Cast.Eident f when not (List.mem_assoc f holes) ->
          Heads { mask = 0; calls = Sset.singleton f; any_call = false }
      | _ ->
          (* hole or computed expression in callee position: any call *)
          Heads { mask = 0; calls = Sset.empty; any_call = true })
  | Cast.Eassign _ -> hs_shape Block_heads.Sassign
  | Cast.Eunary (Cast.Deref, _) -> hs_shape Block_heads.Sderef
  | Cast.Eunary _ -> hs_shape Block_heads.Sunary
  | Cast.Ebinary _ -> hs_shape Block_heads.Sbinary
  | Cast.Ecast _ -> hs_shape Block_heads.Scast
  | Cast.Econd _ -> hs_shape Block_heads.Scond
  | Cast.Ecomma _ -> hs_shape Block_heads.Scomma
  | Cast.Efield _ -> hs_shape Block_heads.Sfield
  | Cast.Earrow _ -> hs_shape Block_heads.Sarrow
  | Cast.Eindex _ -> hs_shape Block_heads.Sindex
  | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ ->
      hs_shape Block_heads.Slit
  | Cast.Esizeof_type _ | Cast.Esizeof_expr _ -> hs_shape Block_heads.Ssizeof
  | Cast.Einit_list _ -> hs_shape Block_heads.Sinit

let rec pattern_heads holes = function
  | Pattern.Pexpr e -> expr_heads holes e
  | Pattern.Pcallout _ | Pattern.Palways -> Any
  | Pattern.Pnever | Pattern.Pend_of_path -> hs_empty
  | Pattern.Por (a, b) -> hs_union (pattern_heads holes a) (pattern_heads holes b)
  | Pattern.Pand (a, b) -> hs_inter (pattern_heads holes a) (pattern_heads holes b)

type classified =
  | Wildcard
  | Rooted of {
      shapes : Block_heads.shape list;
      calls : string list;
      any_call : bool;
    }

let classify ~holes p =
  match pattern_heads holes p with
  | Any -> Wildcard
  | Heads { mask; calls; any_call } ->
      Rooted
        {
          shapes =
            List.filter
              (fun s -> mask land (1 lsl Block_heads.shape_code s) <> 0)
              Block_heads.all_shapes;
          calls = Sset.elements calls;
          any_call;
        }

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

type ctr = {
  c_tr : Sm.transition;
  c_src_var : string option;  (** [Src_var v] source value *)
  c_src_global : string option;  (** [Src_global g] source value *)
  c_src_global_code : int;  (** interned code of [c_src_global]; -1 = none *)
  c_call_model : Pattern.t option;
      (** pruned callsite-model pattern; [None] = does not model calls *)
  c_holes : (string * Holes.t) list;  (** holes the pattern mentions *)
  c_mentions_svar : bool;
  c_matches_node : bool;
  c_matches_eop : bool;
}

(* One candidate list plus the prescan facts [Engine.apply_transitions]
   needs before touching any transition: whether anything in the list can
   model a callsite, whether anything has a variable source, and the
   distinct global source states. Precomputing these turns the engine's
   per-node no-match prescan into three field reads and (at most) a short
   string-array scan — no closure, no refs, no per-transition loop. *)
type bucket = {
  b_trs : int array;
  b_any_model : bool;  (* some candidate has a callsite model *)
  b_has_var : bool;  (* some candidate has a Src_var source *)
  b_globals : string array;  (* distinct Src_global source states *)
  b_global_codes : int array;  (* the same states as interned codes *)
}

type t = {
  ext : Sm.t;
  sg : Supergraph.t;
  states : string array;
      (* the extension's statically known state values in declaration
         order: code 0 is [Sm.stop_value], then the start state, then
         source and destination values. Runtime [set_global] can write
         strings outside this set, so gstates remain strings at runtime
         and [state_code] resolves them by content (possibly to -1). *)
  state_codes : (string, int) Hashtbl.t;
  trs : ctr array;
  all_node : int array;
  eop_var : int array;
  eop_global : int array;
  by_call : (string, bucket) Hashtbl.t;
  generic_call : bucket;
  by_shape : bucket array;
  live : Bytes.t;
      (* per-block skip set over flat block ids ([Supergraph.flat]):
         live.(fb) = '\001' iff some transition could match some node of
         that block. Filled at compile so the whole value is immutable
         and shared read-only across worker domains. *)
}

let transitions t = t.trs
let states t = t.states

let state_code t s =
  match Hashtbl.find_opt t.state_codes s with Some c -> c | None -> -1
let all_node t = t.all_node
let eop_var t = t.eop_var
let eop_global t = t.eop_global

let merge lists = Array.of_list (List.sort_uniq Int.compare (List.concat lists))

let mk_bucket (trs : ctr array) (b_trs : int array) =
  let any_model = ref false and has_var = ref false in
  let globs = ref [] in
  Array.iter
    (fun i ->
      let c = trs.(i) in
      if c.c_call_model <> None then any_model := true;
      if c.c_src_var <> None then has_var := true;
      match c.c_src_global with
      | Some g ->
          if not (List.mem_assoc g !globs) then
            globs := (g, c.c_src_global_code) :: !globs
      | None -> ())
    b_trs;
  {
    b_trs;
    b_any_model = !any_model;
    b_has_var = !has_var;
    b_globals = Array.of_list (List.rev_map fst !globs);
    b_global_codes = Array.of_list (List.rev_map snd !globs);
  }

(* The extension's statically known state values, coded densely with
   [Sm.stop_value] reserved at 0. Sources, destinations and the start
   state are all here; only [set_global] actions can write states outside
   this set at runtime, which is why gstates stay strings in [Sm.sm_inst]
   and codes are resolved by content at the comparison boundary. *)
let collect_states (ext : Sm.t) =
  let codes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let add s =
    if not (Hashtbl.mem codes s) then begin
      Hashtbl.add codes s (Hashtbl.length codes);
      order := s :: !order
    end
  in
  add Sm.stop_value;
  add ext.Sm.start_state;
  let rec dest = function
    | Sm.To_var v | Sm.To_global v -> add v
    | Sm.On_branch (a, b) ->
        dest a;
        dest b
    | Sm.To_stop | Sm.Same -> ()
  in
  List.iter
    (fun (tr : Sm.transition) ->
      (match tr.tr_source with Sm.Src_var v -> add v | Sm.Src_global g -> add g);
      dest tr.tr_dest)
    ext.Sm.transitions;
  (Array.of_list (List.rev !order), codes)

let compile ~sg (ext : Sm.t) : t =
  let states, state_codes = collect_states ext in
  let trs =
    Array.of_list
      (List.map
         (fun (tr : Sm.transition) ->
           {
             c_tr = tr;
             c_src_var =
               (match tr.tr_source with
               | Sm.Src_var v -> Some v
               | Sm.Src_global _ -> None);
             c_src_global =
               (match tr.tr_source with
               | Sm.Src_global g -> Some g
               | Sm.Src_var _ -> None);
             c_src_global_code =
               (match tr.tr_source with
               | Sm.Src_global g -> Hashtbl.find state_codes g
               | Sm.Src_var _ -> -1);
             c_call_model = call_model tr.tr_pattern;
             c_holes = Pattern.holes_of tr.tr_pattern ext.Sm.holes;
             c_mentions_svar =
               (match ext.Sm.svar with
               | Some sv -> Pattern.mentions_hole tr.tr_pattern sv
               | None -> false);
             c_matches_node = Pattern.can_match_node tr.tr_pattern;
             c_matches_eop = Pattern.can_match_end_of_path tr.tr_pattern;
           })
         ext.Sm.transitions)
  in
  let idxs p =
    Array.to_list trs
    |> List.mapi (fun i c -> (i, c))
    |> List.filter_map (fun (i, c) -> if p c then Some i else None)
  in
  let all_node_l = idxs (fun c -> c.c_matches_node) in
  let eop_var = idxs (fun c -> c.c_matches_eop && c.c_src_var <> None) in
  let eop_global = idxs (fun c -> c.c_matches_eop && c.c_src_global <> None) in
  let fallback = ref [] in
  let any_call = ref [] in
  let named : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let shape_lists = Array.make Block_heads.n_shapes [] in
  let ext_mask = ref 0 in
  let ext_any_call = ref false in
  let ext_wild = ref false in
  let ext_calls = Hashtbl.create 8 in
  Array.iteri
    (fun i c ->
      if c.c_matches_node then
        match pattern_heads ext.Sm.holes c.c_tr.Sm.tr_pattern with
        | Any ->
            fallback := i :: !fallback;
            ext_wild := true
        | Heads { mask; calls; any_call = ac } ->
            for s = 0 to Block_heads.n_shapes - 1 do
              if mask land (1 lsl s) <> 0 then
                shape_lists.(s) <- i :: shape_lists.(s)
            done;
            ext_mask := !ext_mask lor mask;
            if ac then begin
              any_call := i :: !any_call;
              ext_any_call := true
            end;
            Sset.iter
              (fun f ->
                Hashtbl.replace ext_calls f ();
                let r =
                  match Hashtbl.find_opt named f with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.add named f r;
                      r
                in
                r := i :: !r)
              calls)
    trs;
  let generic_call = mk_bucket trs (merge [ !any_call; !fallback ]) in
  let by_call = Hashtbl.create (Hashtbl.length named) in
  Hashtbl.iter
    (fun f r ->
      Hashtbl.replace by_call f (mk_bucket trs (merge [ !r; !any_call; !fallback ])))
    named;
  let by_shape =
    Array.init Block_heads.n_shapes (fun s ->
        if s = Block_heads.shape_code Block_heads.Scall_other then generic_call
        else mk_bucket trs (merge [ shape_lists.(s); !fallback ]))
  in
  (* Per-block skip set over flat ids, filled once here so the compiled
     form never writes afterwards and can be shared read-only across
     engine worker domains (one compile per extension instead of one per
     worker context). *)
  let flat = sg.Supergraph.flat in
  let nb = flat.Flat.n_blocks in
  let live = Bytes.make nb '\000' in
  let ext_wild = !ext_wild
  and ext_mask = !ext_mask
  and ext_any_call = !ext_any_call in
  let call_bit = 1 lsl Block_heads.shape_code Block_heads.Scall_other in
  let co = flat.Flat.call_off in
  for fb = 0 to nb - 1 do
    let m = flat.Flat.head_mask.(fb) in
    let lv =
      ext_wild
      || ext_mask land m <> 0
      || (ext_any_call && (co.(fb + 1) > co.(fb) || m land call_bit <> 0))
      ||
      let rec scan i =
        i < co.(fb + 1)
        && (Hashtbl.mem ext_calls flat.Flat.call_names.(i) || scan (i + 1))
      in
      scan co.(fb)
    in
    if lv then Bytes.set live fb '\001'
  done;
  {
    ext;
    sg;
    states;
    state_codes;
    trs;
    all_node = Array.of_list all_node_l;
    eop_var = Array.of_list eop_var;
    eop_global = Array.of_list eop_global;
    by_call;
    generic_call;
    by_shape;
    live;
  }

(* Per-node, so allocation-free: no [head] constructor, no [find_opt]
   option — named calls probe [by_call] with [Not_found] as the miss
   path, everything else indexes [by_shape] by code. *)
let candidates t (node : Cast.expr) =
  match node.Cast.enode with
  | Cast.Ecall ({ enode = Cast.Eident f; _ }, _) -> (
      match Hashtbl.find t.by_call f with
      | b -> b
      | exception Not_found -> t.generic_call)
  | _ -> t.by_shape.(Block_heads.shape_code_of node)

let block_live_flat t fb = Bytes.get t.live fb = '\001'
