type pos = {
  loc : Srcloc.t;
  printed : string;
  def : string;
  occ : int;
  key : string;
}

(* A spot is one (location, definition) pair. Its nodes are ranked — and
   printed — together, the first time any of them is asked for. *)
type node = { expr : Cast.expr; spot : spot; mutable pos : pos option }
and spot = { def : string; mutable rev_nodes : node list; mutable ranked : bool }

(* What one definition name contributes: the definitions of that name, in
   traversal order (more than one for positional twins or duplicates),
   and the spots keyed by its name, which hold every node found in them. *)
type source = Body of Cast.fundef | Init of Cast.expr
type def = { sources : source list; def_spots : spot list }

type t = {
  nodes : (int, node) Hashtbl.t;
  spots : (Srcloc.t * string, spot) Hashtbl.t;
  defs : (string, def) Hashtbl.t;
}

let rec iter_expr f (e : Cast.expr) =
  f e;
  match e.enode with
  | Cast.Eunary (_, e1)
  | Cast.Ecast (_, e1)
  | Cast.Esizeof_expr e1
  | Cast.Efield (e1, _)
  | Cast.Earrow (e1, _) ->
      iter_expr f e1
  | Cast.Ebinary (_, l, r)
  | Cast.Eassign (_, l, r)
  | Cast.Eindex (l, r)
  | Cast.Ecomma (l, r) ->
      iter_expr f l;
      iter_expr f r
  | Cast.Econd (c, t, fe) ->
      iter_expr f c;
      iter_expr f t;
      iter_expr f fe
  | Cast.Ecall (fn, args) ->
      iter_expr f fn;
      List.iter (iter_expr f) args
  | Cast.Einit_list es -> List.iter (iter_expr f) es
  | Cast.Eint _ | Cast.Efloat _ | Cast.Echar _ | Cast.Estr _ | Cast.Eident _
  | Cast.Esizeof_type _ ->
      ()

let rec iter_stmt f (s : Cast.stmt) =
  match s.snode with
  | Cast.Sexpr e -> iter_expr f e
  | Cast.Sdecl ds ->
      List.iter (fun (d : Cast.decl) -> Option.iter (iter_expr f) d.dinit) ds
  | Cast.Sif (c, t, e) ->
      iter_expr f c;
      iter_stmt f t;
      Option.iter (iter_stmt f) e
  | Cast.Swhile (c, b) ->
      iter_expr f c;
      iter_stmt f b
  | Cast.Sdo (b, c) ->
      iter_stmt f b;
      iter_expr f c
  | Cast.Sfor (init, c, step, b) ->
      Option.iter (iter_stmt f) init;
      Option.iter (iter_expr f) c;
      Option.iter (iter_expr f) step;
      iter_stmt f b
  | Cast.Sreturn e -> Option.iter (iter_expr f) e
  | Cast.Sblock ss -> List.iter (iter_stmt f) ss
  | Cast.Sswitch (e, cases) ->
      iter_expr f e;
      List.iter (fun (c : Cast.case) -> List.iter (iter_stmt f) c.case_body) cases
  | Cast.Slabel (_, s1) -> iter_stmt f s1
  | Cast.Sbreak | Cast.Scontinue | Cast.Sgoto _ | Cast.Snull -> ()

let same_source a b =
  match (a, b) with
  | Body f, Body g -> f == g
  | Init e, Init e' -> e == e'
  | _ -> false

(* Record the nodes of one definition name, in traversal order. A node
   already indexed keeps its first visit. *)
let add_def ix name sources =
  let added = ref [] in
  let visit (e : Cast.expr) =
    if not (Hashtbl.mem ix.nodes e.eid) then begin
      let k = (e.eloc, name) in
      let spot =
        match Hashtbl.find_opt ix.spots k with
        | Some s -> s
        | None ->
            let s = { def = name; rev_nodes = []; ranked = false } in
            Hashtbl.add ix.spots k s;
            added := s :: !added;
            s
      in
      let n = { expr = e; spot; pos = None } in
      spot.rev_nodes <- n :: spot.rev_nodes;
      Hashtbl.add ix.nodes e.eid n
    end
  in
  List.iter
    (function Body fd -> iter_stmt visit fd.Cast.fbody | Init e -> iter_expr visit e)
    sources;
  Hashtbl.replace ix.defs name { sources; def_spots = !added }

let remove_def ix name d =
  List.iter
    (fun spot ->
      List.iter
        (fun n ->
          let eid = n.expr.Cast.eid in
          match Hashtbl.find_opt ix.nodes eid with
          | Some m when m == n -> Hashtbl.remove ix.nodes eid
          | _ -> ())
        spot.rev_nodes;
      match spot.rev_nodes with
      | n :: _ -> Hashtbl.remove ix.spots (n.expr.Cast.eloc, name)
      | [] -> ())
    d.def_spots;
  Hashtbl.remove ix.defs name

let build ?prev tunits =
  (* the definitions of each name, in traversal order *)
  let by_name : (string, source list) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let add name src =
    match Hashtbl.find_opt by_name name with
    | Some l -> Hashtbl.replace by_name name (src :: l)
    | None ->
        order := name :: !order;
        Hashtbl.add by_name name [ src ]
  in
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gfun fd -> add fd.fname (Body fd)
          | Cast.Gvar { gdecl = { dname; dinit = Some e; _ }; _ } -> add dname (Init e)
          | _ -> ())
        tu.tu_globals)
    tunits;
  let ix =
    match prev with
    | Some ix -> ix
    | None ->
        { nodes = Hashtbl.create 4096; spots = Hashtbl.create 4096; defs = Hashtbl.create 256 }
  in
  (* a name whose definitions are all physically the previous ones keeps
     its nodes and spots, ranked positions included *)
  let stale =
    Hashtbl.fold
      (fun name d acc ->
        match Hashtbl.find_opt by_name name with
        | Some l when List.equal same_source (List.rev l) d.sources -> acc
        | _ -> (name, d) :: acc)
      ix.defs []
  in
  List.iter (fun (name, d) -> remove_def ix name d) stale;
  List.iter
    (fun name ->
      if not (Hashtbl.mem ix.defs name) then
        add_def ix name (List.rev (Hashtbl.find by_name name)))
    (List.rev !order);
  ix

let rank spot =
  if not spot.ranked then begin
    spot.ranked <- true;
    let seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun n ->
        let loc = n.expr.Cast.eloc in
        let printed = Cprint.expr_to_string n.expr in
        let occ = Option.value (Hashtbl.find_opt seen printed) ~default:0 in
        Hashtbl.replace seen printed (occ + 1);
        let key =
          Printf.sprintf "%s:%d:%d|%s|%s#%d" loc.file loc.line loc.col printed
            spot.def occ
        in
        n.pos <- Some { loc; printed; def = spot.def; occ; key })
      (List.rev spot.rev_nodes)
  end

let position ix eid =
  match Hashtbl.find_opt ix.nodes eid with
  | None -> None
  | Some n ->
      rank n.spot;
      n.pos

let resolve ix loc ~printed ~def ~occ =
  match Hashtbl.find_opt ix.spots (loc, def) with
  | None -> None
  | Some spot ->
      rank spot;
      List.find_map
        (fun n ->
          match n.pos with
          | Some p when p.occ = occ && String.equal p.printed printed ->
              Some n.expr.Cast.eid
          | _ -> None)
        spot.rev_nodes

(* ------------------------------------------------------------------ *)
(* Annotation groups                                                   *)
(* ------------------------------------------------------------------ *)

type hashes = { misc : Fingerprint.t; by_def : (string * Fingerprint.t) list }

let entry (p : pos) tags = p.key ^ "=" ^ String.concat "," (List.rev tags)

let hash_entries entries =
  Fingerprint.of_string ~salt:"annot-1"
    (String.concat "\x00" (List.sort String.compare entries))

(* One group's rendered entries, by node id, and their hash. *)
type group = {
  entries : (int, string) Hashtbl.t;
  mutable hash : Fingerprint.t;
  mutable dirty : bool;
}

type groups = {
  ix : t;
  is_group : string -> bool;
  table : (int, string list) Hashtbl.t;
  by_def : (string, group) Hashtbl.t;
  misc_group : group;
  touched : (int, unit) Hashtbl.t;
}

let new_group () = { entries = Hashtbl.create 8; hash = hash_entries []; dirty = false }

let touch g eid = Hashtbl.replace g.touched eid ()

let groups ix ~is_group table =
  let g =
    {
      ix;
      is_group;
      table;
      by_def = Hashtbl.create 16;
      misc_group = new_group ();
      touched = Hashtbl.create 64;
    }
  in
  Hashtbl.iter (fun eid _ -> touch g eid) table;
  g

let refresh g =
  let dirty = ref [] in
  Hashtbl.iter
    (fun eid () ->
      match (position g.ix eid, Hashtbl.find_opt g.table eid) with
      | Some p, Some tags ->
          let grp =
            if not (g.is_group p.def) then g.misc_group
            else
              match Hashtbl.find_opt g.by_def p.def with
              | Some grp -> grp
              | None ->
                  let grp = new_group () in
                  Hashtbl.replace g.by_def p.def grp;
                  grp
          in
          Hashtbl.replace grp.entries eid (entry p tags);
          if not grp.dirty then begin
            grp.dirty <- true;
            dirty := grp :: !dirty
          end
      | _ -> ())
    g.touched;
  Hashtbl.reset g.touched;
  List.iter
    (fun grp ->
      grp.hash <- hash_entries (Hashtbl.fold (fun _ e acc -> e :: acc) grp.entries []);
      grp.dirty <- false)
    !dirty;
  List.length !dirty

let current g =
  {
    misc = g.misc_group.hash;
    by_def =
      List.sort compare
        (Hashtbl.fold (fun d grp acc -> (d, grp.hash) :: acc) g.by_def []);
  }

let misc_hash g = g.misc_group.hash
let group_hash g d = Option.map (fun grp -> grp.hash) (Hashtbl.find_opt g.by_def d)
let fold_groups g f acc = Hashtbl.fold (fun d grp acc -> f d grp.hash acc) g.by_def acc

let group_hashes ix ~is_group table =
  let g = groups ix ~is_group table in
  ignore (refresh g);
  current g
