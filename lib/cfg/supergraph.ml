type t = {
  cfgs : (string, Cfg.t) Hashtbl.t;
  callgraph : Callgraph.t;
  typing : Ctyping.env;
  tunits : Cast.tunit list;
  flat : Flat.t;
  ids : Exprid.t;
  body_hashes : (string, Fingerprint.t Lazy.t) Hashtbl.t;
  positions : Annot_pos.t Lazy.t;
}

(* The digest of a definition's binary AST, salted with the layout
   version: the own-body part of its cache keys. *)
let hash_body (f : Cast.fundef) =
  let b = Wire.writer () in
  Cast_io.global_to_bin b (Cast.Gfun f);
  Fingerprint.of_string ~salt:Cast_io.cache_version (Wire.contents b)

let build ?prev tunits =
  (* Parser error recovery leaves [Gskipped] stubs where top-level
     definitions failed to parse. They have no body, so they contribute
     nothing to the CFG table or the callgraph — a call to a skipped name
     is an unknown call, the conservative model — but each one is
     surfaced here, where every driver path (CLI, check_files, tests)
     funnels through. *)
  List.iter
    (fun (tu : Cast.tunit) ->
      List.iter
        (function
          | Cast.Gskipped sk ->
              Diag.warnf "%s: skipped unparseable definition%s (through %s): %s"
                (Srcloc.to_string sk.Cast.sk_from)
                (match sk.Cast.sk_name with Some n -> " '" ^ n ^ "'" | None -> "")
                (Srcloc.to_string sk.Cast.sk_to)
                sk.Cast.sk_msg
          | _ -> ())
        tu.tu_globals)
    tunits;
  let funcs =
    List.concat_map
      (fun (tu : Cast.tunit) ->
        List.filter_map
          (function Cast.Gfun f -> Some f | _ -> None)
          tu.tu_globals)
      tunits
  in
  (* A program with two definitions of the same function is ill-formed, but
     multi-file runs over unrelated sources hit it in practice. Keep the
     first definition (input order, so the choice is deterministic) and warn
     with both locations; later ones are dropped from both the CFG table and
     the callgraph, so every layer sees the same single body. *)
  let seen : (string, Cast.fundef) Hashtbl.t = Hashtbl.create 64 in
  let funcs =
    List.filter
      (fun (f : Cast.fundef) ->
        match Hashtbl.find_opt seen f.fname with
        | None ->
            Hashtbl.add seen f.fname f;
            true
        | Some first ->
            (* through the uniform stderr diagnostics channel, not the Logs
               reporter: reports on stdout must stay machine-parseable and
               this warning must survive even when no reporter is set *)
            Diag.warnf "duplicate definition of %s at %s ignored (keeping %s)"
              f.fname (Srcloc.to_string f.floc)
              (Srcloc.to_string first.floc);
            false)
      funcs
  in
  (* One CFG per surviving definition, lowered once and shared by the
     name-keyed table and the flat tables below. A definition that is
     physically the previous supergraph's keeps its CFG and body hash:
     nothing writes a CFG once it is built, and an AST never changes. *)
  let carried (f : Cast.fundef) =
    match prev with
    | None -> None
    | Some p -> (
        match Hashtbl.find_opt p.cfgs f.fname with
        | Some (cfg : Cfg.t) when cfg.func == f ->
            Some (cfg, Hashtbl.find p.body_hashes f.fname)
        | _ -> None)
  in
  let cfgs = Hashtbl.create 64 in
  let body_hashes = Hashtbl.create 64 in
  let cfg_list =
    List.map
      (fun (f : Cast.fundef) ->
        let cfg, body =
          match carried f with
          | Some c -> c
          | None -> (Cfg.of_fundef f, lazy (hash_body f))
        in
        Hashtbl.replace cfgs f.fname cfg;
        Hashtbl.replace body_hashes f.fname body;
        cfg)
      funcs
  in
  let prev_positions =
    match prev with
    | Some p when Lazy.is_val p.positions -> Some (Lazy.force p.positions)
    | _ -> None
  in
  (* The flat tables are computed eagerly so the supergraph stays
     immutable once built — parallel engine workers share it across
     domains. *)
  let flat = Flat.build cfg_list in
  {
    cfgs;
    callgraph = Callgraph.build funcs;
    typing = Ctyping.of_program tunits;
    tunits;
    flat;
    (* like [flat]: computed eagerly, frozen, shared across domains — the
       hash-cons table every traversal resolves instance targets against *)
    ids = Exprid.build ~tunits ~cfgs:cfg_list;
    body_hashes;
    positions = lazy (Annot_pos.build ?prev:prev_positions tunits);
  }

let body_hash t name = Option.map Lazy.force (Hashtbl.find_opt t.body_hashes name)
let positions t = Lazy.force t.positions

let cfg_of t name = Hashtbl.find_opt t.cfgs name

let fundef_of t name =
  match Hashtbl.find_opt t.cfgs name with
  | Some cfg -> Some cfg.Cfg.func
  | None -> None

let roots t = Callgraph.roots t.callgraph

let file_of_function t name =
  Option.map (fun (f : Cast.fundef) -> f.ffile) (fundef_of t name)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a" Callgraph.pp t.callgraph;
  Hashtbl.iter (fun _ cfg -> Format.fprintf ppf "@ @ %a" Cfg.pp cfg) t.cfgs;
  Format.fprintf ppf "@]"
