type stats = {
  mutable ast_hits : int;
  mutable ast_misses : int;
  mutable fn_hits : int;
  mutable fn_stale : int;
  mutable fn_absent : int;
  mutable roots_replayed : int;
  mutable roots_reused : int;
  mutable roots_recomputed : int;
  mutable fns_recomputed : int;
  mutable sums_unchanged : int;
  mutable roots_salvaged : int;
  mutable packs_read : int;
  mutable packs_written : int;
  mutable keys_computed : int;
}

type fn_entry = {
  f_name : string;
  f_key : Fingerprint.t;
  f_content : Fingerprint.t;
  f_bs : Summary.t array;
  f_sfx : Summary.t array;
  f_rets : string list;
}

type root_entry = {
  r_root : string;
  r_key : Fingerprint.t;
  r_reports : Report.t list;
  r_counters : (string * int * int) list;
  r_annots : (Srcloc.t * string * string * int * string list) list;
  r_traversed : string list;
  r_stats : int list;
}

(* The inputs of an entry key, and its digest, computed on first use
   ([""] until then: no digest is empty). A key read back from a pack has
   no inputs ([known] false). The encoding below is injective (every
   field length-prefixed), so two keys with inputs are equal exactly when
   their inputs are. *)
type key = {
  known : bool;
  prefix : string;
  misc : Fingerprint.t;
  groups : (string * Fingerprint.t) list;
  contents : (string * Fingerprint.t) list;
  mutable digest : Fingerprint.t;
}

let cache_key k =
  let b = Wire.writer () in
  let pair b (name, h) =
    Wire.string b name;
    Wire.string b h
  in
  Wire.string b k.prefix;
  Wire.string b k.misc;
  Wire.list b pair k.groups;
  Wire.list b pair k.contents;
  Fingerprint.of_string (Wire.contents b)

let key ~prefix ~misc ~groups ~contents =
  { known = true; prefix; misc; groups; contents; digest = "" }

let key_of_digest d =
  { known = false; prefix = ""; misc = ""; groups = []; contents = []; digest = d }

let same_pairs = List.equal (fun (a, h) (b, k) -> String.equal a b && String.equal h k)

let same_inputs a b =
  String.equal a.prefix b.prefix && String.equal a.misc b.misc
  && same_pairs a.groups b.groups && same_pairs a.contents b.contents

(* One entry as the store holds it. The header (key, and for function
   entries the summary content hash) is decoded when its pack is read;
   the body stays encoded until something needs it. [frame] is the body's
   bytes inside a pack (read from disk, or written by this process);
   [value] is the decoded body, [Some] from the start for an entry stored
   by this process — so a store that never writes a pack never encodes
   anything. At least one of the two is always set. [inputs] are the
   inputs [key] was digested from, when a [memory] store knows them: set
   when the entry is stored, or when a probe with inputs matched a key
   read from a pack. *)
type 'v slot = {
  key : Fingerprint.t;
  mutable inputs : key option;
  content : Fingerprint.t;  (* "" for root entries *)
  mutable frame : (string * int * int) option;  (* source, offset, length *)
  mutable value : 'v option;
}

(* One extension's entries of one kind: the in-memory image of its pack,
   plus whether an entry changed since the pack was read or written. *)
type 'v index = { slots : (string, 'v slot) Hashtbl.t; mutable dirty : bool }

type t = {
  dir : string;
  persist_ : bool;
  memory : bool;
  ext_keys : Fingerprint.t array;
  sums : (Fingerprint.t, fn_entry index) Hashtbl.t;
  roots : (Fingerprint.t, root_entry index) Hashtbl.t;
  st : stats;
}

(* Bump on any change to the pack or entry encodings below: the version is
   salted into every extension key, so every stored entry becomes
   unreachable at once (orphaned, never misdecoded) and a cold recompute
   rebuilds the store in the new format alongside. sumstore-4: one pack
   file per (kind, extension) instead of one file per entry. *)
let store_version = "sumstore-4"

(* Every file the store writes is replaced atomically, its directory
   created on first use. *)
let write_file path write =
  Wire.mkdir_p (Filename.dirname path);
  Wire.write_file path write

let version_path dir = Filename.concat dir "VERSION"

let read_version ~dir =
  let path = version_path dir in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None

let create ~dir ?(persist = true) ?(memory = false) ~ext_keys () =
  (* Stamp the store version: entries of an older version are orphaned by
     the key salt below, and the stamp lets `cache stats` say so. *)
  if persist && read_version ~dir <> Some store_version then
    (try
       write_file (version_path dir) (fun oc ->
           output_string oc store_version;
           output_char oc '\n')
     with Sys_error _ -> ());
  {
    dir;
    persist_ = persist;
    memory;
    ext_keys = Array.of_list ext_keys;
    sums = Hashtbl.create 16;
    roots = Hashtbl.create 16;
    st =
      {
        ast_hits = 0;
        ast_misses = 0;
        fn_hits = 0;
        fn_stale = 0;
        fn_absent = 0;
        roots_replayed = 0;
        roots_reused = 0;
        roots_recomputed = 0;
        fns_recomputed = 0;
        sums_unchanged = 0;
        roots_salvaged = 0;
        packs_read = 0;
        packs_written = 0;
        keys_computed = 0;
      };
  }

let ext_keys_of ~options_digest ~sources =
  let rec go prefix = function
    | [] -> []
    | src :: rest ->
        let prefix = prefix @ [ Fingerprint.of_string src ] in
        Fingerprint.combine (Fingerprint.of_string ~salt:store_version options_digest :: prefix)
        :: go prefix rest
  in
  go [] sources

let ext_key t i = t.ext_keys.(i)

(* "Accepts writes": a memory-backed store captures results even when it
   never writes them to disk, so the engine must still hand entries over. *)
let persist t = t.persist_ || t.memory
let disk_persist t = t.persist_
let in_memory t = t.memory

let mem_entries t =
  if not t.memory then 0
  else
    let count tbl = Hashtbl.fold (fun _ idx n -> n + Hashtbl.length idx.slots) tbl 0 in
    count t.sums + count t.roots

let stats t = t.st

let reset_stats t =
  let s = t.st in
  s.ast_hits <- 0;
  s.ast_misses <- 0;
  s.fn_hits <- 0;
  s.fn_stale <- 0;
  s.fn_absent <- 0;
  s.roots_replayed <- 0;
  s.roots_reused <- 0;
  s.roots_recomputed <- 0;
  s.fns_recomputed <- 0;
  s.sums_unchanged <- 0;
  s.roots_salvaged <- 0;
  s.packs_read <- 0;
  s.packs_written <- 0;
  s.keys_computed <- 0

let digest t k =
  if String.equal k.digest "" then begin
    t.st.keys_computed <- t.st.keys_computed + 1;
    k.digest <- cache_key k
  end;
  k.digest

(* Does the slot's key equal [k]? By value when both sides know their
   inputs, else by digest. In a store that keeps its indexes across runs
   a slot whose digest matched learns [k]'s inputs, so the next probe of
   an unchanged key builds no digest; any other store drops its indexes
   at the end of the run, and keeping inputs there would only make the
   boundary collections promote them. *)
let matches t (s : _ slot) k =
  match s.inputs with
  | Some a when k.known -> same_inputs a k
  | _ ->
      let hit = String.equal s.key (digest t k) in
      if hit && t.memory && k.known && Option.is_none s.inputs then s.inputs <- Some k;
      hit

let pp_stats ppf t =
  Format.fprintf ppf
    "cache: ast %d hit / %d miss; summaries %d hit / %d stale / %d absent; roots %d replayed / %d recomputed; cutoff %d fns recomputed / %d summaries unchanged / %d roots salvaged; packs %d read / %d written"
    t.st.ast_hits t.st.ast_misses t.st.fn_hits t.st.fn_stale t.st.fn_absent
    t.st.roots_replayed t.st.roots_recomputed t.st.fns_recomputed
    t.st.sums_unchanged t.st.roots_salvaged t.st.packs_read t.st.packs_written

(* ------------------------------------------------------------------ *)
(* Entry bodies                                                        *)
(* ------------------------------------------------------------------ *)

(* A kind of entry: where its packs live, their magic, and the codec of an
   entry's body (everything but the name, key and content header). *)
type 'v kind = {
  subdir : string;
  magic : string;
  encode : Wire.writer -> 'v -> unit;
  decode : name:string -> key:Fingerprint.t -> content:Fingerprint.t -> Wire.reader -> 'v;
}

let fn_kind =
  {
    subdir = "sum";
    magic = "XGSP1\n";
    encode =
      (fun b e ->
        Wire.list b Wire.string e.f_rets;
        Wire.int b (Array.length e.f_bs);
        Array.iter (Summary.to_bin b) e.f_bs;
        Array.iter (Summary.to_bin b) e.f_sfx);
    decode =
      (fun ~name ~key ~content r ->
        let f_rets = Wire.rlist r Wire.rstring in
        let n = Wire.rint r in
        if n < 0 then raise (Wire.Corrupt "bad block count");
        let f_bs = Array.init n (fun _ -> Summary.of_bin r) in
        let f_sfx = Array.init n (fun _ -> Summary.of_bin r) in
        { f_name = name; f_key = key; f_content = content; f_bs; f_sfx; f_rets });
  }

let counter_to_bin b (rule, e, c) =
  Wire.string b rule;
  Wire.int b e;
  Wire.int b c

let counter_of_bin r =
  let rule = Wire.rstring r in
  let e = Wire.rint r in
  let c = Wire.rint r in
  (rule, e, c)

let annot_to_bin b ((loc : Srcloc.t), printed, ctx, occ, tags) =
  Wire.string b loc.file;
  Wire.int b loc.line;
  Wire.int b loc.col;
  Wire.string b printed;
  Wire.string b ctx;
  Wire.int b occ;
  Wire.list b Wire.string tags

let annot_of_bin r =
  let file = Wire.rstring r in
  let line = Wire.rint r in
  let col = Wire.rint r in
  let printed = Wire.rstring r in
  let ctx = Wire.rstring r in
  let occ = Wire.rint r in
  let tags = Wire.rlist r Wire.rstring in
  (Srcloc.make ~file ~line ~col, printed, ctx, occ, tags)

let root_kind =
  {
    subdir = "root";
    magic = "XGRP1\n";
    encode =
      (fun b e ->
        Wire.list b Report.to_bin e.r_reports;
        Wire.list b counter_to_bin e.r_counters;
        Wire.list b annot_to_bin e.r_annots;
        Wire.list b Wire.string e.r_traversed;
        Wire.list b Wire.int e.r_stats);
    decode =
      (fun ~name ~key ~content:_ r ->
        let r_reports = Wire.rlist r Report.of_bin in
        let r_counters = Wire.rlist r counter_of_bin in
        let r_annots = Wire.rlist r annot_of_bin in
        let r_traversed = Wire.rlist r Wire.rstring in
        let r_stats = Wire.rlist r Wire.rint in
        { r_root = name; r_key = key; r_reports; r_counters; r_annots; r_traversed; r_stats });
  }

(* ------------------------------------------------------------------ *)
(* Packs                                                               *)
(* ------------------------------------------------------------------ *)

(* A pack is [magic | MD5 of the payload | payload], the payload an entry
   count and then, sorted by name, one [name, key, content, body] record
   per entry (Wire strings). Sorting makes a pack's bytes a function of its
   entries alone, whatever order they were computed in. *)

let pack_suffix = ".pack"
let digest_len = 16

let pack_path t kind ext =
  Filename.concat (Filename.concat t.dir kind.subdir) (ext ^ pack_suffix)

(* The payload of a pack file whose magic and digest check out. A missing
   file, bad magic, bad digest or short read is [None]: every entry of the
   pack is then a miss. *)
let read_pack magic path =
  match Wire.read_file path with
  | exception Sys_error _ -> None
  | src ->
      let m = String.length magic in
      let hdr = m + digest_len in
      let len = String.length src - hdr in
      if
        len >= 0
        && String.starts_with ~prefix:magic src
        && String.equal (String.sub src m digest_len) (Digest.substring src hdr len)
      then Some (src, Wire.sub_reader src ~off:hdr ~len)
      else None

(* Header-only parse: names, keys and content hashes are decoded, bodies
   are recorded as slices of the pack's bytes. Raises [Wire.Corrupt]. *)
let parse_pack src r =
  let slots = Hashtbl.create 64 in
  let n = Wire.rint r in
  for _ = 1 to n do
    let name = Wire.rstring r in
    let key = Wire.rstring r in
    let content = Wire.rstring r in
    let off, len = Wire.rslice r in
    Hashtbl.replace slots name
      { key; inputs = None; content; frame = Some (src, off, len); value = None }
  done;
  if not (Wire.at_end r) then raise (Wire.Corrupt "trailing bytes after the last entry");
  slots

(* The index of one (kind, extension), read from its pack on first use. *)
let index t kind tbl ext =
  match Hashtbl.find_opt tbl ext with
  | Some idx -> idx
  | None ->
      let slots =
        match read_pack kind.magic (pack_path t kind ext) with
        | None -> Hashtbl.create 64
        | Some (src, r) -> (
            match parse_pack src r with
            | slots ->
                t.st.packs_read <- t.st.packs_read + 1;
                slots
            | exception Wire.Corrupt _ -> Hashtbl.create 64)
      in
      let idx = { slots; dirty = false } in
      Hashtbl.replace tbl ext idx;
      idx

(* Decode a slot's body on first use. Only the calling domain gets here:
   the canonical pass forces function seeds, the replay plan forces roots,
   and pool workers never touch the store. A body that does not decode is
   a miss. *)
let force kind name s =
  match (s.value, s.frame) with
  | (Some _ as v), _ -> v
  | None, None -> None
  | None, Some (src, off, len) -> (
      match
        kind.decode ~name ~key:s.key ~content:s.content (Wire.sub_reader src ~off ~len)
      with
      | v ->
          s.value <- Some v;
          s.value
      | exception (Wire.Corrupt _ | Failure _ | Invalid_argument _) -> None)

let put t kind tbl ext name ~key ~content v =
  let idx = index t kind tbl ext in
  let inputs = if t.memory && key.known then Some key else None in
  Hashtbl.replace idx.slots name
    { key = digest t key; inputs; content; frame = None; value = Some v };
  idx.dirty <- true

(* Entries read from a pack are copied as raw frames; only entries stored
   by this process are encoded. Afterwards every slot's frame points into
   the new payload, so a later rewrite (a memory store keeps its index)
   copies them too. *)
let write_pack t kind ext idx =
  let entries =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name s acc -> (name, s) :: acc) idx.slots [])
  in
  let b = Wire.writer () in
  Wire.int b (List.length entries);
  let placed =
    List.map
      (fun (name, s) ->
        Wire.string b name;
        Wire.string b s.key;
        Wire.string b s.content;
        let len =
          match s.frame with
          | Some (src, off, len) ->
              Wire.substring b src off len;
              len
          | None ->
              let body = Wire.writer () in
              kind.encode body (Option.get s.value);
              Wire.string b (Wire.contents body);
              Wire.length body
        in
        (s, Wire.length b - len, len))
      entries
  in
  let payload = Wire.contents b in
  write_file (pack_path t kind ext) (fun oc ->
      output_string oc kind.magic;
      output_string oc (Digest.string payload);
      output_string oc payload);
  t.st.packs_written <- t.st.packs_written + 1;
  List.iter (fun (s, off, len) -> s.frame <- Some (payload, off, len)) placed

let flush t =
  let go kind tbl =
    Hashtbl.iter
      (fun ext idx ->
        if idx.dirty then begin
          if t.persist_ then write_pack t kind ext idx;
          idx.dirty <- false
        end)
      tbl;
    if not t.memory then Hashtbl.reset tbl
  in
  go fn_kind t.sums;
  go root_kind t.roots

(* ------------------------------------------------------------------ *)
(* Function-summary entries                                            *)
(* ------------------------------------------------------------------ *)

type fn_hit = { h_name : string; h_slot : fn_entry slot }
type probe = Hit of fn_hit | Stale of Fingerprint.t | Absent

let hit_content h = h.h_slot.content
let hit_entry h = force fn_kind h.h_name h.h_slot

let probe_fn t ~ext ~fname ~key =
  let r =
    match Hashtbl.find_opt (index t fn_kind t.sums ext).slots fname with
    | Some s when matches t s key -> Hit { h_name = fname; h_slot = s }
    | Some s -> Stale s.content
    | None -> Absent
  in
  (match r with
  | Hit _ -> t.st.fn_hits <- t.st.fn_hits + 1
  | Stale _ -> t.st.fn_stale <- t.st.fn_stale + 1
  | Absent -> t.st.fn_absent <- t.st.fn_absent + 1);
  r

let store_fn t ~ext ~fname ~key ~content ~bs ~sfx ~rets =
  put t fn_kind t.sums ext fname ~key ~content
    {
      f_name = fname;
      f_key = digest t key;
      f_content = content;
      f_bs = bs;
      f_sfx = sfx;
      f_rets = rets;
    }

(* ------------------------------------------------------------------ *)
(* Root replay entries                                                 *)
(* ------------------------------------------------------------------ *)

let load_root ?(valid = fun _ -> true) t ~ext ~root ~key =
  let r =
    match Hashtbl.find_opt (index t root_kind t.roots ext).slots root with
    | Some s when matches t s key ->
        Option.bind (force root_kind root s) (fun e -> if valid e then Some e else None)
    | Some _ | None -> None
  in
  (match r with
  | Some _ -> t.st.roots_replayed <- t.st.roots_replayed + 1
  | None -> t.st.roots_recomputed <- t.st.roots_recomputed + 1);
  r

let store_root t ~ext ~key e = put t root_kind t.roots ext e.r_root ~key ~content:"" e

(* ------------------------------------------------------------------ *)
(* Last-run counters                                                   *)
(* ------------------------------------------------------------------ *)

(* Plain "name value" lines so `cache stats` can show the previous run's
   hit/stale/miss mix without re-running anything. *)

let last_run_fields st =
  [
    ("ast_hits", st.ast_hits);
    ("ast_misses", st.ast_misses);
    ("fn_hits", st.fn_hits);
    ("fn_stale", st.fn_stale);
    ("fn_absent", st.fn_absent);
    ("roots_replayed", st.roots_replayed);
    ("roots_recomputed", st.roots_recomputed);
    ("fns_recomputed", st.fns_recomputed);
    ("sums_unchanged", st.sums_unchanged);
    ("roots_salvaged", st.roots_salvaged);
    ("packs_read", st.packs_read);
    ("packs_written", st.packs_written);
  ]

let last_run_path dir = Filename.concat dir "last-run"

let save_last_run t =
  if t.persist_ then
    try
      write_file (last_run_path t.dir) (fun oc ->
          List.iter
            (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v)
            (last_run_fields t.st))
    with Sys_error _ -> ()

let load_last_run ~dir =
  let path = last_run_path dir in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               match String.split_on_char ' ' (input_line ic) with
               | [ k; v ] -> acc := (k, int_of_string v) :: !acc
               | _ -> ()
             done
           with End_of_file -> ());
          Some (List.rev !acc))
    with Sys_error _ | Failure _ -> None

(* ------------------------------------------------------------------ *)
(* Disk inspection and dumping (the `cache stats` / `cache dump` CLI)  *)
(* ------------------------------------------------------------------ *)

type disk_kind = {
  dk_files : int;
  dk_bytes : int;
  dk_entries : int;
  dk_tmp : int;
  dk_legacy : int;
}

type disk = { d_version : string option; d_ast : disk_kind; d_sum : disk_kind; d_root : disk_kind }

(* The entry count of a pack whose magic and digest hold, else 0. *)
let pack_entries kind path =
  match read_pack kind.magic path with
  | Some (_, r) -> ( try Wire.rint r with Wire.Corrupt _ -> 0)
  | None -> 0

(* Files under [dir/sub]: live ones (named [*suffix], [count]ed for their
   entries), temporary files a killed writer left behind, and per-entry
   [*.bin] files of sumstore-3 and earlier, which nothing reads any more. *)
let scan dir sub ~suffix ~count =
  let empty = { dk_files = 0; dk_bytes = 0; dk_entries = 0; dk_tmp = 0; dk_legacy = 0 } in
  let d = Filename.concat dir sub in
  match Sys.readdir d with
  | exception Sys_error _ -> empty
  | names ->
      Array.fold_left
        (fun acc f ->
          let path = Filename.concat d f in
          match Unix.stat path with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
              if Filename.check_suffix f ".tmp" then { acc with dk_tmp = acc.dk_tmp + 1 }
              else if Filename.check_suffix f ".bin" then
                { acc with dk_legacy = acc.dk_legacy + 1 }
              else if Filename.check_suffix f suffix then
                {
                  acc with
                  dk_files = acc.dk_files + 1;
                  dk_bytes = acc.dk_bytes + st_size;
                  dk_entries = acc.dk_entries + count path;
                }
              else acc
          | _ -> acc
          | exception Unix.Unix_error _ -> acc)
        empty names

let disk_stats ~dir =
  let packs kind = scan dir kind.subdir ~suffix:pack_suffix ~count:(pack_entries kind) in
  {
    d_version = read_version ~dir;
    d_ast = scan dir "ast" ~suffix:".mcast" ~count:(fun _ -> 1);
    d_sum = packs fn_kind;
    d_root = packs root_kind;
  }

type dump = Fn_entries of fn_entry list | Root_entries of root_entry list

let dump_pack path =
  let dump kind (src, r) =
    match parse_pack src r with
    | exception Wire.Corrupt m -> Error ("corrupt pack: " ^ m)
    | slots ->
        let names =
          List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) slots [])
        in
        let entries =
          List.filter_map (fun n -> force kind n (Hashtbl.find slots n)) names
        in
        if List.compare_lengths entries names = 0 then Ok entries
        else Error "corrupt entry body"
  in
  if not (Sys.file_exists path) then Error "no such file"
  else
    match read_pack fn_kind.magic path with
    | Some p -> Result.map (fun es -> Fn_entries es) (dump fn_kind p)
    | None -> (
        match read_pack root_kind.magic path with
        | Some p -> Result.map (fun es -> Root_entries es) (dump root_kind p)
        | None -> Error "not a summary-store pack (bad magic, bad digest or truncated)")

(* The `cache dump` rendering: one line per entry, so every separator is
   a plain string and no printer below has a break hint. *)

let pp_items ?(sep = "; ") pp =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep) pp

let pp_summary ppf s =
  let pp_edge ppf (e : Summary.edge) =
    Format.fprintf ppf "%s %a"
      (match e.e_kind with Summary.Transition -> "t" | Add -> "a")
      Summary.pp_edge e
  in
  Format.fprintf ppf "{%a | srcs %a}" (pp_items pp_edge) (Summary.edges s)
    (pp_items Format.pp_print_string) (Summary.srcs_list s)

let pp_fn_entry ppf e =
  Format.fprintf ppf "fn %s %s content %s rets [%a]" e.f_name e.f_key e.f_content
    (pp_items ~sep:" " Format.pp_print_string) e.f_rets;
  Array.iteri
    (fun i b ->
      Format.fprintf ppf " | block %d %a suffix %a" i pp_summary b pp_summary e.f_sfx.(i))
    e.f_bs

let pp_root_entry ppf e =
  let pp_counter ppf (rule, ex, c) = Format.fprintf ppf "%s %d/%d" rule ex c in
  let pp_annot ppf (loc, printed, ctx, occ, tags) =
    Format.fprintf ppf "%a %s in %s #%d {%s}" Srcloc.pp loc printed ctx occ
      (String.concat "," tags)
  in
  Format.fprintf ppf
    "root %s %s reports [%a] counters [%a] annots [%a] traversed [%a] stats [%a]"
    e.r_root e.r_key (pp_items Report.pp) e.r_reports (pp_items pp_counter) e.r_counters
    (pp_items pp_annot) e.r_annots
    (pp_items ~sep:" " Format.pp_print_string) e.r_traversed
    (pp_items ~sep:" " Format.pp_print_int) e.r_stats

let pp_dump ppf = function
  | Fn_entries es -> List.iter (Format.fprintf ppf "%a@." pp_fn_entry) es
  | Root_entries es -> List.iter (Format.fprintf ppf "%a@." pp_root_entry) es
