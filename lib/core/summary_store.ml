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
   read from a pack. [base] relates the slot to its name's record in the
   first segment of the pack, which [flush] truncates back to once every
   entry is again as recorded there: [First], the slot is that record;
   [Shadows s], it replaces that record, [s]; [Unbased], the segment has
   no record of the name, or nothing will be truncated. *)
type 'v slot = {
  key : Fingerprint.t;
  mutable inputs : key option;
  content : Fingerprint.t;  (* "" for root entries *)
  mutable frame : (string * int * int) option;  (* source, offset, length *)
  mutable value : 'v option;
  mutable base : 'v base;
}

and 'v base = First | Shadows of 'v slot | Unbased

(* The pack file as an index last read or wrote it, when all of it was
   valid segments: its inode, its length, the end of its first segment,
   and the digests of its segments in file order. *)
type pack_file = { p_ino : int; p_len : int; p_first : int; p_segs : Digest.t list }

(* One extension's entries of one kind: the in-memory image of its pack,
   the names stored since the pack was read or written (newest first,
   maybe repeated), the pack file they were read from or written to, and
   that file's stamp. *)
type 'v index = {
  slots : (string, 'v slot) Hashtbl.t;
  mutable stored : string list;
  mutable file : pack_file option;
  mutable stamp : string;
}

type t = {
  dir : string;
  persist_ : bool;
  memory : bool;
  ext_keys : Fingerprint.t array;
  sums : (Fingerprint.t, fn_entry index) Hashtbl.t;
  roots : (Fingerprint.t, root_entry index) Hashtbl.t;
  flushed : (string, string) Hashtbl.t;
      (* pack path -> stamp, for each index the last [flush] held *)
  st : stats;
}

(* Bump on any change to the pack or entry encodings below: the version is
   salted into every extension key, so every stored entry becomes
   unreachable at once (orphaned, never misdecoded) and a cold recompute
   rebuilds the store in the new format alongside. sumstore-4: one pack
   file per (kind, extension) instead of one file per entry. sumstore-5:
   a pack is a log of digest-checked segments, and a write appends the
   changed entries. *)
let store_version = "sumstore-5"

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
    flushed = Hashtbl.create 4;
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
let ext_keys t = Array.to_list t.ext_keys
let dir t = t.dir

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
    "cache: ast %d hit / %d miss; summaries %d hit / %d stale / %d absent; roots %d replayed / %d recomputed; cutoff %d fns recomputed / %d summaries unchanged / %d roots salvaged; packs %d read / %d written; keys %d computed; roots %d reused"
    t.st.ast_hits t.st.ast_misses t.st.fn_hits t.st.fn_stale t.st.fn_absent
    t.st.roots_replayed t.st.roots_recomputed t.st.fns_recomputed
    t.st.sums_unchanged t.st.roots_salvaged t.st.packs_read t.st.packs_written
    t.st.keys_computed t.st.roots_reused

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
    magic = "XGSP2\n";
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
    magic = "XGRP2\n";
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

(* A pack is its magic followed by one or more segments, each
   [payload length (4 bytes, big-endian) | MD5 of the payload | payload].
   A payload is an entry count and then, sorted by name, one
   [name, key, content, body] record per entry (Wire strings). A reader
   takes the segments in order, a later record of a name replacing an
   earlier one, and stops at the first segment that is short, fails its
   digest or does not parse. A rewrite writes one segment of every entry,
   so a rewritten pack's bytes are a function of its entries alone,
   whatever order they were computed in. *)

let pack_suffix = ".pack"
let digest_len = 16
let seg_header = 4 + digest_len

let pack_path t kind ext =
  Filename.concat (Filename.concat t.dir kind.subdir) (ext ^ pack_suffix)

(* A file's bytes and inode, read through one descriptor so that the two
   agree; [None] when it cannot be read. *)
let read_pack path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      let ic = Unix.in_channel_of_descr fd in
      match
        let st = Unix.fstat fd in
        (really_input_string ic st.Unix.st_size, st.Unix.st_ino)
      with
      | pack ->
          close_in_noerr ic;
          Some pack
      | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
          close_in_noerr ic;
          None)

(* The records of one segment's payload, in order: name, key, content
   hash, and the body as an offset and length in [src]. Raises
   [Wire.Corrupt]. *)
let segment_records src ~off ~len =
  let r = Wire.sub_reader src ~off ~len in
  let n = Wire.rint r in
  if n < 0 then raise (Wire.Corrupt "bad entry count");
  let records =
    List.init n (fun _ ->
        let name = Wire.rstring r in
        let key = Wire.rstring r in
        let content = Wire.rstring r in
        let off, len = Wire.rslice r in
        (name, key, content, off, len))
  in
  if not (Wire.at_end r) then raise (Wire.Corrupt "trailing bytes after the last entry");
  records

(* The valid segments of a pack's bytes in file order, each as its end
   offset, its digest and its records, and the end of the valid prefix.
   [None] when the magic does not match. *)
let segments magic src =
  let size = String.length src in
  let rec go pos acc =
    let stop () = (List.rev acc, pos) in
    if size - pos < seg_header then stop ()
    else
      let len = Int32.to_int (String.get_int32_be src pos) land 0xffff_ffff in
      let off = pos + seg_header in
      let digest = String.sub src (pos + 4) digest_len in
      if len > size - off || not (String.equal digest (Digest.substring src off len)) then stop ()
      else
        match segment_records src ~off ~len with
        | records -> go (off + len) ((off + len, digest, records) :: acc)
        | exception Wire.Corrupt _ -> stop ()
  in
  if String.starts_with ~prefix:magic src then Some (go (String.length magic) []) else None

(* A pack's stamp: its valid segments' digests and its length ([-1] for a
   file that cannot be read). Two packs with one stamp hold the same live
   records, since a reader decodes only the valid segments. *)
let stamp_of digests ~len = Digest.string (String.concat "" digests ^ string_of_int len)

(* The base of a slot that replaces [s]. *)
let shadow s = match s.base with First -> Shadows s | b -> b

(* The index of one (kind, extension), read from its pack on first use.
   Entries of a pack whose first segment fails are all misses. *)
let index t kind tbl ext =
  match Hashtbl.find_opt tbl ext with
  | Some idx -> idx
  | None ->
      let idx =
        { slots = Hashtbl.create 64; stored = []; file = None; stamp = stamp_of [] ~len:(-1) }
      in
      (match read_pack (pack_path t kind ext) with
      | None -> ()
      | Some (src, ino) -> (
          let len = String.length src in
          match segments kind.magic src with
          | None | Some ([], _) -> idx.stamp <- stamp_of [] ~len
          | Some ((((first, _, _) :: _) as segs), valid) ->
              let digests = List.map (fun (_, d, _) -> d) segs in
              idx.stamp <- stamp_of digests ~len;
              List.iteri
                (fun i (_, _, records) ->
                  List.iter
                    (fun (name, key, content, off, len) ->
                      let base =
                        if i = 0 then First
                        else
                          match Hashtbl.find_opt idx.slots name with
                          | Some s -> shadow s
                          | None -> Unbased
                      in
                      Hashtbl.replace idx.slots name
                        {
                          key;
                          inputs = None;
                          content;
                          frame = Some (src, off, len);
                          value = None;
                          base;
                        })
                    records)
                segs;
              t.st.packs_read <- t.st.packs_read + 1;
              if valid = len then
                idx.file <- Some { p_ino = ino; p_len = valid; p_first = first; p_segs = digests }));
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
  (* only a pack that [flush] may truncate needs the base *)
  let base =
    match idx.file with
    | Some _ when t.persist_ -> (
        match Hashtbl.find_opt idx.slots name with Some s -> shadow s | None -> Unbased)
    | _ -> Unbased
  in
  Hashtbl.replace idx.slots name
    { key = digest t key; inputs; content; frame = None; value = Some v; base };
  idx.stored <- name :: idx.stored

let record_bytes ~name ~key ~content ~len =
  Wire.string_size (String.length name) + Wire.string_size (String.length key)
  + Wire.string_size (String.length content) + Wire.string_size len

(* The length of a pack of one segment holding [n] records of [records]
   bytes: what a rewrite of those entries writes. *)
let compact_len kind ~n ~records = String.length kind.magic + seg_header + Wire.int_size n + records

let same_frame a b =
  match (a, b) with
  | Some (src, off, len), Some (src', off', len') ->
      len = len'
      && ((src == src' && off = off')
         ||
         let rec go i = i = len || (src.[off + i] = src'.[off' + i] && go (i + 1)) in
         go 0)
  | _ -> false

(* Is the slot's record (key, content hash, body bytes) its name's record
   in the first segment? *)
let at_base s =
  match s.base with
  | First -> true
  | Shadows b ->
      String.equal s.key b.key && String.equal s.content b.content
      && same_frame s.frame b.frame
  | Unbased -> false

(* A segment payload of [entries], in the given order. Entries read from
   a pack are copied as raw frames; only entries stored by this process
   are encoded. Afterwards every slot's frame points into the payload, so
   a later write (a memory store keeps its index) copies them too. *)
let payload kind entries =
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
  let p = Wire.contents b in
  List.iter (fun (s, off, len) -> s.frame <- Some (p, off, len)) placed;
  p

(* A segment's header: [p]'s length and its digest [d]. *)
let segment_header p d =
  let h = Bytes.create seg_header in
  Bytes.set_int32_be h 0 (Int32.of_int (String.length p));
  Bytes.blit_string d 0 h 4 digest_len;
  Bytes.unsafe_to_string h

(* Run [f] on a descriptor of [path] opened with [flags] when the file
   is still the one [file] describes (same inode and length), and say
   whether it was and [f] succeeded (returned true). *)
let on_same_file path flags file f =
  match Unix.openfile path (Unix.O_WRONLY :: Unix.O_CLOEXEC :: flags) 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.fstat fd with
          | st when st.Unix.st_ino = file.p_ino && st.Unix.st_size = file.p_len -> (
              try f fd with Unix.Unix_error _ -> false)
          | _ -> false
          | exception Unix.Unix_error _ -> false)

(* Write one dirty index to its pack by exactly one of three rules:
   1. truncate the file to its first segment when every entry is again
      as recorded there (the revert of an edit);
   2. append one segment of the entries stored since the pack was read or
      written, when the file is still the one this index read or wrote
      and the bytes it supersedes stay at most its live bytes;
   3. otherwise rewrite the whole pack through a temp file and a rename:
      the magic, then one segment of every entry.
   A torn or foreign file (another run's rename) always takes rule 3, so
   a run never truncates or appends to a file other than the one it
   read; rule 2's bound keeps a pack at most twice its live bytes. *)
let write_pack t kind ext idx =
  let path = pack_path t kind ext in
  let truncated f stored =
    (* the stored entries first: after an edit they are the ones that
       differ *)
    List.for_all (fun (_, s) -> at_base s) stored
    && Hashtbl.fold (fun _ s all -> all && at_base s) idx.slots true
    && on_same_file path [] f (fun fd ->
           Unix.ftruncate fd f.p_first;
           true)
    && begin
         idx.file <- Some { f with p_len = f.p_first; p_segs = [ List.hd f.p_segs ] };
         true
       end
  in
  let appended f seg =
    let n, records =
      Hashtbl.fold
        (fun name s (n, records) ->
          let len = match s.frame with Some (_, _, len) -> len | None -> 0 in
          (n + 1, records + record_bytes ~name ~key:s.key ~content:s.content ~len))
        idx.slots (0, 0)
    in
    let len = f.p_len + seg_header + String.length seg in
    let live = compact_len kind ~n ~records in
    let d = Digest.string seg in
    len - live <= live
    && on_same_file path [ Unix.O_APPEND ] f (fun fd ->
           let bytes = segment_header seg d ^ seg in
           Unix.write_substring fd bytes 0 (String.length bytes) = String.length bytes)
    && begin
         idx.file <- Some { f with p_len = len; p_segs = f.p_segs @ [ d ] };
         true
       end
  in
  let rewrite () =
    let all =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun name s acc -> (name, s) :: acc) idx.slots [])
    in
    let p = payload kind all in
    let d = Digest.string p in
    let ino = ref 0 in
    write_file path (fun oc ->
        output_string oc kind.magic;
        output_string oc (segment_header p d);
        output_string oc p;
        ino := (Unix.fstat (Unix.descr_of_out_channel oc)).Unix.st_ino);
    let len = String.length kind.magic + seg_header + String.length p in
    idx.file <- Some { p_ino = !ino; p_len = len; p_first = len; p_segs = [ d ] }
  in
  (match idx.file with
  | Some f ->
      let stored =
        List.map
          (fun name -> (name, Hashtbl.find idx.slots name))
          (List.sort_uniq String.compare idx.stored)
      in
      (* encodes the stored entries: rule 1 compares their bytes *)
      let seg = payload kind stored in
      if not (truncated f stored || appended f seg) then rewrite ()
  | None -> rewrite ());
  (* after a truncation or a rewrite every entry is its first-segment
     record *)
  (match idx.file with
  | Some f ->
      if f.p_len = f.p_first then Hashtbl.iter (fun _ s -> s.base <- First) idx.slots;
      idx.stamp <- stamp_of f.p_segs ~len:f.p_len
  | None -> ());
  t.st.packs_written <- t.st.packs_written + 1

(* A store without [memory] drops its indexes here; the stamps they had
   stay readable until the next flush ({!flushed_stamp}). *)
let flush t =
  if not t.memory then Hashtbl.reset t.flushed;
  let go kind tbl =
    Hashtbl.iter
      (fun ext idx ->
        if not (List.is_empty idx.stored) then begin
          if t.persist_ then write_pack t kind ext idx;
          idx.stored <- []
        end;
        if not t.memory then Hashtbl.replace t.flushed (pack_path t kind ext) idx.stamp)
      tbl;
    if not t.memory then Hashtbl.reset tbl
  in
  go fn_kind t.sums;
  go root_kind t.roots

let stamp t ~ext ~sums =
  if sums then (index t fn_kind t.sums ext).stamp else (index t root_kind t.roots ext).stamp

let flushed_stamp t ~ext ~sums =
  Hashtbl.find_opt t.flushed
    (if sums then pack_path t fn_kind ext else pack_path t root_kind ext)

(* ------------------------------------------------------------------ *)
(* Function-summary entries                                            *)
(* ------------------------------------------------------------------ *)

type fn_hit = { h_name : string; h_slot : fn_entry slot }
type probe = Hit of fn_hit | Stale of Fingerprint.t | Absent

let hit_content h = h.h_slot.content
let hit_entry h = force fn_kind h.h_name h.h_slot

let find_fn t ~ext ~fname =
  Option.map
    (fun s -> { h_name = fname; h_slot = s })
    (Hashtbl.find_opt (index t fn_kind t.sums ext).slots fname)

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

let find_root t ~ext ~root =
  Option.bind (Hashtbl.find_opt (index t root_kind t.roots ext).slots root) (force root_kind root)

let store_root t ~ext ~key e = put t root_kind t.roots ext e.r_root ~key ~content:"" e

(* ------------------------------------------------------------------ *)
(* The carry file                                                      *)
(* ------------------------------------------------------------------ *)

(* [DIR/carry]: a magic, the MD5 of the payload, and the payload, which
   the engine encodes. *)
let carry_magic = "XGCARRY1\n"
let carry_path ~dir = Filename.concat dir "carry"

let read_carry ~dir =
  match Wire.read_file (carry_path ~dir) with
  | exception Sys_error _ -> Error "absent"
  | src ->
      let head = String.length carry_magic + digest_len in
      if not (String.starts_with ~prefix:carry_magic src) then Error "not a carry file"
      else if String.length src < head then Error "truncated"
      else
        let payload = String.sub src head (String.length src - head) in
        if String.equal (Digest.string payload) (String.sub src (String.length carry_magic) digest_len)
        then Ok payload
        else Error "bad digest"

(* A write that fails leaves the last file, which stays sound: its stamps
   describe the packs it was written with. *)
let write_carry t payload =
  if t.persist_ then
    try
      write_file (carry_path ~dir:t.dir) (fun oc ->
          output_string oc carry_magic;
          output_string oc (Digest.string payload);
          output_string oc payload)
    with Sys_error _ -> ()

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
  dk_segments : int;
  dk_superseded : int;
  dk_tmp : int;
  dk_legacy : int;
}

type disk = { d_version : string option; d_ast : disk_kind; d_sum : disk_kind; d_root : disk_kind }

(* The live record of each name in a pack's valid segments, and how many
   segments are valid; [None] when the pack cannot be read or its magic
   does not match. *)
let live_records kind path =
  Option.bind (read_pack path) (fun (src, _) ->
      Option.map
        (fun (segs, _) ->
          let live = Hashtbl.create 64 in
          List.iter
            (fun (_, _, records) ->
              List.iter (fun ((name, _, _, _, _) as r) -> Hashtbl.replace live name r) records)
            segs;
          (src, live, List.length segs))
        (segments kind.magic src))

(* A pack's live entries, valid segments and superseded bytes: what the
   next rewrite would drop. A pack whose first segment fails has no live
   entry, and all of its bytes are superseded. *)
let pack_counts kind path ~size =
  match live_records kind path with
  | Some (_, live, segs) when segs > 0 ->
      let n = Hashtbl.length live in
      let records =
        Hashtbl.fold
          (fun _ (name, key, content, _, len) acc -> acc + record_bytes ~name ~key ~content ~len)
          live 0
      in
      (n, segs, size - compact_len kind ~n ~records)
  | _ -> (0, 0, size)

(* Files under [dir/sub]: live ones (named [*suffix], [count]ed for their
   entries, segments and superseded bytes), temporary files a killed
   writer left behind, and per-entry [*.bin] files of sumstore-3 and
   earlier, which nothing reads any more. *)
let scan dir sub ~suffix ~count =
  let empty =
    {
      dk_files = 0;
      dk_bytes = 0;
      dk_entries = 0;
      dk_segments = 0;
      dk_superseded = 0;
      dk_tmp = 0;
      dk_legacy = 0;
    }
  in
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
                let entries, segments, superseded = count path ~size:st_size in
                {
                  acc with
                  dk_files = acc.dk_files + 1;
                  dk_bytes = acc.dk_bytes + st_size;
                  dk_entries = acc.dk_entries + entries;
                  dk_segments = acc.dk_segments + segments;
                  dk_superseded = acc.dk_superseded + superseded;
                }
              else acc
          | _ -> acc
          | exception Unix.Unix_error _ -> acc)
        empty names

let disk_stats ~dir =
  let packs kind = scan dir kind.subdir ~suffix:pack_suffix ~count:(pack_counts kind) in
  {
    d_version = read_version ~dir;
    d_ast = scan dir "ast" ~suffix:".mcast" ~count:(fun _ ~size:_ -> (1, 0, 0));
    d_sum = packs fn_kind;
    d_root = packs root_kind;
  }

type dump = Fn_entries of fn_entry list | Root_entries of root_entry list

let dump_pack path =
  let dump kind (src, live, _) =
    let names = List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) live []) in
    let entries =
      List.filter_map
        (fun n ->
          let _, key, content, off, len = Hashtbl.find live n in
          force kind n
            {
              key;
              inputs = None;
              content;
              frame = Some (src, off, len);
              value = None;
              base = Unbased;
            })
        names
    in
    if List.compare_lengths entries names = 0 then Ok entries else Error "corrupt entry body"
  in
  let valid kind =
    Option.bind (live_records kind path) (fun ((_, _, segs) as p) ->
        if segs > 0 then Some p else None)
  in
  if not (Sys.file_exists path) then Error "no such file"
  else
    match valid fn_kind with
    | Some p -> Result.map (fun es -> Fn_entries es) (dump fn_kind p)
    | None -> (
        match valid root_kind with
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
