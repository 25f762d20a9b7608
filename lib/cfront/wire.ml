exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = Buffer.t

let writer ?magic () =
  let b = Buffer.create 256 in
  Option.iter (Buffer.add_string b) magic;
  b

let u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

(* LEB128 over the zigzag encoding, so small negative ints stay small.
   OCaml ints fit 63 bits; the zigzag doubles, which is exactly what the
   Int64 path below handles for the full-width literals. *)
let rec uvarint b n =
  if n < 0x80 then u8 b n
  else begin
    u8 b (0x80 lor (n land 0x7f));
    uvarint b (n lsr 7)
  end

let int b n = uvarint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let i64 b n =
  let open Int64 in
  let z = logxor (shift_left n 1) (shift_right n 63) in
  let rec go z =
    if unsigned_compare z 0x80L < 0 then u8 b (to_int z)
    else begin
      u8 b (0x80 lor (to_int (logand z 0x7fL)));
      go (shift_right_logical z 7)
    end
  in
  go z

let float b f = i64 b (Int64.bits_of_float f)
let bool b v = u8 b (if v then 1 else 0)

let string b s =
  uvarint b (String.length s);
  Buffer.add_string b s

let substring b s off len =
  uvarint b len;
  Buffer.add_substring b s off len

let option b enc = function
  | None -> u8 b 0
  | Some v ->
      u8 b 1;
      enc b v

let list b enc xs =
  uvarint b (List.length xs);
  List.iter (enc b) xs

let length = Buffer.length
let contents = Buffer.contents
let rec uvarint_size n = if n < 0x80 then 1 else 1 + uvarint_size (n lsr 7)
let int_size n = uvarint_size ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
let string_size n = uvarint_size n + n

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int; lim : int }

let reader ?magic src =
  let r = { src; pos = 0; lim = String.length src } in
  (match magic with
  | None -> ()
  | Some m ->
      let n = String.length m in
      if String.length src < n || not (String.equal (String.sub src 0 n) m) then
        corrupt "bad magic (want %S)" m;
      r.pos <- n);
  r

let sub_reader src ~off ~len =
  if off < 0 || len < 0 || off + len > String.length src then
    corrupt "slice %d+%d outside %d bytes" off len (String.length src);
  { src; pos = off; lim = off + len }

let ru8 r =
  if r.pos >= r.lim then corrupt "truncated at byte %d" r.pos;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let ruvarint r =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint overflow at byte %d" r.pos;
    let c = ru8 r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let rint r =
  let z = ruvarint r in
  (z lsr 1) lxor (-(z land 1))

let ri64 r =
  let open Int64 in
  let rec go shift acc =
    if shift > 70 then corrupt "varint64 overflow at byte %d" r.pos;
    let c = ru8 r in
    let acc = logor acc (shift_left (of_int (c land 0x7f)) shift) in
    if c < 0x80 then acc else go (shift + 7) acc
  in
  let z = go 0 0L in
  logxor (shift_right_logical z 1) (neg (logand z 1L))

let rfloat r = Int64.float_of_bits (ri64 r)
let rbool r = match ru8 r with 0 -> false | 1 -> true | n -> corrupt "bad bool %d" n

(* the length prefix of a string field, checked against the input *)
let rlength r =
  let n = ruvarint r in
  if n < 0 || r.pos + n > r.lim then
    corrupt "truncated string (%d bytes) at byte %d" n r.pos;
  n

let rstring r =
  let n = rlength r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rslice r =
  let n = rlength r in
  let off = r.pos in
  r.pos <- off + n;
  (off, n)

let roption r dec = match ru8 r with
  | 0 -> None
  | 1 -> Some (dec r)
  | n -> corrupt "bad option tag %d" n

let rlist r dec =
  let n = ruvarint r in
  (* bound the preallocation by what the input could possibly hold *)
  if n > r.lim - r.pos + 1 then corrupt "bad list length %d" n;
  List.init n (fun _ -> dec r)

let at_end r = r.pos >= r.lim

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

(* [Filename.temp_file] would create the file 0600; asking for 0666 lets
   the umask decide, as [open_out] does. [close_out] before the rename:
   it is the final flush, and a failed one must not put a torn file in
   place. *)
let write_file path write =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path)
      ("." ^ Filename.basename path)
      ".tmp"
  in
  try
    write oc;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
