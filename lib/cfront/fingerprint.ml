type t = string

let of_string ?(salt = "") text = Digest.to_hex (Digest.string (salt ^ "\x00" ^ text))

let combine fps =
  Digest.to_hex (Digest.string (String.concat "\x01" fps))

(* The bytes of [String.concat "\x01" (List.map (fun (k, v) -> k ^ "\x02"
   ^ v) pairs)], written into one buffer instead of a string per pair. *)
let combine_pairs pairs =
  let len =
    List.fold_left
      (fun n (k, v) -> n + String.length k + String.length v + 2)
      0 pairs
  in
  let buf = Bytes.create (max 0 (len - 1)) in
  let pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 buf !pos (String.length s);
    pos := !pos + String.length s
  in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then put "\x01";
      put k;
      put "\x02";
      put v)
    pairs;
  Digest.to_hex (Digest.bytes buf)

let short fp = if String.length fp <= 8 then fp else String.sub fp 0 8
