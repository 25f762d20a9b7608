type t = string

let of_string ?(salt = "") text = Digest.to_hex (Digest.string (salt ^ "\x00" ^ text))

let combine fps =
  Digest.to_hex (Digest.string (String.concat "\x01" fps))

let short fp = if String.length fp <= 8 then fp else String.sub fp 0 8
