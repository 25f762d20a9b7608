type t = string

let of_string ?(salt = "") text = Digest.to_hex (Digest.string (salt ^ "\x00" ^ text))

let combine fps =
  Digest.to_hex (Digest.string (String.concat "\x01" fps))

