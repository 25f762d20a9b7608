(** Content fingerprints for the persistent incremental cache.

    A fingerprint is a hex digest of some analysis input — post-preprocess
    source text, a serialised AST, an extension's metal source — salted
    with a version string so that format or semantics changes invalidate
    every stale cache entry at once rather than silently reusing it.

    Fingerprints are pure content hashes: no timestamps, no absolute
    paths beyond what the caller folds in. Equal inputs (under the same
    salt) always yield equal fingerprints across runs and machines, which
    is what makes cache entries shareable and warm runs reproducible. *)

type t = string
(** Lowercase hex digest. *)

val of_string : ?salt:string -> string -> t
(** [of_string ?salt text] hashes [text], prefixed by [salt] (default
    empty). Use a version salt for any on-disk format. *)

val combine : t list -> t
(** Hash of an ordered list of fingerprints (order-sensitive). *)

