(** Length-prefixed binary encoding: the one serialisation of pass-1 AST
    objects ([.mcast] files and the AST cache), function-summary and root
    replay entries, and the atomic file writer they (and the triage and
    history files) share.

    Varint ints (zigzag, so negatives stay short), length-prefixed
    strings, and a magic prefix per entry kind so a file of the wrong
    kind or version reads as {!Corrupt} — which every cache treats as a
    miss, never an error.

    The encoding is deliberately not self-describing: each consumer owns
    its layout and versions it through the magic string plus the
    fingerprint salt of the enclosing store. *)

exception Corrupt of string
(** Truncated, malformed, or wrong-magic input. Cache readers catch this
    and degrade to a miss. *)

(** {1 Writing} *)

type writer

val writer : ?magic:string -> unit -> writer
val u8 : writer -> int -> unit
val int : writer -> int -> unit
val i64 : writer -> int64 -> unit
val float : writer -> float -> unit
val bool : writer -> bool -> unit
val string : writer -> string -> unit

val substring : writer -> string -> int -> int -> unit
(** [substring b s off len] writes [String.sub s off len] as a {!string},
    without copying it out first. *)

val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val length : writer -> int
(** Bytes written so far: the offset the next field starts at. *)

val contents : writer -> string

val int_size : int -> int
(** The bytes {!int} writes for this value. *)

val string_size : int -> int
(** The bytes {!string} (or {!substring}) writes for a string of this
    length. *)

(** {1 Reading} *)

type reader

val reader : ?magic:string -> string -> reader
(** Raises {!Corrupt} when [magic] is given and the input does not start
    with it. *)

val sub_reader : string -> off:int -> len:int -> reader
(** A reader over the [len] bytes of [src] from [off]: reads past them
    raise {!Corrupt}, as at the end of a whole input. Raises {!Corrupt}
    when the slice lies outside [src]. *)

val ru8 : reader -> int
val rint : reader -> int
val ri64 : reader -> int64
val rfloat : reader -> float
val rbool : reader -> bool
val rstring : reader -> string

val rslice : reader -> int * int
(** Skip a {!string} field without copying it: its offset and length in
    the reader's source, for a later {!sub_reader}. *)

val roption : reader -> (reader -> 'a) -> 'a option
val rlist : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool

val read_file : string -> string
(** Whole-file read; raises [Sys_error] like [open_in]. *)

val write_file : string -> (out_channel -> unit) -> unit
(** [write_file path write] replaces [path] atomically: [write] fills a
    temporary file in the same directory, which is renamed over [path]
    only once it is completely written and closed, so a reader (or a
    concurrent writer) sees the old file or the new one, never a torn
    one. The file gets mode [0666] less the umask. If [write], the final
    flush or the rename raises, the temporary file is removed and the
    exception re-raised, leaving [path] as it was. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode [0755] less the
    umask); a directory created concurrently is not an error. *)
