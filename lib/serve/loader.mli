(** The pass-1 front end (Section 6) every subcommand loads through.

    A [.mcast] input is an AST object emitted by [xgcc emit]; anything
    else is C source, preprocessed when a cpp configuration is given and
    then parsed, through the content-addressed AST object cache when a
    cache directory is given, so a warm run skips lexing and parsing. A
    loader is a value built from the command line's [--cpp]/[-D]/[-I]
    and [--cache-dir]/[--no-cache-persist] flags; batch [check] and the
    [serve] daemon hand {!parse} to {!Pass} as its front end. *)

type t

val create :
  ?cpp:(string * string) list * string list -> ?ast_cache:string * bool -> unit -> t
(** [cpp]: the predefined macros ([("NAME", "body")]) and the include
    directories searched after ["."]; without it nothing is
    preprocessed. [ast_cache]: the cache directory, and whether new AST
    objects are written back to it. *)

val parse : t -> path:string -> source:string -> (Cast.tunit, string) result
(** Load one unit from its path and text. [path] names the unit and picks
    the format; nothing here reads it, so the daemon passes editor
    overlays as [source]. A unit that cannot be loaded at all (a corrupt
    [.mcast], a lexical error, a structural cpp error) is an [Error];
    definition-level parse errors never are: the parser recovers in
    place and records {!Cast.Gskipped} stubs, which [Supergraph.build]
    warns about. *)

type unit_id = {
  u_id : Fingerprint.t option;
      (** {!Cast_io.ast_fingerprint} of the unit's path and the text the
          parser read (after preprocessing; a [.mcast] input's bytes),
          computed when the loader has an AST cache: what a [--cache-dir]
          run's carry file knows the unit by ({!Engine.read_carry}) *)
  u_deps : (string * string option) list;
      (** every file the preprocessor looked for to resolve an
          [#include], in order, with its contents then ([None]: it did
          not exist). The unit is what it was as long as they are. *)
}

val parse_unit :
  t -> path:string -> source:string -> (Cast.tunit * unit_id, string) result
(** {!parse}, also returning the unit's identity and the files it
    depends on besides its own. *)

val load : t -> string -> Cast.tunit
(** Read and {!parse} one file, raising [Failure "FILE: message"] when it
    cannot be loaded: [emit], [dump-cfg], [dump-summaries] and [triage]
    stop at such a file. Safe to call from several domains at once. *)

val record_ast_counts : t -> Summary_store.t -> unit
(** Copy the AST object cache's hit and miss counts into the store's
    statistics and save its last-run record, so [xgcc cache stats] sees
    them beside the engine's counters: a [check] run's one write of
    [DIR/last-run]. *)
