(** Compile parsed metal definitions to executable extensions.

    The action mini-language plays the role of the paper's "C code actions":
    arbitrary computation at transition time. Statements are calls, executed
    in order:

    - [err(fmt, args...)] — report an error; [%s] placeholders consume the
      evaluated arguments (e.g. [mc_identifier(v)]);
    - [annotate("SECURITY")] — tag subsequent reports in this block
      (checker-specific ranking, Section 9);
    - [set_rule(expr)] — rule key for statistical ranking / grouping;
    - [example(expr)] / [counterexample(expr)] — statistical counters
      (rule inference, Sections 3.2 and 9);
    - [example_in_func()] / [counterexample_in_func()] / [set_rule_to_func()]
      — counters keyed by the enclosing function ("Ranking code",
      Section 9);
    - [annotate_ast(hole, "tag")] — AST annotation for extension
      composition (Section 3.2);
    - [kill_path()] — stop traversing the current path (path-kill);
    - [set_global("state")] — update the global instance directly
      (Section 3.1);
    - [incr("field")] / [decr("field")] / [set("field", n)] — the
      triggering instance's numeric data value (Section 3.1, e.g. recursive
      lock depth);
    - [err_if_over("field", limit, fmt)] / [err_if_under("field", limit,
      fmt)] — report when a data field crosses a bound;
    - any registered {!Callout} name — escape to OCaml code.

    Complex escapes beyond this are written against the OCaml API directly
    ({!Sm.make} with closure actions). *)

exception Compile_error of Srcloc.t * string

val compile : Metal_ast.t -> Sm.t

val load : file:string -> string -> Sm.t list
(** Parse and compile every [sm] in the text. Raises {!Metal_parse.Metal_error},
    {!Compile_error} or {!Clex.Lex_error}, each at a position. *)
