(* Intern tables: dense integer ids for the strings the traversal hot path
   used to rebuild and rehash on every cache probe.

   Two id spaces share one table:

   - atoms: any string (a gstate, an instance value, an expression key from
     [Cast.key_of_expr], or a fully rendered tuple key) mapped to a dense
     int; [name] is an array read back to the string.
   - tuples: the triple (gstate atom, target-key atom, value atom) mapped
     to the atom id of its rendered tuple key. The rendering happens at
     most once per distinct triple; every later probe packs the three
     component ids into one immediate int (20 bits each) and hashes that,
     allocating nothing at all. Components too large to pack — about a
     million distinct strings in one context — fall back to a boxed-triple
     spill table with identical semantics.

   Because a tuple id IS the atom id of its rendered key, two tuples get
   the same id exactly when their rendered keys are equal — the identity
   the string-keyed representation used. Persisted source-tuple keys
   (re-recorded verbatim through [Summary.add_src_key]) intern into the
   same space, so replayed and recomputed state cannot disagree.

   Each analysis context owns one interner, and it is never shared across
   domains: at -j 1 the run's single context covers every root of every
   extension; at -j N and in cached runs each worker root context, and
   each canonical scratch, has its own. An interner is
   paired 1:1 with its context's Exprid resolver: [eatom] caches the
   expression-id -> atom mapping on the interner itself, so instances
   carry only the int id.

   Last-use memo. The traversal resolves the same few strings and triples
   over and over (one state tuple's gstate, value and target key, then
   the next block's probe of the same tuple), so [atom] remembers the
   last two strings its table resolved, compared by physical identity,
   and [tuple] the last packed key it resolved. A memo hit returns
   exactly what the table would, by three invariants:
   - an interner is read and written by one context on one domain, so
     nothing changes the table between the memo's update and its read;
   - OCaml strings are immutable, so a physically identical string has
     the contents it had when its id was remembered (equal copies miss
     the memo and take the table path, which gives the same id);
   - ids are never reassigned or removed, so a remembered id stays the
     table's answer for the life of the interner. *)

type t = {
  mutable names : string array; (* atom id -> string *)
  mutable n : int;
  ids : (string, int) Hashtbl.t; (* string -> atom id *)
  packed : (int, int) Hashtbl.t;
      (* the triple packed into one int (20 bits per component) -> tuple
         id; the no-allocation fast path of [tuple] *)
  triples : (int * int * int, int) Hashtbl.t;
      (* spill table for components >= 2^20 - 1 (one context would need
         about a million distinct strings to reach it) *)
  mutable eatoms : int array;
      (* expression id (Exprid, base space) -> atom id, -1 = unmapped: the
         per-interner cache behind [eatom], replacing the stamp-validated
         per-instance cache (each interner is paired 1:1 with one Exprid
         context by the engine, so the mapping never goes stale) *)
  eatoms_over : (int, int) Hashtbl.t;
      (* same cache for sparse overflow expression ids *)
  (* the last-use memo (see the header): the last two strings [atom]
     resolved through [ids], newest in slot 0, and the last packed key
     [tuple] resolved through [packed] *)
  mutable s0 : string;
  mutable a0 : int;
  mutable s1 : string;
  mutable a1 : int;
  mutable last_key : int;
  mutable last_tup : int;
}

(* The empty memo slots' string: allocated here and never returned, so no
   caller can hold it and a physical-identity probe never matches it. *)
let no_string = String.make 1 '\000'

let create ?(n_exprs = 0) () =
  {
    names = Array.make 64 "";
    n = 0;
    ids = Hashtbl.create 256;
    packed = Hashtbl.create 256;
    triples = Hashtbl.create 8;
    eatoms = Array.make (max 1 n_exprs) (-1);
    eatoms_over = Hashtbl.create 16;
    s0 = no_string;
    a0 = -1;
    s1 = no_string;
    a1 = -1;
    last_key = -1 (* packed keys are non-negative *);
    last_tup = -1;
  }

let n_atoms t = t.n
let n_tuples t = Hashtbl.length t.packed + Hashtbl.length t.triples

let resolve t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
      let id = t.n in
      if id = Array.length t.names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.names 0 bigger 0 id;
        t.names <- bigger
      end;
      t.names.(id) <- s;
      t.n <- id + 1;
      Hashtbl.replace t.ids s id;
      id

let atom t s =
  if s == t.s0 then t.a0
  else if s == t.s1 then t.a1
  else begin
    let id = resolve t s in
    t.s1 <- t.s0;
    t.a1 <- t.a0;
    t.s0 <- s;
    t.a0 <- id;
    id
  end

let name t id = t.names.(id)

let eatom t id render =
  if id >= 0 && id < Array.length t.eatoms then begin
    let a = t.eatoms.(id) in
    if a >= 0 then a
    else begin
      let a = atom t (render ()) in
      t.eatoms.(id) <- a;
      a
    end
  end
  else
    match Hashtbl.find_opt t.eatoms_over id with
    | Some a -> a
    | None ->
        let a = atom t (render ()) in
        Hashtbl.replace t.eatoms_over id a;
        a

let no_var = -1

let render t ~g ~vkey ~vval =
  if vkey = no_var then Printf.sprintf "(%s,<>)" (name t g)
  else Printf.sprintf "(%s,%s->%s)" (name t g) (name t vkey) (name t vval)

(* Components at or above this never pack (they would collide under the
   20-bit fields); [no_var] maps to field value 0 via the +1 bias. *)
let spill_lim = (1 lsl 20) - 1

let tuple t ~g ~vkey ~vval =
  if g < spill_lim && vkey < spill_lim && vval < spill_lim then begin
    (* 3 x 20 bits + the bias fit in 61 bits: always a positive OCaml
       int, and building the key allocates nothing (unlike the boxed
       triple the spill path hashes) *)
    let key = (((g lsl 20) lor (vkey + 1)) lsl 20) lor (vval + 1) in
    if key = t.last_key then t.last_tup
    else begin
      let id =
        match Hashtbl.find t.packed key with
        | id -> id
        | exception Not_found ->
            let id = atom t (render t ~g ~vkey ~vval) in
            Hashtbl.replace t.packed key id;
            id
      in
      t.last_key <- key;
      t.last_tup <- id;
      id
    end
  end
  else
    match Hashtbl.find t.triples (g, vkey, vval) with
    | id -> id
    | exception Not_found ->
        let id = atom t (render t ~g ~vkey ~vval) in
        Hashtbl.replace t.triples (g, vkey, vval) id;
        id
