(* Per-root intern tables: dense integer ids for the strings the traversal
   hot path used to rebuild and rehash on every cache probe.

   Two id spaces share one table:

   - atoms: any string (a gstate, an instance value, an expression key from
     [Cast.key_of_expr], or a fully rendered tuple key) mapped to a dense
     int; [name] is an array read back to the string.
   - tuples: the triple (gstate atom, target-key atom, value atom) mapped
     to the atom id of its rendered tuple key. The rendering happens at
     most once per distinct triple; every later probe packs the three
     component ids into one immediate int (20 bits each) and hashes that,
     allocating nothing at all. Components too large to pack — about a
     million distinct strings in one root — fall back to a boxed-triple
     spill table with identical semantics.

   Because a tuple id IS the atom id of its rendered key, two tuples get
   the same id exactly when their rendered keys are equal — the identity
   the string-keyed representation used. Persisted source-tuple keys
   (re-recorded verbatim through [Summary.add_src_key]) intern into the
   same space, so replayed and recomputed state cannot disagree.

   Tables are per root context and never shared across domains. Each is
   paired 1:1 with the root's Exprid context: [eatom] caches the
   expression-id -> atom mapping on the interner itself, so instances
   carry only the int id. *)

type t = {
  mutable names : string array; (* atom id -> string *)
  mutable n : int;
  ids : (string, int) Hashtbl.t; (* string -> atom id *)
  packed : (int, int) Hashtbl.t;
      (* the triple packed into one int (20 bits per component) -> tuple
         id; the no-allocation fast path of [tuple] *)
  triples : (int * int * int, int) Hashtbl.t;
      (* spill table for components >= 2^20 - 1 (one root would need
         about a million distinct strings to reach it) *)
  mutable eatoms : int array;
      (* expression id (Exprid, base space) -> atom id, -1 = unmapped: the
         per-interner cache behind [eatom], replacing the stamp-validated
         per-instance cache (each interner is paired 1:1 with one Exprid
         context by the engine, so the mapping never goes stale) *)
  eatoms_over : (int, int) Hashtbl.t;
      (* same cache for sparse overflow expression ids *)
}

let create ?(n_exprs = 0) () =
  {
    names = Array.make 64 "";
    n = 0;
    ids = Hashtbl.create 256;
    packed = Hashtbl.create 256;
    triples = Hashtbl.create 8;
    eatoms = Array.make (max 1 n_exprs) (-1);
    eatoms_over = Hashtbl.create 16;
  }

let n_atoms t = t.n
let n_tuples t = Hashtbl.length t.packed + Hashtbl.length t.triples

let atom t s =
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
    match Hashtbl.find t.packed key with
    | id -> id
    | exception Not_found ->
        let id = atom t (render t ~g ~vkey ~vval) in
        Hashtbl.replace t.packed key id;
        id
  end
  else
    match Hashtbl.find t.triples (g, vkey, vval) with
    | id -> id
    | exception Not_found ->
        let id = atom t (render t ~g ~vkey ~vval) in
        Hashtbl.replace t.triples (g, vkey, vval) id;
        id
