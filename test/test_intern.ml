(* Interned state tuples: the Intern table itself, the id-indexed Summary
   behaviour built on it, the engine counters it feeds (cache probes/hits on
   loop and diamond CFGs), and the Supergraph duplicate-definition guard. *)

let t = Alcotest.test_case

let run ?(checkers = [ Free_checker.checker () ]) src =
  Engine.check_source ~file:"t.c" src checkers

(* ---------------------------------------------------------------- *)
(* Intern                                                            *)
(* ---------------------------------------------------------------- *)

let intern_tests =
  [
    t "atom ids are stable and dense" `Quick (fun () ->
        let it = Intern.create () in
        let a = Intern.atom it "alpha" in
        let b = Intern.atom it "beta" in
        Alcotest.(check bool) "distinct" true (a <> b);
        Alcotest.(check int) "memoised" a (Intern.atom it "alpha");
        Alcotest.(check string) "name round-trip" "beta" (Intern.name it b);
        Alcotest.(check int) "two atoms" 2 (Intern.n_atoms it));
    t "tuple ids memoise the rendered key" `Quick (fun () ->
        let it = Intern.create () in
        let id = Intern.tuple it ~g:(Intern.atom it "locked") ~vkey:Intern.no_var ~vval:Intern.no_var in
        Alcotest.(check string) "renders like tuple_key" "(locked,<>)"
          (Intern.name it id);
        Alcotest.(check int) "same triple, same id" id
          (Intern.tuple it ~g:(Intern.atom it "locked") ~vkey:Intern.no_var
             ~vval:Intern.no_var);
        (* and it lands in the same atom space as a pre-rendered key *)
        Alcotest.(check int) "atom of rendered key" id
          (Intern.atom it "(locked,<>)");
        Alcotest.(check int) "one tuple triple" 1 (Intern.n_tuples it));
    t "tables grow past the initial capacity" `Quick (fun () ->
        let it = Intern.create () in
        for i = 0 to 999 do
          ignore (Intern.atom it (string_of_int i))
        done;
        Alcotest.(check int) "all kept" 1000 (Intern.n_atoms it);
        Alcotest.(check string) "late name intact" "997"
          (Intern.name it (Intern.atom it "997")));
  ]

(* ---------------------------------------------------------------- *)
(* Summary over interned ids                                         *)
(* ---------------------------------------------------------------- *)

let g a = Summary.global_tuple a
let unk v = Summary.unknown_tuple ~gstate:"start" (Cast.ident v)

let edge s d : Summary.edge =
  { Summary.e_src = s; e_dst = d; e_kind = Summary.Transition }

let summary_tests =
  [
    t "find_by_dst returns edges in insertion order" `Quick (fun () ->
        let s = Summary.create () in
        let e1 = edge (g "a") (g "z") in
        let e2 = edge (g "b") (g "z") in
        let e3 = edge (g "c") (g "y") in
        List.iter (fun e -> ignore (Summary.add_edge s e)) [ e1; e2; e3 ];
        let keys = List.map Summary.edge_key (Summary.find_by_dst s (g "z")) in
        Alcotest.(check (list string))
          "indexed lookup = ordered filter"
          (List.map Summary.edge_key
             (List.filter
                (fun (e : Summary.edge) -> Summary.tuple_equal e.e_dst (g "z"))
                (Summary.edges s)))
          keys;
        Alcotest.(check int) "both z-edges" 2 (List.length keys);
        Alcotest.(check int) "no y confusion" 1
          (List.length (Summary.find_by_dst s (g "y"))));
    t "remove_edge also updates the dst index" `Quick (fun () ->
        let s = Summary.create () in
        let e1 = edge (g "a") (g "z") in
        let e2 = edge (g "b") (g "z") in
        ignore (Summary.add_edge s e1);
        ignore (Summary.add_edge s e2);
        Summary.remove_edge s e1;
        Alcotest.(check (list string))
          "only e2 left"
          [ Summary.edge_key e2 ]
          (List.map Summary.edge_key (Summary.find_by_dst s (g "z"))));
    t "mem_src_global and add_src_key share the atom space" `Quick (fun () ->
        let s = Summary.create () in
        Summary.add_src_key s (Summary.tuple_key (g "locked"));
        Alcotest.(check bool) "probe hits" true (Summary.mem_src_global s "locked");
        Alcotest.(check bool) "other state misses" false
          (Summary.mem_src_global s "unlocked");
        Alcotest.(check (list string))
          "srcs_list renders the key" [ "(locked,<>)" ] (Summary.srcs_list s));
    t "interned summary round-trips through the binary codec unchanged" `Quick
      (fun () ->
        let s = Summary.create () in
        ignore (Summary.add_edge s (edge (unk "p") (g "stop")));
        ignore (Summary.add_edge s (edge (g "a") (g "b")));
        Summary.add_src s (g "a");
        let bin s =
          let b = Wire.writer () in
          Summary.to_bin b s;
          Wire.contents b
        in
        let s' = Summary.of_bin (Wire.reader (bin s)) in
        Alcotest.(check string) "bytes stable" (bin s) (bin s');
        Alcotest.(check (list string))
          "edges preserved in order"
          (List.map Summary.edge_key (Summary.edges s))
          (List.map Summary.edge_key (Summary.edges s'));
        Alcotest.(check (list string))
          "srcs preserved" (Summary.srcs_list s) (Summary.srcs_list s'));
    t "summaries can share one intern table" `Quick (fun () ->
        let it = Intern.create () in
        let s1 = Summary.create ~intern:it () in
        let s2 = Summary.create ~intern:it () in
        ignore (Summary.add_edge s1 (edge (g "a") (g "b")));
        ignore (Summary.add_edge s2 (edge (g "a") (g "b")));
        Alcotest.(check bool) "independent contents" true
          (Summary.size s1 = 1 && Summary.size s2 = 1);
        (* both summaries' tuples interned once in the shared table: atoms
           "a", "(a,<>)", "b", "(b,<>)" and the two tuple triples *)
        Alcotest.(check int) "shared atoms" 4 (Intern.n_atoms it);
        Alcotest.(check int) "shared tuples" 2 (Intern.n_tuples it));
  ]

(* ---------------------------------------------------------------- *)
(* Engine counters on known CFG shapes                               *)
(* ---------------------------------------------------------------- *)

let counter_tests =
  [
    t "loop: third path caches out (2 hits over 3 paths)" `Quick (fun () ->
        (* while-loop back edge: first iteration lays tuples down, the
           re-entry with freed state and the re-entry with clean state each
           terminate on the block cache *)
        let r = run "int f(int *p) { while (*p) { kfree(p); } return 0; }" in
        let st = r.Engine.stats in
        Alcotest.(check int) "paths" 3 st.Engine.paths_explored;
        Alcotest.(check int) "cache hits" 2 st.Engine.cache_hits;
        Alcotest.(check int) "cache probes" 8 st.Engine.cache_probes;
        Alcotest.(check bool) "atoms interned" true (st.Engine.intern_atoms > 0);
        Alcotest.(check bool) "tuples interned" true
          (st.Engine.intern_tuples > 0));
    t "diamond: join block explored once, cached once" `Quick (fun () ->
        let r =
          run
            "int f(int *p, int x) { if (x) { x = 1; } else { x = 2; } \
             kfree(p); return 0; }"
        in
        let st = r.Engine.stats in
        Alcotest.(check int) "paths" 2 st.Engine.paths_explored;
        Alcotest.(check int) "cache hits" 1 st.Engine.cache_hits;
        Alcotest.(check int) "cache probes" 6 st.Engine.cache_probes);
    t "caching off: diamond explores both full paths, no hits" `Quick
      (fun () ->
        let options = { Engine.default_options with caching = false } in
        let r =
          Engine.check_source ~options ~file:"t.c"
            "int f(int *p, int x) { if (x) { x = 1; } else { x = 2; } \
             kfree(p); return 0; }"
            [ Free_checker.checker () ]
        in
        let st = r.Engine.stats in
        Alcotest.(check int) "no hits" 0 st.Engine.cache_hits;
        Alcotest.(check int) "no probes" 0 st.Engine.cache_probes;
        Alcotest.(check int) "both paths walked to exit" 2
          st.Engine.paths_explored);
  ]

(* ---------------------------------------------------------------- *)
(* Supergraph duplicate definitions                                  *)
(* ---------------------------------------------------------------- *)

let dup_tests =
  [
    t "first definition wins deterministically" `Quick (fun () ->
        let tus =
          [
            Cparse.parse_tunit ~file:"a.c"
              "int f(int *p) { kfree(p); return *p; }";
            Cparse.parse_tunit ~file:"b.c" "int f(int *p) { return 0; }";
          ]
        in
        let sg = Supergraph.build tus in
        (* the kept body is a.c's: analysing it reports the use-after-free *)
        let r = Engine.run sg [ Free_checker.checker () ] in
        Alcotest.(check int) "a.c body analysed" 1 (List.length r.Engine.reports);
        Alcotest.(check (option string))
          "cfg table agrees" (Some "a.c")
          (Supergraph.file_of_function sg "f"));
    t "duplicate definition logs a warning with both locations" `Quick
      (fun () ->
        (* the warning goes through the uniform stderr diagnostics channel
           (Diag), not the Logs reporter: it must survive with no reporter
           installed and keep stdout machine-parseable *)
        let warnings = ref [] in
        let saved = !Diag.sink in
        Diag.sink := (fun s -> warnings := s :: !warnings);
        Fun.protect
          ~finally:(fun () -> Diag.sink := saved)
          (fun () ->
            ignore
              (Supergraph.build
                 [
                   Cparse.parse_tunit ~file:"a.c" "int f(void) { return 1; }";
                   Cparse.parse_tunit ~file:"b.c" "int f(void) { return 2; }";
                 ]);
            match !warnings with
            | [ w ] ->
                let has needle =
                  let nl = String.length needle and wl = String.length w in
                  let rec at i =
                    i + nl <= wl
                    && (String.equal needle (String.sub w i nl) || at (i + 1))
                  in
                  at 0
                in
                Alcotest.(check bool) "names the function" true (has "f");
                Alcotest.(check bool) "names the dropped site" true (has "b.c");
                Alcotest.(check bool) "names the kept site" true (has "a.c")
            | ws ->
                Alcotest.failf "expected exactly one warning, got %d"
                  (List.length ws)));
    t "no warning without duplicates" `Quick (fun () ->
        let sg =
          Supergraph.build
            [ Cparse.parse_tunit ~file:"a.c" "int f(void) { return 1; } int g(void) { return f(); }" ]
        in
        Alcotest.(check bool) "both functions present" true
          (Supergraph.cfg_of sg "f" <> None && Supergraph.cfg_of sg "g" <> None));
  ]

(* ---------------------------------------------------------------- *)
(* The last-use memo never changes an id                              *)
(* ---------------------------------------------------------------- *)

(* Strings shared physically by every op of a script, so [atom] sees the
   very strings its memo holds; the last one is a rendered tuple key, so
   atoms and tuples meet in one id space. *)
let pool = [| "start"; "freed"; "p"; "unknown"; "(start,<>)" |]

type op =
  | Shared of int  (** [atom] of the pool's own string *)
  | Copy of int  (** [atom] of an equal, freshly allocated copy *)
  | Fresh of int  (** [atom] of a string built on the spot, not in the pool *)
  | Tuple of int * int option * int
      (** [tuple] over pool components: gstate, target key (none: [<>]),
          value *)

let pp_op = function
  | Shared i -> Printf.sprintf "Shared %d" i
  | Copy i -> Printf.sprintf "Copy %d" i
  | Fresh i -> Printf.sprintf "Fresh %d" i
  | Tuple (g, k, v) ->
      Printf.sprintf "Tuple (%d, %s, %d)" g
        (match k with None -> "None" | Some k -> string_of_int k)
        v

(* Single ops, runs of one op and alternations of two, so the memo sees
   repeats (A A), alternation (A B A B) and eviction (A B C A). *)
let script_gen =
  let open QCheck2.Gen in
  let idx = int_bound (Array.length pool - 1) in
  let comp = int_bound 2 in
  let op =
    frequency
      [
        (4, map (fun i -> Shared i) idx);
        (2, map (fun i -> Copy i) idx);
        (1, map (fun i -> Fresh i) (int_bound 7));
        (3, map3 (fun g k v -> Tuple (g, k, v)) comp (opt comp) comp);
      ]
  in
  let chunk =
    frequency
      [
        (3, map (fun o -> [ o ]) op);
        (1, map2 (fun o n -> List.init n (fun _ -> o)) op (int_range 2 4));
        ( 1,
          map3
            (fun a b n -> List.concat (List.init n (fun _ -> [ a; b ])))
            op op (int_range 2 3) );
      ]
  in
  map List.concat (list_size (int_range 1 30) chunk)

(* Replays [ops] on a fresh interner and on the reference numbering (a
   plain table giving each new string the next int; a tuple's id is the
   number of its rendered key). True iff every id, every [name] and both
   table sizes agree. *)
let memo_agrees ops =
  let it = Intern.create () in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let triples : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let number s =
    match Hashtbl.find_opt ids s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids s id;
        id
  in
  let ok = ref true in
  let expect id s =
    if id <> number s || not (String.equal (Intern.name it id) s) then
      ok := false
  in
  let atom s =
    let id = Intern.atom it s in
    expect id s;
    id
  in
  List.iter
    (function
      | Shared i -> ignore (atom pool.(i))
      | Copy i -> ignore (atom (Bytes.to_string (Bytes.of_string pool.(i))))
      | Fresh i -> ignore (atom (Printf.sprintf "fresh%d" i))
      | Tuple (g, k, v) ->
          let ga = atom pool.(g) in
          let key, vkey, vval =
            match k with
            | None ->
                (Printf.sprintf "(%s,<>)" pool.(g), Intern.no_var, Intern.no_var)
            | Some k ->
                let ka = atom pool.(k) in
                let va = atom pool.(v) in
                (Printf.sprintf "(%s,%s->%s)" pool.(g) pool.(k) pool.(v), ka, va)
          in
          Hashtbl.replace triples (ga, vkey, vval) ();
          expect (Intern.tuple it ~g:ga ~vkey ~vval) key)
    ops;
  !ok
  && Intern.n_atoms it = Hashtbl.length ids
  && Intern.n_tuples it = Hashtbl.length triples

let memo_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"the last-use memo never changes an id"
         ~count:500
         ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
         script_gen memo_agrees);
  ]

(* ---------------------------------------------------------------- *)
(* Array-backed summaries against the hash-table model               *)
(* ---------------------------------------------------------------- *)

(* The three-table [Summary.t] that the array-backed one replaced, kept
   as the reference: packed edge key -> edge, source tuple ids, and dst
   tuple id -> edges (newest first), beside an insertion-ordered edge
   array. It shares the implementation's interner, so ids computed
   against one are valid against the other. *)
module Ref_summary = struct
  type t = {
    it : Intern.t;
    tbl : (int, Summary.edge) Hashtbl.t;
    srcs : (int, unit) Hashtbl.t;
    by_dst : (int, Summary.edge list) Hashtbl.t;
    mutable earr : Summary.edge array;
    mutable elen : int;
  }

  let create it =
    {
      it;
      tbl = Hashtbl.create 8;
      srcs = Hashtbl.create 8;
      by_dst = Hashtbl.create 8;
      earr = [||];
      elen = 0;
    }

  let tuple_id t (tup : Summary.tuple) =
    let g = Intern.atom t.it tup.t_g in
    match tup.t_v with
    | None -> Intern.tuple t.it ~g ~vkey:Intern.no_var ~vval:Intern.no_var
    | Some v ->
        Intern.tuple t.it ~g ~vkey:(Intern.atom t.it v.v_key)
          ~vval:(Intern.atom t.it v.v_value)

  let pack s d kind = (s lsl 32) lor (d lsl 1) lor kind
  let code = function Summary.Transition -> 0 | Summary.Add -> 1

  let edge_ids t (e : Summary.edge) =
    let s = tuple_id t e.e_src and d = tuple_id t e.e_dst in
    (d, pack s d (code e.e_kind))

  let mem_edge_ids t ~src ~dst kind = Hashtbl.mem t.tbl (pack src dst (code kind))
  let edges t = Array.to_list (Array.sub t.earr 0 t.elen)

  let add_edge t e =
    let d, k = edge_ids t e in
    if Hashtbl.mem t.tbl k then false
    else begin
      Hashtbl.replace t.tbl k e;
      if t.elen = Array.length t.earr then begin
        let a = Array.make (max 4 (2 * t.elen)) e in
        Array.blit t.earr 0 a 0 t.elen;
        t.earr <- a
      end;
      t.earr.(t.elen) <- e;
      t.elen <- t.elen + 1;
      Hashtbl.replace t.by_dst d
        (e :: Option.value (Hashtbl.find_opt t.by_dst d) ~default:[]);
      true
    end

  let remove_edge t e =
    let d, k = edge_ids t e in
    if Hashtbl.mem t.tbl k then begin
      Hashtbl.remove t.tbl k;
      let not_e e' = snd (edge_ids t e') <> k in
      let kept = List.filter not_e (edges t) in
      t.earr <- Array.of_list kept;
      t.elen <- List.length kept;
      match Hashtbl.find_opt t.by_dst d with
      | Some es -> Hashtbl.replace t.by_dst d (List.filter not_e es)
      | None -> ()
    end

  let add_src t tup = Hashtbl.replace t.srcs (tuple_id t tup) ()
  let add_src_key t k = Hashtbl.replace t.srcs (Intern.atom t.it k) ()
  let mem_src t tup = Hashtbl.mem t.srcs (tuple_id t tup)

  let clear t =
    Hashtbl.reset t.tbl;
    Hashtbl.reset t.srcs;
    Hashtbl.reset t.by_dst;
    t.earr <- [||];
    t.elen <- 0

  let find_by_dst t tup =
    match Hashtbl.find_opt t.by_dst (tuple_id t tup) with
    | Some es -> List.rev es
    | None -> []

  let srcs_list t =
    List.sort String.compare
      (Hashtbl.fold (fun id () acc -> Intern.name t.it id :: acc) t.srcs [])

  let tuple_to_bin b (tup : Summary.tuple) =
    match tup.t_v with
    | None ->
        Wire.u8 b 0;
        Wire.string b tup.t_g
    | Some v ->
        Wire.u8 b 1;
        Wire.string b tup.t_g;
        Wire.string b v.v_key;
        Cast_io.expr_to_bin b v.v_tree;
        Wire.string b v.v_value;
        Wire.int b v.v_depth

  let to_bin b t =
    Wire.int b t.elen;
    List.iter
      (fun (e : Summary.edge) ->
        Wire.u8 b (code e.e_kind);
        tuple_to_bin b e.e_src;
        tuple_to_bin b e.e_dst)
      (edges t);
    Wire.list b Wire.string (srcs_list t)
end

(* Tuples over a few gstates, targets and values: 4 x (1 + 3 x 4) = 52
   distinct tuples, so summaries grow well past any small index
   threshold, while low indices recur often enough to share
   destinations and repeat edges. *)
let s_gstates = [| "s0"; "s1"; "s2"; "s3" |]
let s_targets = [| "p"; "q"; "r" |]
let s_values = [| "v0"; "v1"; Summary.unknown_value; "stop" |]
let s_ids = Exprid.make_ctx (Exprid.empty ())

let s_tuple i =
  let g = s_gstates.(i mod 4) and k = i / 4 mod 13 in
  if k = 0 then Summary.global_tuple g
  else
    let tree = Cast.ident s_targets.((k - 1) / 4) in
    {
      Summary.t_g = g;
      t_v =
        Some
          {
            Summary.v_key = Cast.key_of_expr tree;
            v_tree = tree;
            v_value = s_values.((k - 1) mod 4);
            v_depth = 0;
          };
    }

let s_edge (s, d, add) : Summary.edge =
  {
    Summary.e_src = s_tuple s;
    e_dst = s_tuple d;
    e_kind = (if add then Summary.Add else Summary.Transition);
  }

type s_op =
  | Add_edge of int * int * bool
  | Readd of int  (** add the n-th recorded edge again *)
  | Remove of int  (** remove the n-th recorded edge *)
  | Remove_absent of int * int * bool
  | Add_src of int
  | Add_src_key of int
  | Clear
  | Mem_src of int
  | Mem_src_instance of int
  | Mem_src_global of int
  | Mem_edge_ids of int * int * bool
  | By_dst of int
  | Edges
  | Srcs
  | To_bin

let pp_s_op = function
  | Add_edge (s, d, a) -> Printf.sprintf "Add_edge (%d, %d, %b)" s d a
  | Readd n -> Printf.sprintf "Readd %d" n
  | Remove n -> Printf.sprintf "Remove %d" n
  | Remove_absent (s, d, a) -> Printf.sprintf "Remove_absent (%d, %d, %b)" s d a
  | Add_src i -> Printf.sprintf "Add_src %d" i
  | Add_src_key i -> Printf.sprintf "Add_src_key %d" i
  | Clear -> "Clear"
  | Mem_src i -> Printf.sprintf "Mem_src %d" i
  | Mem_src_instance i -> Printf.sprintf "Mem_src_instance %d" i
  | Mem_src_global i -> Printf.sprintf "Mem_src_global %d" i
  | Mem_edge_ids (s, d, a) -> Printf.sprintf "Mem_edge_ids (%d, %d, %b)" s d a
  | By_dst i -> Printf.sprintf "By_dst %d" i
  | Edges -> "Edges"
  | Srcs -> "Srcs"
  | To_bin -> "To_bin"

(* Phases that grow a summary past the threshold (runs of adds), shrink
   it back (runs of removes of recorded edges, or a clear), and probe it
   in between, so every size crosses the threshold in both directions. *)
let s_script_gen =
  let open QCheck2.Gen in
  let tup = frequency [ (3, int_bound 11); (2, int_bound 51) ] in
  let probe =
    frequency
      [
        (2, map (fun i -> Mem_src i) tup);
        (1, map (fun i -> Mem_src_instance i) tup);
        (1, map (fun i -> Mem_src_global i) (int_bound 3));
        (2, map3 (fun s d a -> Mem_edge_ids (s, d, a)) tup tup bool);
        (3, map (fun i -> By_dst i) tup);
        (1, pure Edges);
        (1, pure Srcs);
        (1, pure To_bin);
      ]
  in
  let grow =
    frequency
      [
        (5, map3 (fun s d a -> Add_edge (s, d, a)) tup tup bool);
        (2, map (fun n -> Readd n) nat);
        (3, map (fun i -> Add_src i) tup);
        (1, map (fun i -> Add_src_key i) tup);
        (2, probe);
      ]
  in
  let shrink =
    frequency
      [
        (5, map (fun n -> Remove n) nat);
        (1, map3 (fun s d a -> Remove_absent (s, d, a)) tup tup bool);
        (2, probe);
      ]
  in
  let phase =
    frequency
      [
        (4, list_size (int_range 10 40) grow);
        (3, list_size (int_range 5 30) shrink);
        (1, map (fun ps -> Clear :: ps) (list_size (int_range 0 5) probe));
      ]
  in
  map List.concat (list_size (int_range 1 8) phase)

let summary_agrees ops =
  let it = Intern.create () in
  let s = Summary.create ~intern:it () and r = Ref_summary.create it in
  let keys es = List.map Summary.edge_key es in
  let bin f =
    let b = Wire.writer () in
    f b;
    Wire.contents b
  in
  let nth_edge n =
    match Ref_summary.edges r with
    | [] -> None
    | es -> Some (List.nth es (n mod List.length es))
  in
  let step = function
    | Add_edge (a, b, k) ->
        let e = s_edge (a, b, k) in
        Summary.add_edge s e = Ref_summary.add_edge r e
    | Readd n -> (
        match nth_edge n with
        | None -> true
        | Some e -> Summary.add_edge s e = Ref_summary.add_edge r e)
    | Remove n -> (
        match nth_edge n with
        | None -> true
        | Some e ->
            Summary.remove_edge s e;
            Ref_summary.remove_edge r e;
            true)
    | Remove_absent (a, b, k) ->
        let e = s_edge (a, b, k) in
        Summary.remove_edge s e;
        Ref_summary.remove_edge r e;
        true
    | Add_src i ->
        Summary.add_src s (s_tuple i);
        Ref_summary.add_src r (s_tuple i);
        true
    | Add_src_key i ->
        let k = Summary.tuple_key (s_tuple i) in
        Summary.add_src_key s k;
        Ref_summary.add_src_key r k;
        true
    | Clear ->
        Summary.clear s;
        Ref_summary.clear r;
        true
    | Mem_src i -> Summary.mem_src s (s_tuple i) = Ref_summary.mem_src r (s_tuple i)
    | Mem_src_instance i -> (
        let tup = s_tuple i in
        match tup.t_v with
        | None -> true
        | Some v ->
            let inst =
              Sm.new_instance ~ids:s_ids ~target:v.v_tree ~value:v.v_value
                ~created_at:0 ~created_loc:Srcloc.dummy ~created_depth:0 ()
            in
            Summary.mem_src_instance s ~ids:s_ids ~gstate:tup.t_g inst
            = Ref_summary.mem_src r tup)
    | Mem_src_global i ->
        let g = s_gstates.(i) in
        Summary.mem_src_global s g = Ref_summary.mem_src r (Summary.global_tuple g)
    | Mem_edge_ids (a, b, k) ->
        let src = Ref_summary.tuple_id r (s_tuple a)
        and dst = Ref_summary.tuple_id r (s_tuple b)
        and kind = if k then Summary.Add else Summary.Transition in
        Summary.mem_edge_ids s ~src ~dst kind
        = Ref_summary.mem_edge_ids r ~src ~dst kind
    | By_dst i ->
        let tup = s_tuple i in
        let seen = ref [] in
        Summary.iter_by_dst s tup (fun e -> seen := e :: !seen);
        let want = keys (Ref_summary.find_by_dst r tup) in
        keys (List.rev !seen) = want && keys (Summary.find_by_dst s tup) = want
    | Edges -> keys (Summary.edges s) = keys (Ref_summary.edges r)
    | Srcs -> Summary.srcs_list s = Ref_summary.srcs_list r
    | To_bin -> bin (fun b -> Summary.to_bin b s) = bin (fun b -> Ref_summary.to_bin b r)
  in
  List.for_all
    (fun op ->
      step op
      && Summary.size s = r.Ref_summary.elen
      && Summary.srcs_count s = Hashtbl.length r.Ref_summary.srcs
      && Summary.no_edges s = (r.Ref_summary.elen = 0))
    ops
  && keys (Summary.edges s) = keys (Ref_summary.edges r)
  && Summary.srcs_list s = Ref_summary.srcs_list r
  && bin (fun b -> Summary.to_bin b s) = bin (fun b -> Ref_summary.to_bin b r)

let summary_model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"array-backed summaries match the hash-table model" ~count:300
         ~print:(fun ops -> String.concat "; " (List.map pp_s_op ops))
         s_script_gen summary_agrees);
  ]

let suite =
  intern_tests @ summary_tests @ counter_tests @ dup_tests @ memo_tests
  @ summary_model_tests
