(* Frozen calibration kernel.

   A fixed amount of allocation- and pointer-heavy work, shaped like the
   analyser's inner loop: short-lived immutable records, balanced-tree
   inserts and lookups, list sorting and a string-keyed hash table, all
   under the same 4 Mw minor heap xgcc sets. The benchmark times one run
   next to every op and divides op times by it, so host-speed swings
   cancel out of the reported figures.

   Never change this file: every recorded normalised time is relative to
   [calib_ref_s] in perfbench/run.py, which was measured with exactly this
   code. Usage: calib.exe ROUNDS; prints a checksum run.py verifies. *)

module IM = Map.Make (Int)

type node = { key : int; tag : string; next : node list }

let lcg x = (x * 1103515245 + 12345) land 0x3fffffff

let round seed =
  let x = ref seed in
  let m = ref IM.empty in
  for _ = 1 to 6000 do
    x := lcg !x;
    let k = !x land 0xffff in
    m := IM.add k { key = k; tag = string_of_int k; next = [] } !m
  done;
  let h = Hashtbl.create 1024 in
  let acc = ref [] in
  for _ = 1 to 6000 do
    x := lcg !x;
    let k = !x land 0xffff in
    match IM.find_opt k !m with
    | Some n ->
        let n' = { n with next = (match !acc with [] -> [] | y :: _ -> [ y ]) } in
        acc := n' :: !acc;
        Hashtbl.replace h n.tag (List.length n'.next)
    | None -> Hashtbl.replace h (string_of_int k) 0
  done;
  let sorted = List.sort (fun a b -> compare a.key b.key) !acc in
  let sum = List.fold_left (fun s n -> s + n.key + List.length n.next) 0 sorted in
  (sum + Hashtbl.length h + IM.cardinal !m) land 0xffffff

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 4 * 1024 * 1024 };
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 40 in
  let check = ref 0 in
  for r = 1 to rounds do
    check := (!check * 31 + round r) land 0xffffff
  done;
  Printf.printf "%d\n" !check
