let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* Spawn up to [k] worker domains, degrading instead of crashing when
   [Domain.spawn] itself raises (thread or fd exhaustion): the queue
   drains on whatever was spawned plus the calling domain. Stop at the
   first failure — if the system is out of threads, further attempts just
   burn time — and say so once on the diagnostics channel. *)
let spawn_guarded ~spawn k body =
  let rec go acc i =
    if i >= k then List.rev acc
    else
      match spawn body with
      | d -> go (d :: acc) (i + 1)
      | exception e ->
          Diag.warnf "Domain.spawn failed (%s); degrading to %d worker domain(s)"
            (Printexc.to_string e)
            (List.length acc + 1);
          List.rev acc
  in
  go [] 0

(* Fault-isolating variant: every task runs to completion and reports
   [Ok] or [Error] individually — one domain's crash never aborts the
   queue or poisons other tasks' results. [run] below keeps the original
   fail-fast contract for callers where any failure is fatal anyway. *)
let run_results ?(spawn = Domain.spawn) ~jobs n f =
  let guarded i = match f i with v -> Ok v | exception e -> Error e in
  if n <= 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n guarded
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (guarded i);
        worker ()
      end
    in
    let spawned = spawn_guarded ~spawn (min (jobs - 1) (n - 1)) worker in
    worker ();
    List.iter Domain.join spawned;
    Array.map
      (function
        | Some r -> r
        | None -> Error (Invalid_argument "Pool.run_results: task skipped"))
      results
  end

let run ?(spawn = Domain.spawn) ~jobs n f =
  if n <= 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure : exn option Atomic.t = Atomic.make None in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get failure = None then begin
        (match f i with
        | v -> results.(i) <- Some v
        | exception e -> ignore (Atomic.compare_and_set failure None (Some e)));
        worker ()
      end
    in
    (* the calling domain is worker number [jobs]; spawn the rest *)
    let spawned = spawn_guarded ~spawn (min (jobs - 1) (n - 1)) worker in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> invalid_arg "Pool.run: task skipped")
      results
  end

(* ------------------------------------------------------------------ *)
(* Work-stealing scheduler                                             *)
(* ------------------------------------------------------------------ *)

type sched_stats = { workers : int; stolen : int; spawn_failures : int }

(* One per worker. The owner pops from [head] (front: the earliest tasks
   of the priority order it was seeded with); thieves take from [tail]
   (back: the furthest-out work, minimising contention with the owner).
   A plain mutex per deque is enough — the critical section is two index
   updates, and each task claim is the cheap part of running an analysis
   root for milliseconds. *)
type deque = {
  lock : Mutex.t;
  tasks : int array;
  mutable head : int;
  mutable tail : int;
}

let deque_pop d =
  Mutex.lock d.lock;
  let r =
    if d.head < d.tail then begin
      let t = d.tasks.(d.head) in
      d.head <- d.head + 1;
      Some t
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let deque_steal d =
  Mutex.lock d.lock;
  let r =
    if d.head < d.tail then begin
      d.tail <- d.tail - 1;
      Some d.tasks.(d.tail)
    end
    else None
  in
  Mutex.unlock d.lock;
  r

let run_sched ?(spawn = Domain.spawn) ~jobs ?order n f =
  let guarded ~worker i =
    match f ~worker i with v -> Ok v | exception e -> Error e
  in
  let order =
    match order with
    | Some o ->
        if Array.length o <> n then invalid_arg "Pool.run_sched: bad order";
        o
    | None -> Array.init n Fun.id
  in
  let inline_stats = { workers = 1; stolen = 0; spawn_failures = 0 } in
  if n <= 0 then ([||], inline_stats)
  else if jobs <= 1 || n = 1 then begin
    let results = Array.make n (Error Not_found) in
    Array.iter (fun i -> results.(i) <- guarded ~worker:0 i) order;
    (results, inline_stats)
  end
  else begin
    let nw = min jobs n in
    (* Stripe the priority order across the deques: task [order.(k)] seeds
       deque [k mod nw], so every worker starts at the front of the global
       order and the backs of all deques hold the latest (for the engine:
       tallest) tasks. *)
    let dqs =
      Array.init nw (fun w ->
          let mine = ref [] in
          Array.iteri (fun k t -> if k mod nw = w then mine := t :: !mine) order;
          let tasks = Array.of_list (List.rev !mine) in
          { lock = Mutex.create (); tasks; head = 0; tail = Array.length tasks })
    in
    let results = Array.make n None in
    let stolen = Array.make nw 0 in
    (* Tasks are static (running one never enqueues another), so a worker
       may exit as soon as every deque answers empty; each task index is
       claimed exactly once under its deque's lock, so each [results] slot
       is written by exactly one domain. *)
    let rec worker w =
      match deque_pop dqs.(w) with
      | Some i ->
          results.(i) <- Some (guarded ~worker:w i);
          worker w
      | None ->
          let rec try_steal k =
            if k >= nw then ()
            else begin
              let v = (w + k) mod nw in
              match deque_steal dqs.(v) with
              | Some i ->
                  stolen.(w) <- stolen.(w) + 1;
                  results.(i) <- Some (guarded ~worker:w i);
                  worker w
              | None -> try_steal (k + 1)
            end
          in
          try_steal 1
    in
    (* Workers 1..nw-1 are spawned; the calling domain is worker 0. A
       deque whose spawn failed still drains: every live worker steals
       from every deque once its own runs dry. *)
    let spawned = ref [] in
    let give_up = ref false in
    for w = 1 to nw - 1 do
      if not !give_up then
        match spawn (fun () -> worker w) with
        | d -> spawned := d :: !spawned
        | exception e ->
            Diag.warnf
              "Domain.spawn failed (%s); degrading to %d worker domain(s)"
              (Printexc.to_string e)
              (List.length !spawned + 1);
            give_up := true
    done;
    worker 0;
    List.iter Domain.join !spawned;
    let results =
      Array.map
        (function
          | Some r -> r
          | None -> Error (Invalid_argument "Pool.run_sched: task skipped"))
        results
    in
    ( results,
      {
        workers = List.length !spawned + 1;
        stolen = Array.fold_left ( + ) 0 stolen;
        spawn_failures = nw - 1 - List.length !spawned;
      } )
  end
