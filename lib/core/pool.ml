let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

type sched_stats = { workers : int; stolen : int; spawn_failures : int }

(* ------------------------------------------------------------------ *)
(* The pool: helper domains spawned once, blocking between jobs        *)
(* ------------------------------------------------------------------ *)

(* One job at a time. The caller publishes [body] under [lock], bumps
   [gen] and wakes every helper; helper [w] runs [body w] once per
   generation if [w < width] and then counts itself out of [running].
   The caller runs [body 0] itself and waits for [running] to reach 0,
   so every write a helper made during the job happens-before the
   caller's return (both sides pass through [lock]). *)
type t = {
  jobs : int;
  lock : Mutex.t;
  wake : Condition.t;  (* helpers: a new generation, or [closed] *)
  idle : Condition.t;  (* the caller: [running] reached 0 *)
  mutable body : int -> unit;
  mutable width : int;  (* workers the current job uses, the caller included *)
  mutable gen : int;
  mutable running : int;
  mutable closed : bool;
  mutable helpers : unit Domain.t list;  (* helpers 1 .. [live] *)
  mutable live : int;
}

let no_body (_ : int) = ()

let helper p w () =
  let rec serve seen =
    Mutex.lock p.lock;
    while p.gen = seen && not p.closed do
      Condition.wait p.wake p.lock
    done;
    if p.closed then Mutex.unlock p.lock
    else begin
      let gen = p.gen and body = p.body and mine = w < p.width in
      Mutex.unlock p.lock;
      if mine then begin
        (* the scheduler isolates task failures itself; this only keeps
           the count right if the loop around the tasks ever raises *)
        (try body w with _ -> ());
        Mutex.lock p.lock;
        p.running <- p.running - 1;
        if p.running = 0 then Condition.signal p.idle;
        Mutex.unlock p.lock
      end;
      serve gen
    end
  in
  serve 0

(* Spawn the helpers, degrading instead of crashing when [Domain.spawn]
   itself raises (thread or fd exhaustion): jobs then run on whatever was
   spawned plus the calling domain. Stop at the first failure — if the
   system is out of threads, further attempts just burn time — and say so
   once on the diagnostics channel. *)
let create ?(spawn = Domain.spawn) ~jobs () =
  let p =
    {
      jobs = max 1 jobs;
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      body = no_body;
      width = 0;
      gen = 0;
      running = 0;
      closed = false;
      helpers = [];
      live = 0;
    }
  in
  let rec go w =
    if w < p.jobs then
      match spawn (helper p w) with
      | d ->
          p.helpers <- d :: p.helpers;
          p.live <- w;
          go (w + 1)
      | exception e ->
          Diag.warnf "Domain.spawn failed (%s); degrading to %d worker domain(s)"
            (Printexc.to_string e) w
  in
  go 1;
  p

let jobs p = p.jobs

let close p =
  Mutex.lock p.lock;
  p.closed <- true;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock;
  List.iter Domain.join p.helpers;
  p.helpers <- [];
  p.live <- 0

let with_pool ?spawn ~jobs f =
  let p = create ?spawn ~jobs () in
  Fun.protect ~finally:(fun () -> close p) (fun () -> f p)

(* Run [body w] on the caller (w = 0) and on helpers 1 .. width-1, and
   return once all of them are done. *)
let run_job p ~width body =
  Mutex.lock p.lock;
  p.body <- body;
  p.width <- width;
  p.running <- min p.live (width - 1);
  p.gen <- p.gen + 1;
  Condition.broadcast p.wake;
  Mutex.unlock p.lock;
  let finish () =
    Mutex.lock p.lock;
    while p.running > 0 do
      Condition.wait p.idle p.lock
    done;
    p.body <- no_body;
    Mutex.unlock p.lock
  in
  Fun.protect ~finally:finish (fun () -> body 0)

(* ------------------------------------------------------------------ *)
(* Work-stealing scheduler                                             *)
(* ------------------------------------------------------------------ *)

(* One per worker. The owner pops from [head] (front: the earliest tasks
   of the priority order it was seeded with); thieves take from [tail]
   (back: the furthest-out work, minimising contention with the owner).
   A plain mutex per deque is enough — the critical section is two index
   updates, and each task claim is the cheap part of running an analysis
   root for milliseconds. *)
type deque = {
  dlock : Mutex.t;
  tasks : int array;
  mutable head : int;
  mutable tail : int;
}

let deque_pop d =
  Mutex.lock d.dlock;
  let r =
    if d.head < d.tail then begin
      let t = d.tasks.(d.head) in
      d.head <- d.head + 1;
      Some t
    end
    else None
  in
  Mutex.unlock d.dlock;
  r

let deque_steal d =
  Mutex.lock d.dlock;
  let r =
    if d.head < d.tail then begin
      d.tail <- d.tail - 1;
      Some d.tasks.(d.tail)
    end
    else None
  in
  Mutex.unlock d.dlock;
  r

let sched p ?order n f =
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
  else if p.jobs <= 1 || n = 1 then begin
    let results = Array.make n (Error Not_found) in
    Array.iter (fun i -> results.(i) <- guarded ~worker:0 i) order;
    (results, inline_stats)
  end
  else begin
    let nw = min p.jobs n in
    (* Stripe the priority order across the deques: task [order.(k)] seeds
       deque [k mod nw], so every worker starts at the front of the global
       order and the backs of all deques hold the latest (for the engine:
       tallest) tasks. *)
    let dqs =
      Array.init nw (fun w ->
          let mine = ref [] in
          Array.iteri (fun k t -> if k mod nw = w then mine := t :: !mine) order;
          let tasks = Array.of_list (List.rev !mine) in
          { dlock = Mutex.create (); tasks; head = 0; tail = Array.length tasks })
    in
    let results = Array.make n None in
    let stolen = Array.make nw 0 in
    (* Tasks are static (running one never enqueues another), so a worker
       may stop as soon as every deque answers empty; each task index is
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
    (* The calling domain is worker 0 and helper [w] is worker [w]. A
       deque whose helper failed to spawn still drains: every live worker
       steals from every deque once its own runs dry. *)
    run_job p ~width:nw worker;
    let results =
      Array.map
        (function
          | Some r -> r
          | None -> Error (Invalid_argument "Pool.run_sched: task skipped"))
        results
    in
    let workers = 1 + min p.live (nw - 1) in
    ( results,
      {
        workers;
        stolen = Array.fold_left ( + ) 0 stolen;
        spawn_failures = nw - workers;
      } )
  end

(* The one-shot entry points open a pool of at most one domain per task,
   run one job on it and close it again. *)
let run_sched ?spawn ~jobs ?order n f =
  with_pool ?spawn ~jobs:(min jobs n) (fun p -> sched p ?order n f)

let results p n f = fst (sched p n (fun ~worker:_ i -> f i))

let run_results ?spawn ~jobs n f =
  with_pool ?spawn ~jobs:(min jobs n) (fun p -> results p n f)

exception Skipped

(* Fail-fast: the first task to raise stops every task not yet started,
   and its exception is re-raised once the job is over. *)
let run ?spawn ~jobs n f =
  let failure = Atomic.make None in
  let out =
    run_results ?spawn ~jobs n (fun i ->
        match Atomic.get failure with
        | Some _ -> raise Skipped
        | None -> (
            match f i with
            | v -> v
            | exception e ->
                ignore (Atomic.compare_and_set failure None (Some e));
                raise e))
  in
  (match Atomic.get failure with Some e -> raise e | None -> ());
  Array.map (function Ok v -> v | Error _ -> invalid_arg "Pool.run: task skipped") out
