type config = Pass.config = {
  c_files : string list;
  c_parse : path:string -> source:string -> (Cast.tunit, string) result;
  c_exts : Sm.t list;
  c_options : Engine.options;
  c_jobs : int;
  c_store : Summary_store.t option;
  c_rank : string;
}

type check_out = {
  o_diagnostics : string;
  o_reports : int;
  o_rechecked : bool;
  o_recheck_s : float;
  o_load_s : float;
  o_graph_s : float;
  o_analysis_s : float;
  o_warnings : string list;
  o_degraded : int;
  o_drifted : string list;
}

type t = {
  cfg : config;
  pass : Pass.t;
  mutable dirty : bool;
  mutable last : check_out option;  (* the last re-check's reply *)
  mutable n_checks : int;
  mutable n_edits : int;
  mutable n_coalesced : int;
  mutable n_rechecks : int;
  mutable last_recheck_s : float;
}

let create ?loader cfg =
  let pass = Pass.create ?loader cfg in
  let unreadable (f : Watch.file) =
    Option.map (fun msg -> f.Watch.w_path ^ ": " ^ msg) f.Watch.w_error
  in
  match List.find_map unreadable (Watch.files (Pass.watch pass)) with
  | Some msg -> Error msg
  | None ->
      Ok
        {
          cfg;
          pass;
          dirty = true;
          last = None;
          n_checks = 0;
          n_edits = 0;
          n_coalesced = 0;
          n_rechecks = 0;
          last_recheck_s = 0.;
        }

(* One full warm re-check over the just revalidated disk snapshots
   ([missing] are the files that vanished): the analysis pass batch check
   runs (re-parsing only changed files, over the memory-backed store),
   rendered as a cold [check --format json] would print it. Every Diag
   warning the pass emits — including ones raised on worker domains — is
   captured into this request's reply instead of a shared stderr. *)
let recheck t ~missing =
  let warnings = ref [] in
  Diag.with_sink
    (fun line -> warnings := line :: !warnings)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun p -> Diag.warnf "%s: vanished from disk; analysing last good snapshot" p)
        missing;
      let p = Pass.run t.pass in
      Option.iter Summary_store.save_last_run t.cfg.c_store;
      (* drifted files stay dirty: the next check recomputes from the
         new contents *)
      t.dirty <- p.Pass.drifted <> [];
      let diagnostics = Json_out.reports_to_string p.Pass.ranked in
      let n = List.length p.Pass.ranked in
      let dt = Unix.gettimeofday () -. t0 in
      t.n_rechecks <- t.n_rechecks + 1;
      t.last_recheck_s <- dt;
      let o =
        {
          o_diagnostics = diagnostics;
          o_reports = n;
          o_rechecked = true;
          o_recheck_s = dt;
          o_load_s = p.Pass.load_s;
          o_graph_s = p.Pass.graph_s;
          o_analysis_s = p.Pass.analysis_s;
          o_warnings = List.rev !warnings;
          o_degraded = List.length p.Pass.result.Engine.degraded;
          o_drifted = p.Pass.drifted;
        }
      in
      t.last <- Some o;
      o)

let check t =
  (* the cached clean result is only trustworthy if disk still matches
     the analysed snapshots: re-stat and re-hash before serving it, so an
     edit that never announced itself via didChange still forces a
     re-check (the stale-snapshot bug batch mode had) *)
  let changed, missing = Watch.revalidate (Pass.watch t.pass) in
  if changed <> [] then t.dirty <- true;
  match t.last with
  | Some o when not t.dirty ->
      (* the result stands as computed: its warnings and degraded roots
         still describe it (it drifted nothing, or it would be dirty) *)
      {
        o with
        o_rechecked = false;
        o_recheck_s = 0.;
        o_load_s = 0.;
        o_graph_s = 0.;
        o_analysis_s = 0.;
      }
  | _ -> recheck t ~missing

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let diagnostics_reply t (o : check_out) =
  let open Json_out in
  let cache_fields =
    match t.cfg.c_store with
    | None -> []
    | Some s ->
        let st = Summary_store.stats s in
        [
          ("roots_replayed", Int st.Summary_store.roots_replayed);
          ("roots_recomputed", Int st.Summary_store.roots_recomputed);
          ("fns_recomputed", Int st.Summary_store.fns_recomputed);
          ("keys_computed", Int st.Summary_store.keys_computed);
        ]
  in
  Obj
    ([
       ("ok", Bool true);
       ("event", Str "diagnostics");
       ("rechecked", Bool o.o_rechecked);
       ("recheck_s", Float o.o_recheck_s);
       ("load_s", Float o.o_load_s);
       ("graph_s", Float o.o_graph_s);
       ("analysis_s", Float o.o_analysis_s);
       ("reports", Int o.o_reports);
       ("degraded", Int o.o_degraded);
       ("drifted", Arr (List.map (fun p -> Str p) o.o_drifted));
       ("warnings", Arr (List.map (fun w -> Str w) o.o_warnings));
     ]
    @ (if o.o_rechecked then cache_fields else [])
    @ [ ("diagnostics", Str o.o_diagnostics) ])

let stats_reply t =
  let open Json_out in
  let store_fields =
    match t.cfg.c_store with
    | None -> [ ("store", Str "none") ]
    | Some s ->
        let st = Summary_store.stats s in
        [
          ( "store",
            Str
              (match
                 (Summary_store.in_memory s, Summary_store.disk_persist s)
               with
              | true, true -> "memory+disk"
              | true, false -> "memory"
              | false, true -> "disk"
              | false, false -> "read-only") );
          ("mem_entries", Int (Summary_store.mem_entries s));
          ("fn_hits", Int st.Summary_store.fn_hits);
          ("fn_stale", Int st.Summary_store.fn_stale);
          ("fn_absent", Int st.Summary_store.fn_absent);
          ( "fns_probed",
            Int (st.Summary_store.fn_hits + st.Summary_store.fn_stale + st.Summary_store.fn_absent)
          );
          ("roots_replayed", Int st.Summary_store.roots_replayed);
          ("roots_reused", Int st.Summary_store.roots_reused);
          ("roots_recomputed", Int st.Summary_store.roots_recomputed);
          ("fns_recomputed", Int st.Summary_store.fns_recomputed);
          ("keys_computed", Int st.Summary_store.keys_computed);
        ]
  in
  Obj
    ([
       ("ok", Bool true);
       ("event", Str "stats");
       ("files", Int (List.length t.cfg.c_files));
       ("checkers", Int (List.length t.cfg.c_exts));
       ("jobs", Int t.cfg.c_jobs);
       ("checks", Int t.n_checks);
       ("edits", Int t.n_edits);
       ("coalesced", Int t.n_coalesced);
       ("rechecks", Int t.n_rechecks);
       ("last_recheck_s", Float t.last_recheck_s);
       ("dirty", Bool t.dirty);
     ]
    @ store_fields)

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* [more_pending] is the coalescing signal: when the transport already
   holds another complete request line, a [didChange] only applies its
   edit and replies [queued] — the re-check happens once, when the storm
   drains. Every request still gets exactly one reply, in order. *)
let handle_request t ~more_pending (req : Proto.request) =
  match req with
  | Proto.Check ->
      t.n_checks <- t.n_checks + 1;
      (diagnostics_reply t (check t), false)
  | Proto.Did_change { path; text } -> (
      t.n_edits <- t.n_edits + 1;
      match Watch.set_overlay (Pass.watch t.pass) ~path ~text with
      | Error msg -> (Proto.error_response msg, false)
      | Ok changed ->
          if changed then t.dirty <- true;
          if more_pending then begin
            t.n_coalesced <- t.n_coalesced + 1;
            ( Json_out.Obj
                [
                  ("ok", Json_out.Bool true);
                  ("event", Json_out.Str "queued");
                  ("path", Json_out.Str path);
                  ("changed", Json_out.Bool changed);
                ],
              false )
          end
          else (diagnostics_reply t (check t), false))
  | Proto.Stats -> (stats_reply t, false)
  | Proto.Shutdown ->
      ( Json_out.Obj
          [ ("ok", Json_out.Bool true); ("event", Json_out.Str "bye") ],
        true )

let handle_line t ~more_pending line =
  match Proto.request_of_line line with
  | Error msg -> (Proto.error_response msg, false)
  | Ok req -> handle_request t ~more_pending req

(* ------------------------------------------------------------------ *)
(* Transport: newline-delimited requests over a pair of fds            *)
(* ------------------------------------------------------------------ *)

(* Line reader with its own buffer: the coalescing decision must see
   lines the kernel already delivered, which an in_channel would hide in
   its private buffer while select() reports the fd idle. *)
type reader = {
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  r_chunk : bytes;
  mutable r_eof : bool;
}

let reader fd = { r_fd = fd; r_buf = Buffer.create 4096; r_chunk = Bytes.create 4096; r_eof = false }

let buffered_line r =
  let s = Buffer.contents r.r_buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear r.r_buf;
      Buffer.add_substring r.r_buf s (i + 1) (String.length s - i - 1);
      Some line

(* Pull more bytes, waiting at most [timeout] seconds (negative: block).
   Returns false on EOF or timeout. *)
let fill r ~timeout =
  if r.r_eof then false
  else
    let ready =
      if timeout < 0. then true
      else
        match Unix.select [ r.r_fd ] [] [] timeout with
        | [], _, _ -> false
        | _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not ready then false
    else
      match Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) with
      | 0 ->
          r.r_eof <- true;
          false
      | n ->
          Buffer.add_subbytes r.r_buf r.r_chunk 0 n;
          true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let rec read_line_block r =
  match buffered_line r with
  | Some line -> Some line
  | None ->
      if fill r ~timeout:(-1.) then read_line_block r
      else if Buffer.length r.r_buf > 0 then begin
        (* unterminated trailing line at EOF: take it whole *)
        let line = Buffer.contents r.r_buf in
        Buffer.clear r.r_buf;
        Some line
      end
      else None

(* Is another complete request line already readable? Drains whatever
   the input holds right now with zero-timeout reads, then looks for a
   line end. Nothing waits: a client that sends one request and waits
   for its reply gets it at once, and an edit storm piped in ahead of
   the replies still coalesces. *)
let more_pending r =
  while fill r ~timeout:0. do
    ()
  done;
  Buffer.length r.r_buf > 0 && String.contains (Buffer.contents r.r_buf) '\n'


let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Serve one connection. Returns true when the client asked the daemon to
   shut down (vs. just disconnecting). *)
let serve_fd t ~fd_in ~fd_out =
  let r = reader fd_in in
  let rec loop () =
    match read_line_block r with
    | None -> false
    | Some line ->
        if String.trim line = "" then loop ()
        else begin
          let reply, quit = handle_line t ~more_pending:(more_pending r) line in
          write_all fd_out (Proto.to_line reply);
          if quit then true else loop ()
        end
  in
  loop ()

let serve_stdio t = ignore (serve_fd t ~fd_in:Unix.stdin ~fd_out:Unix.stdout)

let serve_socket t ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        match Unix.accept sock with
        | client, _ ->
            let quit =
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close client with Unix.Unix_error _ -> ())
                (fun () ->
                  try serve_fd t ~fd_in:client ~fd_out:client
                  with Unix.Unix_error (Unix.EPIPE, _, _) -> false)
            in
            if not quit then accept_loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      in
      accept_loop ())
