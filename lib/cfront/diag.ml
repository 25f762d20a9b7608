let mutex = Mutex.create ()
let sink : (string -> unit) ref = ref prerr_endline

let warnf fmt =
  Printf.ksprintf
    (fun s ->
      let line = "xgcc: warning: " ^ s in
      Mutex.protect mutex (fun () -> !sink line))
    fmt

let with_sink s body =
  let old = Mutex.protect mutex (fun () ->
      let o = !sink in
      sink := s;
      o)
  in
  Fun.protect
    ~finally:(fun () -> Mutex.protect mutex (fun () -> sink := old))
    body
