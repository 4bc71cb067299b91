(* The trace-ingest daemon: acceptor domain + worker domains, each
   worker running a select loop over the connections it owns.  Per
   connection the hot path is: one batched [read] into a reused byte
   buffer, [Wire.decode] straight into the connection's one chunk (no
   intermediate array), and the chunk handed to the stream's sink
   pipeline each time it fills and once more when the read is used up.
   See serve.mli for the flow control story. *)

module Sink = Systrace_tracing.Sink
module Parser = Systrace_tracing.Parser

type pipeline = { sink : Sink.t; diagnoses : unit -> int }
type pipeline_factory = unit -> pipeline

let null_pipeline () = { sink = Sink.null; diagnoses = (fun () -> 0) }

let scan_pipeline () =
  let sc = Parser.scanner () in
  let diag = ref 0 in
  let sink =
    Sink.make
      ~finish:(fun () -> diag := List.length (Parser.scan_finish sc))
      (fun ws ~len -> Parser.scan_feed sc ws ~len)
  in
  { sink; diagnoses = (fun () -> !diag) }

let to_parser_pipeline mk () =
  let p = mk () in
  let inner = Sink.to_parser p in
  let diag = ref 0 in
  let sink =
    Sink.make
      ~finish:(fun () ->
        inner.Sink.finish ();
        diag := (Parser.stats p).Parser.parse_errors)
      (fun ws ~len -> inner.Sink.on_words ws ~len)
  in
  { sink; diagnoses = (fun () -> !diag) }

type config = {
  unix_path : string option;
  tcp : (string * int) option;
  ctl_path : string option;
  workers : int;
  pipeline : pipeline_factory;
}

let default_config pipeline =
  { unix_path = None; tcp = None; ctl_path = None; workers = 2; pipeline }

(* Socket read size: 64 KiB, the most one [Unix.read] returns (the
   runtime reads through a buffer of that size), and 16384 words, one
   chunk's worth. *)
let read_bytes = 65536

(* Chunk size: a read's words reach the pipeline at most 16384 at a
   time. *)
let chunk_words = 16384

type snapshot = {
  streams_total : int;
  streams_active : int;
  streams_faulted : int;
  words_in : int;
  words_analyzed : int;
  words_dropped : int;
  frames_in : int;
  frames_dropped : int;
  diagnoses : int;
  peak_resident_words : int;
  drains : int;
  drain_p50 : float;
  drain_p99 : float;
  drain_max : float;
}

let render s =
  String.concat ""
    [
      Printf.sprintf "streams_total %d\n" s.streams_total;
      Printf.sprintf "streams_active %d\n" s.streams_active;
      Printf.sprintf "streams_faulted %d\n" s.streams_faulted;
      Printf.sprintf "words_in %d\n" s.words_in;
      Printf.sprintf "words_analyzed %d\n" s.words_analyzed;
      Printf.sprintf "words_dropped %d\n" s.words_dropped;
      Printf.sprintf "frames_in %d\n" s.frames_in;
      Printf.sprintf "frames_dropped %d\n" s.frames_dropped;
      Printf.sprintf "diagnoses %d\n" s.diagnoses;
      Printf.sprintf "peak_resident_words %d\n" s.peak_resident_words;
      Printf.sprintf "drains %d\n" s.drains;
      Printf.sprintf "drain_p50_s %.9f\n" s.drain_p50;
      Printf.sprintf "drain_p99_s %.9f\n" s.drain_p99;
      Printf.sprintf "drain_max_s %.9f\n" s.drain_max;
    ]

(* ------------------------------------------------------------------ *)
(* Aggregated counters (shared across domains, mutex-protected).       *)

let lat_cap = 65536

type totals = {
  mu : Mutex.t;
  mutable streams_total : int;
  mutable streams_active : int;
  mutable streams_faulted : int;
  mutable words_in : int;
  mutable words_analyzed : int;
  mutable frames_in : int;
  mutable diagnoses : int;
  mutable peak_resident : int;
  mutable drains : int;
  lat : float array;  (* ring of recent drain latencies, seconds *)
  mutable lat_n : int;  (* total ever recorded *)
  mutable lat_max : float;
}

let totals () =
  {
    mu = Mutex.create ();
    streams_total = 0;
    streams_active = 0;
    streams_faulted = 0;
    words_in = 0;
    words_analyzed = 0;
    frames_in = 0;
    diagnoses = 0;
    peak_resident = 0;
    drains = 0;
    lat = Array.make lat_cap 0.0;
    lat_n = 0;
    lat_max = 0.0;
  }

let record_drain g dt =
  Mutex.lock g.mu;
  g.drains <- g.drains + 1;
  g.lat.(g.lat_n mod lat_cap) <- dt;
  g.lat_n <- g.lat_n + 1;
  if dt > g.lat_max then g.lat_max <- dt;
  Mutex.unlock g.mu

(* ------------------------------------------------------------------ *)
(* Per-connection state (owned by exactly one worker domain).          *)

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  pipe : pipeline;
  rbuf : Bytes.t;
  mutable rlen : int;  (* bytes of the last read, not yet decoded *)
  mutable eof : bool;
  chunk : int array;  (* decode target, handed to the pipeline *)
  mutable peak : int;  (* largest chunk handed to the pipeline *)
  mutable analyzed : int;
  mutable sink_exn : bool;  (* a pipeline raised: counted as a diagnosis *)
}

type worker = {
  amu : Mutex.t;
  incoming : Unix.file_descr Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable dom : unit Domain.t option;
}

type t = {
  cfg : config;
  g : totals;
  stop_flag : bool Atomic.t;
  listeners : Unix.file_descr list;
  unlink_paths : string list;
  ctl_fd : Unix.file_descr option;
  port : int option;
  ws : worker array;
  mutable acceptor : unit Domain.t option;
}

let tcp_port t = t.port

let wire_done c = Wire.ended c.dec || Wire.fault c.dec <> None

let wake w =
  try ignore (Unix.write_substring w.wake_w "x" 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> ()

(* Write a short (reply-sized) string on a nonblocking fd, waiting for
   writability between partial writes; gives up quietly if the peer is
   gone or unresponsive — a dying client must not wedge its worker. *)
let write_reply fd s =
  let len = String.length s in
  let pos = ref 0 and tries = ref 0 in
  (try
     while !pos < len && !tries < 50 do
       incr tries;
       match Unix.write_substring fd s !pos (len - !pos) with
       | n -> pos := !pos + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
         ignore (Unix.select [] [ fd ] [] 0.1)
     done
   with Unix.Unix_error _ -> ())

(* ---- decode: rbuf bytes -> chunk -> pipeline ---------------------- *)

let deliver t c len =
  if len > 0 then begin
    let t0 = Unix.gettimeofday () in
    (try c.pipe.sink.Sink.on_words c.chunk ~len with _ -> c.sink_exn <- true);
    record_drain t.g (Unix.gettimeofday () -. t0);
    c.analyzed <- c.analyzed + len;
    if len > c.peak then c.peak <- len
  end

(* Decode the last read into the chunk, handing the chunk to the
   pipeline each time it fills and once more when the read is used up.
   The worker reads the socket again only after this, so a client that
   outruns its pipeline fills the kernel's socket buffer and blocks.
   After END, leftover bytes are decoded once more, which diagnoses
   them as trailing garbage; after a fault they are ignored. *)
let service_io t c =
  let src_pos = ref 0 and dst_pos = ref 0 in
  while !src_pos < c.rlen && Wire.fault c.dec = None do
    match
      Wire.decode c.dec ~src:c.rbuf ~src_pos ~src_len:c.rlen ~dst:c.chunk
        ~dst_pos ~dst_len:chunk_words
    with
    | Wire.Dst_full ->
      deliver t c !dst_pos;
      dst_pos := 0
    | Wire.Need_more | Wire.Stream_end | Wire.Fault _ -> ()
  done;
  deliver t c !dst_pos;
  c.rlen <- 0

let finish_conn t c =
  (try c.pipe.sink.Sink.finish () with _ -> c.sink_exn <- true);
  let wire_diag =
    match Wire.fault c.dec with
    | Some _ as f -> f
    | None -> if Wire.ended c.dec then None else Wire.eof_error c.dec
  in
  let ndiag =
    (try c.pipe.diagnoses () with _ -> 0)
    + (match wire_diag with Some _ -> 1 | None -> 0)
    + (if c.sink_exn then 1 else 0)
  in
  (* Account the stream before acknowledging it, so a client that has
     its reply finds its words in the control socket's stats. *)
  let g = t.g in
  Mutex.lock g.mu;
  g.streams_active <- g.streams_active - 1;
  if wire_diag <> None then g.streams_faulted <- g.streams_faulted + 1;
  g.words_in <- g.words_in + Wire.words c.dec;
  g.words_analyzed <- g.words_analyzed + c.analyzed;
  g.frames_in <- g.frames_in + Wire.frames c.dec;
  g.diagnoses <- g.diagnoses + ndiag;
  if c.peak > g.peak_resident then g.peak_resident <- c.peak;
  Mutex.unlock g.mu;
  (match wire_diag with
  | None ->
    write_reply c.fd
      (Printf.sprintf
         "ok words=%d frames=%d dropped_words=0 dropped_frames=0 \
          diagnoses=%d\n"
         (Wire.words c.dec) (Wire.frames c.dec) ndiag)
  | Some e -> write_reply c.fd (Printf.sprintf "err %s\n" (Wire.describe e)));
  (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* Returns true when the connection is finished and closed. *)
let service t c =
  service_io t c;
  if c.eof || wire_done c then begin
    finish_conn t c;
    true
  end
  else false

let read_conn c =
  if not c.eof then
    match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
    | 0 -> c.eof <- true
    | n -> c.rlen <- n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> c.eof <- true

let make_conn t fd =
  {
    fd;
    dec = Wire.decoder ();
    pipe = t.cfg.pipeline ();
    rbuf = Bytes.create read_bytes;
    rlen = 0;
    eof = false;
    chunk = Array.make chunk_words 0;
    peak = 0;
    analyzed = 0;
    sink_exn = false;
  }

let worker_loop t w =
  let conns = ref [] in
  let drain_wake () =
    let b = Bytes.create 64 in
    try
      while Unix.read w.wake_r b 0 64 > 0 do
        ()
      done
    with Unix.Unix_error _ -> ()
  in
  let intake () =
    Mutex.lock w.amu;
    let fresh = ref [] in
    while not (Queue.is_empty w.incoming) do
      fresh := Queue.pop w.incoming :: !fresh
    done;
    Mutex.unlock w.amu;
    List.iter (fun fd -> conns := make_conn t fd :: !conns) !fresh
  in
  let running = ref true in
  while !running do
    intake ();
    let rfds =
      w.wake_r
      :: List.filter_map (fun c -> if c.eof then None else Some c.fd) !conns
    in
    (match Unix.select rfds [] [] 0.05 with
    | readable, _, _ ->
      if List.memq w.wake_r readable then drain_wake ();
      List.iter (fun c -> if List.memq c.fd readable then read_conn c) !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    conns := List.filter (fun c -> not (service t c)) !conns;
    if Atomic.get t.stop_flag && !conns = [] then begin
      Mutex.lock w.amu;
      let idle = Queue.is_empty w.incoming in
      Mutex.unlock w.amu;
      if idle then running := false
    end
  done

(* ---- acceptor: listeners + control socket ------------------------- *)

let snapshot_of t =
  let g = t.g in
  Mutex.lock g.mu;
  let n = min g.lat_n lat_cap in
  let a = Array.sub g.lat 0 n in
  let s =
    {
      streams_total = g.streams_total;
      streams_active = g.streams_active;
      streams_faulted = g.streams_faulted;
      words_in = g.words_in;
      words_analyzed = g.words_analyzed;
      words_dropped = 0;
      frames_in = g.frames_in;
      frames_dropped = 0;
      diagnoses = g.diagnoses;
      peak_resident_words = g.peak_resident;
      drains = g.drains;
      drain_p50 = 0.0;
      drain_p99 = 0.0;
      drain_max = g.lat_max;
    }
  in
  Mutex.unlock g.mu;
  Array.sort compare a;
  let pct p =
    if n = 0 then 0.0
    else a.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))
  in
  { s with drain_p50 = pct 0.50; drain_p99 = pct 0.99 }

let stats t = snapshot_of t

let handle_ctl t cfd =
  (* The control protocol is one short request line, one reply; handled
     synchronously in the acceptor — control traffic is rare and tiny. *)
  (try
     match Unix.select [ cfd ] [] [] 2.0 with
     | [], _, _ -> ()
     | _ ->
       let b = Bytes.create 256 in
       let n = try Unix.read cfd b 0 256 with Unix.Unix_error _ -> 0 in
       let line = String.trim (Bytes.sub_string b 0 n) in
       (match line with
       | "stats" -> write_reply cfd (render (snapshot_of t))
       | "shutdown" ->
         write_reply cfd "ok\n";
         Atomic.set t.stop_flag true;
         Array.iter wake t.ws
       | _ -> write_reply cfd "err unknown command\n")
   with Unix.Unix_error _ -> ());
  try Unix.close cfd with Unix.Unix_error _ -> ()

let accept_all t rr fd =
  let more = ref true in
  while !more do
    match Unix.accept ~cloexec:true fd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      Mutex.lock t.g.mu;
      t.g.streams_total <- t.g.streams_total + 1;
      t.g.streams_active <- t.g.streams_active + 1;
      Mutex.unlock t.g.mu;
      let w = t.ws.(!rr mod Array.length t.ws) in
      incr rr;
      Mutex.lock w.amu;
      Queue.push cfd w.incoming;
      Mutex.unlock w.amu;
      wake w
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      more := false
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | exception Unix.Unix_error _ -> more := false
  done

let acceptor_loop t =
  let rr = ref 0 in
  let fds =
    t.listeners @ match t.ctl_fd with Some fd -> [ fd ] | None -> []
  in
  while not (Atomic.get t.stop_flag) do
    match Unix.select fds [] [] 0.1 with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          match t.ctl_fd with
          | Some ctl when fd = ctl -> (
            match Unix.accept ~cloexec:true ctl with
            | cfd, _ -> handle_ctl t cfd
            | exception Unix.Unix_error _ -> ())
          | _ -> accept_all t rr fd)
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ---- lifecycle ---------------------------------------------------- *)

let bind_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let bind_tcp host port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

(* Well below the runtime's 128 domains, which must also hold the
   acceptor, the caller's own domain and any client domains in-process:
   a [Domain.spawn] that fails half-way would leave the listeners bound. *)
let max_workers = 64

let start cfg =
  if cfg.unix_path = None && cfg.tcp = None then
    invalid_arg "Serve.start: no listener configured";
  if cfg.workers > max_workers then
    invalid_arg
      (Printf.sprintf "Serve.start: workers %d > %d" cfg.workers max_workers);
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let unlink_paths = ref [] in
  let listeners = ref [] in
  (match cfg.unix_path with
  | Some p ->
    listeners := [ bind_unix p ];
    unlink_paths := [ p ]
  | None -> ());
  let port = ref None in
  (match cfg.tcp with
  | Some (host, p) ->
    let fd, bound = bind_tcp host p in
    listeners := !listeners @ [ fd ];
    port := Some bound
  | None -> ());
  let ctl_fd =
    match cfg.ctl_path with
    | Some p ->
      unlink_paths := p :: !unlink_paths;
      Some (bind_unix p)
    | None -> None
  in
  let nw = max 1 cfg.workers in
  let ws =
    Array.init nw (fun _ ->
        let r, wr = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock wr;
        { amu = Mutex.create (); incoming = Queue.create (); wake_r = r;
          wake_w = wr; dom = None })
  in
  let t =
    {
      cfg;
      g = totals ();
      stop_flag = Atomic.make false;
      listeners = !listeners;
      unlink_paths = !unlink_paths;
      ctl_fd;
      port = !port;
      ws;
      acceptor = None;
    }
  in
  Array.iter (fun w -> w.dom <- Some (Domain.spawn (fun () -> worker_loop t w))) ws;
  t.acceptor <- Some (Domain.spawn (fun () -> acceptor_loop t));
  t

let request_stop t =
  Atomic.set t.stop_flag true;
  Array.iter wake t.ws

let wait t =
  (match t.acceptor with
  | Some d ->
    Domain.join d;
    t.acceptor <- None
  | None -> ());
  Array.iter
    (fun w ->
      match w.dom with
      | Some d ->
        Domain.join d;
        w.dom <- None
      | None -> ())
    t.ws;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  (match t.ctl_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Array.iter
    (fun w ->
      (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
      try Unix.close w.wake_w with Unix.Unix_error _ -> ())
    t.ws;
  List.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    t.unlink_paths

let stop t =
  request_stop t;
  wait t
