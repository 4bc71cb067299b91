(* The [serve_ingest] workload: an in-process trace-ingest daemon on
   loopback TCP (the default scan pipeline, lossless, one worker per
   connection) driven by a closed loop of client connections, each
   sending its next stream only after the previous reply arrived.
   Streams cycle through the captured traces, sent chunk by chunk as
   they were drained; every 10th is instead a torn prefix of the encoded
   stream, cut at a seeded offset, sent with Client.send_raw.  Only wire
   decoding, the bounded queue and the worker loop run here. *)

open Common
module Server = Systrace_serve.Serve
module Client = Systrace_serve.Client
module Wire = Systrace_serve.Wire

type daemon = {
  server : Server.t;
  addr : Client.addr;
  traces : Capture.trace array;
  encoded : string array;  (** each trace as one wire stream, for tearing *)
  mutable sent : int;
  mutable torn : int;
}

(* closed-loop clients, never more than the cores *)
let connections () = max 1 (min 2 (Domain.recommended_domain_count ()))

let start traces =
  let traces = Array.of_list traces in
  let encoded =
    Array.map
      (fun (tr : Capture.trace) ->
        Span.with_ ~job:tr.Capture.job.id "serve.encode" (fun () ->
            Wire.encode (Array.concat (Array.to_list tr.Capture.chunks))))
      traces
  in
  let server =
    Span.with_ ~job:(-1) "serve.start" (fun () ->
        Server.start
          {
            (Server.default_config Server.scan_pipeline) with
            Server.tcp = Some ("127.0.0.1", 0);
            workers = connections ();
          })
  in
  let port = Option.get (Server.tcp_port server) in
  { server; addr = Client.Tcp ("127.0.0.1", port); traces; encoded; sent = 0; torn = 0 }

let stop d = Server.stop d.server

let clean_stream d k (tr : Capture.trace) check =
  let t0 = now () in
  let st =
    Span.with_ ~job:k "serve.client_send" (fun () ->
        let st = Client.start (Client.connect d.addr) in
        Array.iter (fun c -> Client.send st c ~off:0 ~len:(Array.length c)) tr.Capture.chunks;
        st)
  in
  let reply = Span.with_ ~job:k "serve.reply_wait" (fun () -> Client.finish_stream st) in
  let secs = now () -. t0 in
  (match reply with
  | Some r ->
    check (r.Client.r_words = perturb_once tr.Capture.words) "reply word count differs";
    check (r.Client.r_dropped_words = 0) "words dropped in lossless mode";
    check (r.Client.r_diagnoses = 0) "a clean stream was diagnosed"
  | None -> check false "clean stream rejected");
  sample ("stream " ^ tr.Capture.job.label) secs tr.Capture.words

let torn_stream ~seed d k bytes check =
  let cut = Systrace_util.Rng.int (Systrace_util.Rng.create ((seed * 1_000_003) + k))
      (String.length bytes) in
  let reply =
    Span.with_ ~job:k "serve.send_raw" (fun () -> Client.send_raw d.addr (String.sub bytes 0 cut))
  in
  check
    (match reply with Some l -> String.starts_with ~prefix:"err" l | None -> false)
    (Printf.sprintf "torn stream (cut at byte %d) not diagnosed" cut)

(* Run the closed loop for [seconds] and at least [min_streams] streams.
   Returns the clean-stream samples and the loop's wall time. *)
let run ~seed ~seconds ~min_streams d =
  let first = d.sent in
  let next = Atomic.make first in
  let lock = Mutex.create () in
  let samples = ref [] in
  let torn = Atomic.make 0 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client c () =
    Span.with_ ~job:(-1 - c) "bench.client" (fun () ->
        let rec loop () =
          let k = Atomic.fetch_and_add next 1 in
          if k - first < min_streams || now () < deadline then begin
            let tr = d.traces.(k mod Array.length d.traces) in
            if k mod 10 = 9 then begin
              Atomic.incr torn;
              attempt (Printf.sprintf "torn stream %d" k) (fun check ->
                  torn_stream ~seed d k d.encoded.(k mod Array.length d.traces) check)
            end
            else
              attempt (Printf.sprintf "stream %d (%s)" k tr.Capture.job.label) (fun check ->
                  let s = clean_stream d k tr check in
                  Mutex.protect lock (fun () -> samples := s :: !samples));
            loop ()
          end
        in
        loop ())
  in
  (* the main thread only waits here; the client threads' own spans
     account for this time *)
  Span.with_ ~job:(-1) "bench.join" (fun () ->
      List.init (connections ()) (fun c -> Thread.create (client c) ())
      |> List.iter Thread.join);
  let wall = now () -. t0 in
  d.sent <- Atomic.get next - connections ();
  d.torn <- d.torn + Atomic.get torn;
  (!samples, wall)

(* Wait for the daemon to finish every stream, then check its counters. *)
let final_stats d =
  let deadline = now () +. 10.0 in
  let rec quiesce () =
    let s = Span.with_ ~job:(-1) "serve.stats" (fun () -> Server.stats d.server) in
    if s.Server.streams_active = 0 || now () > deadline then s
    else begin
      Unix.sleepf 0.01;
      quiesce ()
    end
  in
  let s = quiesce () in
  attempt "daemon counters" (fun check ->
      check (s.Server.streams_active = 0) "daemon did not quiesce";
      check (s.Server.streams_total = d.sent) "daemon stream count differs from the streams sent";
      check (s.Server.words_dropped = 0) "words dropped in lossless mode";
      check (s.Server.streams_faulted = d.torn) "faulted streams differ from the torn ones sent");
  s
