(* The trace-ingest daemon: wire protocol totality, lossless
   backpressure, loopback round trips, and the fault-injection client
   suite (torn frames, truncation, abrupt disconnect) — the daemon must
   survive all of it with structured diagnoses, no exceptions, no
   hangs, and no leaked descriptors. *)

open Systrace

module Wire = Serve.Wire
module Server = Serve.Server
module Client = Serve.Client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

(* Decode a byte string through the incremental decoder, feeding it in
   pieces of the given sizes (cycled) and collecting into chunks of
   [dst_cap]; returns the words, the final status, and the eof
   classification.  Never raises whatever the input. *)
let decode_pieces ?(dst_cap = 97) bytes sizes =
  let src = Bytes.of_string bytes in
  let d = Wire.decoder () in
  let out = ref [] in
  let dst = Array.make dst_cap 0 in
  let pos = ref 0 in
  let n = Bytes.length src in
  let sizes = if sizes = [] then [ n ] else sizes in
  let szs = ref sizes in
  let next_size () =
    match !szs with
    | [] ->
      szs := sizes;
      List.hd sizes
    | s :: tl ->
      szs := tl;
      s
  in
  let last = ref Wire.Need_more in
  while !pos < n && (match !last with Wire.Fault _ -> false | _ -> true) do
    let len = min (max 1 (next_size ())) (n - !pos) in
    let src_pos = ref !pos in
    let src_len = !pos + len in
    let continue = ref true in
    while !continue do
      let dst_pos = ref 0 in
      let st =
        Wire.decode d ~src ~src_pos ~src_len ~dst ~dst_pos ~dst_len:dst_cap
      in
      for i = 0 to !dst_pos - 1 do
        out := dst.(i) :: !out
      done;
      last := st;
      match st with
      | Wire.Need_more -> continue := false
      | Wire.Fault _ -> continue := false
      | Wire.Stream_end -> if !src_pos >= src_len then continue := false
      | Wire.Dst_full -> ()
    done;
    pos := !src_pos
  done;
  (Array.of_list (List.rev !out), !last, Wire.eof_error d)

let gen_words =
  QCheck.Gen.(
    array_size (int_range 0 400)
      (oneof
         [
           int_range 0 0xFFFF;
           int_range 0x7FFFFFF0 0x8000000F;  (* around the sign bit *)
           int_range 0xFFFF0000 0xFFFFFFFF;
         ]))

let prop_wire_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire roundtrip under any re-chunking"
    QCheck.(
      make
        Gen.(
          triple gen_words (int_range 1 200)
            (list_size (int_range 1 12) (int_range 1 37))))
    (fun (ws, frame_words, sizes) ->
      let bytes = Wire.encode ~frame_words ws in
      let got, _, eof = decode_pieces bytes sizes in
      got = ws && eof = None)

let prop_wire_torn =
  QCheck.Test.make ~count:300 ~name:"torn wire stream: prefix + diagnosis"
    QCheck.(
      make
        Gen.(
          triple gen_words (int_range 1 100)
            (pair (int_range 0 10000) (int_range 1 23))))
    (fun (ws, frame_words, (cut_raw, piece)) ->
      let bytes = Wire.encode ~frame_words ws in
      let cut = cut_raw mod (String.length bytes + 1) in
      let torn = String.sub bytes 0 cut in
      let got, _, eof = decode_pieces torn [ piece ] in
      (* decoded words are a prefix of the original, and a cut anywhere
         before the end is classified as a structured diagnosis *)
      Array.length got <= Array.length ws
      && got = Array.sub ws 0 (Array.length got)
      && if cut = String.length bytes then eof = None else eof <> None)

let test_wire_faults () =
  (* bad magic *)
  let b = Buffer.create 16 in
  Buffer.add_int32_le b 0xDEADBEEFl;
  let _, st, _ = decode_pieces (Buffer.contents b) [ 4 ] in
  (match st with
  | Wire.Fault e ->
    check_bool "bad magic names state" true (e.Wire.state = "stream header")
  | _ -> Alcotest.fail "bad magic not a fault");
  (* unknown frame kind *)
  let b = Buffer.create 16 in
  Buffer.add_int32_le b (Int32.of_int Wire.magic);
  Buffer.add_int32_le b (Int32.of_int ((7 lsl 24) lor 3));
  let _, st, _ = decode_pieces (Buffer.contents b) [ 3 ] in
  (match st with
  | Wire.Fault e -> check_bool "kind fault" true (e.Wire.state = "frame header")
  | _ -> Alcotest.fail "unknown kind not a fault");
  (* END with a nonzero count *)
  let b = Buffer.create 16 in
  Buffer.add_int32_le b (Int32.of_int Wire.magic);
  Buffer.add_int32_le b (Int32.of_int ((1 lsl 24) lor 5));
  let _, st, _ = decode_pieces (Buffer.contents b) [ 5 ] in
  (match st with
  | Wire.Fault e -> check_bool "end fault" true (e.Wire.state = "END frame")
  | _ -> Alcotest.fail "bad END not a fault");
  (* trailing garbage after END *)
  let bytes = Wire.encode [| 1; 2; 3 |] ^ "zz" in
  let got, st, _ = decode_pieces bytes [ 7 ] in
  check_int "words before trailing garbage" 3 (Array.length got);
  (match st with
  | Wire.Fault e ->
    check_bool "trailing fault" true (e.Wire.state = "after END")
  | _ -> Alcotest.fail "trailing garbage not a fault");
  (* out-of-range word refused at the encoder *)
  Alcotest.check_raises "encoder refuses 2^32"
    (Invalid_argument
       "Wire.put_words: word 0 = 0x100000000 outside 32-bit range")
    (fun () -> ignore (Wire.encode [| 1 lsl 32 |]))

(* The client's bytes for a sequence of sends, captured through a
   socketpair: a reader domain takes everything until the client
   half-closes, then closes its end, so the client reads no reply. *)
let client_bytes words sends =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader =
    Domain.spawn (fun () ->
        let out = Buffer.create 65536 in
        let chunk = Bytes.create 65536 in
        let rec go () =
          match Unix.read b chunk 0 65536 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes out chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ();
        Unix.close b;
        Buffer.contents out)
  in
  let st = Client.start a in
  List.iter (fun (off, len) -> Client.send st words ~off ~len) sends;
  let reply = Client.finish_stream st in
  (reply, Domain.join reader)

(* The framing spelled out: the magic, each send's words in frames of at
   most 65536, then END. *)
let expected_stream words sends =
  let b = Buffer.create 1024 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  u32 Wire.magic;
  List.iter
    (fun (off, len) ->
      let sent = ref 0 in
      while !sent < len do
        let k = min 65536 (len - !sent) in
        u32 k;
        for i = off + !sent to off + !sent + k - 1 do
          u32 words.(i)
        done;
        sent := !sent + k
      done)
    sends;
  u32 (1 lsl 24);
  Buffer.contents b

(* Sends of these lengths, laid end to end over one array of random
   32-bit words. *)
let check_client_framing ~seed lens =
  let rng = Systrace_util.Rng.create seed in
  let total = List.fold_left ( + ) 0 lens in
  let words =
    Array.init (total + 3) (fun _ ->
        (Systrace_util.Rng.int rng 0x10000 lsl 16)
        lor Systrace_util.Rng.int rng 0x10000)
  in
  let sends =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) len -> (off + len, (off, len) :: acc))
            (0, []) lens))
  in
  let reply, bytes = client_bytes words sends in
  let got, _, eof = decode_pieces bytes [ 65536 ] in
  reply = None
  && bytes = expected_stream words sends
  && got = Array.sub words 0 total
  && eof = None

let test_client_framing () =
  check_bool "sends of 0, 1, 65536 and 65537 words" true
    (check_client_framing ~seed:1 [ 0; 1; 65536; 65537 ])

let prop_client_framing =
  QCheck.Test.make ~count:25
    ~name:"client bytes: magic, frames of at most 65536 per send, END"
    (QCheck.make
       ~print:(fun (lens, seed) ->
         Printf.sprintf "<sends %s, seed %d>"
           (String.concat "," (List.map string_of_int lens))
           seed)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 4)
              (oneof
                 [
                   oneofl [ 0; 1; 65535; 65536; 65537; 131073 ];
                   int_range 0 70_000;
                 ]))
           (int_bound 1_000_000)))
    (fun (lens, seed) -> check_client_framing ~seed lens)

(* ------------------------------------------------------------------ *)
(* The daemon over loopback sockets                                    *)

let tmp_name tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "systrace_%s_%d.sock" tag (Unix.getpid ()))

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Poll aggregated counters until no stream is active (abrupt
   disconnects finish asynchronously to the client's close). *)
let quiesce t =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let s = Server.stats t in
    if s.Server.streams_active = 0 then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon did not quiesce"
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let fixture_words = lazy (Tracing.Tracefile.load (Fixture.path "fixture_v3.strc"))

let test_loopback_roundtrip () =
  let path = tmp_name "rt" in
  let cfg =
    {
      (Server.default_config Server.scan_pipeline) with
      Server.unix_path = Some path;
      tcp = Some ("127.0.0.1", 0);
      workers = 2;
    }
  in
  with_server cfg (fun t ->
      let words = Lazy.force fixture_words in
      (* over the unix socket *)
      (match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "unix words echoed" (Array.length words) r.Client.r_words;
        check_int "unix lossless" 0 r.Client.r_dropped_words
      | None -> Alcotest.fail "unix stream rejected");
      (* over TCP, ephemeral port *)
      let port =
        match Server.tcp_port t with
        | Some p -> p
        | None -> Alcotest.fail "no tcp port"
      in
      (match Client.run (Client.Tcp ("127.0.0.1", port)) words with
      | Some r ->
        check_int "tcp words echoed" (Array.length words) r.Client.r_words
      | None -> Alcotest.fail "tcp stream rejected");
      let s = quiesce t in
      check_int "two streams" 2 s.Server.streams_total;
      check_int "all words in" (2 * Array.length words) s.Server.words_in;
      check_int "all words analyzed" (2 * Array.length words)
        s.Server.words_analyzed;
      check_int "no faulted streams" 0 s.Server.streams_faulted;
      (* the scan pipeline matches the offline checker on this fixture *)
      let sc = Tracing.Parser.scanner () in
      Tracing.Parser.scan_feed sc words ~len:(Array.length words);
      let offline = List.length (Tracing.Parser.scan_finish sc) in
      check_int "scan diagnoses match offline scan" (2 * offline)
        s.Server.diagnoses)

(* A deliberately slow consumer: the server must deliver every word in
   order however hard the client pushes, in chunks of at most 16384
   words, each socket read handed over before the next is taken. *)
let test_backpressure_lossless () =
  let received = Buffer.create 4096 in
  let mu = Mutex.create () in
  let factory () =
    let slow =
      Tracing.Sink.make (fun ws ~len ->
          Unix.sleepf 0.001;
          Mutex.lock mu;
          for i = 0 to len - 1 do
            Buffer.add_string received (string_of_int ws.(i));
            Buffer.add_char received ','
          done;
          Mutex.unlock mu)
    in
    {
      Server.sink = slow;
      diagnoses = (fun () -> 0);
    }
  in
  let path = tmp_name "bp" in
  let cfg =
    {
      (Server.default_config factory) with
      Server.unix_path = Some path;
      workers = 1;
    }
  in
  with_server cfg (fun t ->
      let n = 1 lsl 18 in
      let words = Array.init n (fun i -> (i * 7) land 0xFFFFFFFF) in
      (match Client.run (Client.Unix_path path) words with
      | Some r ->
        check_int "lossless: nothing dropped" 0 r.Client.r_dropped_words;
        check_int "lossless: every word" n r.Client.r_words
      | None -> Alcotest.fail "stream rejected");
      let s = quiesce t in
      check_int "analyzed everything" n s.Server.words_analyzed;
      check_int "every decoded word analyzed" s.Server.words_in
        s.Server.words_analyzed;
      check_bool
        (Printf.sprintf "peak resident %d within one chunk of 16384"
           s.Server.peak_resident_words)
        true
        (s.Server.peak_resident_words <= 16384);
      let expect =
        String.concat "" (List.init n (fun i -> string_of_int words.(i) ^ ","))
      in
      check_bool "delivered in order, nothing lost" true
        (Buffer.contents received = expect))

(* The fault-injection client suite: torn frames (byte-level cuts at
   Rng-chosen offsets), abrupt disconnects, and word-level truncation
   faults.  The daemon must answer every well-formed stream afterwards,
   classify every cut as a structured diagnosis, and leak nothing. *)
let test_torn_frames_and_disconnects () =
  let path = tmp_name "torn" in
  let cfg =
    {
      (Server.default_config Server.null_pipeline) with
      Server.unix_path = Some path;
      workers = 2;
    }
  in
  let baseline_fds = open_fds () in
  with_server cfg (fun t ->
      let rng = Systrace_util.Rng.create 42 in
      let words = Array.init 1_000 (fun i -> (i * 13) land 0xFFFFFFFF) in
      let bytes = Wire.encode ~frame_words:97 words in
      let cuts = ref 0 in
      for _ = 1 to 20 do
        let cut = Systrace_util.Rng.int rng (String.length bytes) in
        if cut < String.length bytes then incr cuts;
        (* send_raw half-closes and waits for the reply; a cut stream
           must come back as a structured "err" line, never a hang *)
        match Client.send_raw (Client.Unix_path path) (String.sub bytes 0 cut) with
        | Some line ->
          check_bool "torn stream answered with err" true
            (String.length line >= 3 && String.sub line 0 3 = "err")
        | None -> ()
      done;
      (* abrupt disconnects: close mid-stream without half-close *)
      for _ = 1 to 5 do
        let fd = Client.connect (Client.Unix_path path) in
        let cut = 4 + Systrace_util.Rng.int rng (String.length bytes - 4) in
        (try
           ignore (Unix.write_substring fd (String.sub bytes 0 cut) 0 cut)
         with Unix.Unix_error _ -> ());
        Unix.close fd
      done;
      (* word-level truncation via the Faults machinery: still a valid
         wire stream, so the reply is "ok" and the loss is upstream *)
      (match
         Systrace_tracing.Faults.inject_one rng Systrace_tracing.Faults.Truncate
           (Lazy.force fixture_words)
       with
      | Some (truncated, _) -> (
        match Client.run (Client.Unix_path path) truncated with
        | Some r ->
          check_int "truncated words all ingested" (Array.length truncated)
            r.Client.r_words
        | None -> Alcotest.fail "truncated stream rejected")
      | None -> ());
      let s = quiesce t in
      check_bool
        (Printf.sprintf "every cut diagnosed (%d faulted / %d cut)"
           s.Server.streams_faulted !cuts)
        true
        (s.Server.streams_faulted >= !cuts);
      (* the daemon still serves clean streams after the abuse *)
      match Client.run (Client.Unix_path path) words with
      | Some r -> check_int "alive after abuse" 1_000 r.Client.r_words
      | None -> Alcotest.fail "daemon dead after fault suite");
  (* every accepted connection's descriptor is back *)
  check_int "no leaked file descriptors" baseline_fds (open_fds ())

(* The full-parse pipeline, as `serve --pipeline parse -w egrep` builds
   it: each stream gets a recovery-mode parser over egrep's traced
   system.  egrep's own trace parses clean; sed's, read against egrep's
   block tables, is diagnosed. *)
let test_parse_pipeline () =
  let capture name =
    let b =
      Validate.system ~traced:true Validate.Ultrix
        (Experiments.spec_of (Workloads.Suite.find name))
    in
    let sink, words = Tracing.Sink.to_array () in
    Validate.run ~sink b;
    (b, words ())
  in
  let egrep, egrep_words = capture "egrep" in
  let _, sed_words = capture "sed" in
  let path = tmp_name "parse" in
  let cfg =
    {
      (Server.default_config
         (Server.to_parser_pipeline (fun () ->
              Kernel.Builder.trace_parser ~recover:true egrep)))
      with
      Server.unix_path = Some path;
    }
  in
  with_server cfg (fun t ->
      let diagnoses words =
        match Client.run (Client.Unix_path path) words with
        | Some r ->
          check_int "every word echoed" (Array.length words) r.Client.r_words;
          r.Client.r_diagnoses
        | None -> Alcotest.fail "stream rejected"
      in
      check_int "egrep's trace: diagnoses=0" 0 (diagnoses egrep_words);
      let wrong = diagnoses sed_words in
      check_bool
        (Printf.sprintf "sed's trace: diagnoses=%d > 0" wrong)
        true (wrong > 0);
      let s = quiesce t in
      check_int "no stream faulted" 0 s.Server.streams_faulted;
      check_int "daemon diagnoses are the pipeline's" wrong s.Server.diagnoses)

let test_ctl_stats_shutdown () =
  let path = tmp_name "ctl_d" in
  let ctl = tmp_name "ctl_c" in
  let cfg =
    {
      (Server.default_config Server.null_pipeline) with
      Server.unix_path = Some path;
      ctl_path = Some ctl;
    }
  in
  let t = Server.start cfg in
  let ask cmd =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX ctl);
        ignore (Unix.write_substring fd (cmd ^ "\n") 0 (String.length cmd + 1));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let b = Buffer.create 256 in
        let chunk = Bytes.create 256 in
        let rec go () =
          match Unix.read fd chunk 0 256 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ();
        Buffer.contents b)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  ignore (Client.run (Client.Unix_path path) [| 1; 2; 3 |]);
  let reply = ask "stats" in
  check_bool "stats reply lists totals" true (contains reply "streams_total 1");
  check_bool "stats reply lists words" true (contains reply "words_in 3");
  let bad = ask "frobnicate" in
  check_bool "unknown command refused" true
    (String.length bad >= 3 && String.sub bad 0 3 = "err");
  check_bool "shutdown acknowledged" true (String.trim (ask "shutdown") = "ok");
  (* the daemon exits on its own after a ctl shutdown *)
  Server.wait t;
  check_bool "socket path unlinked after wait" false (Sys.file_exists path)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_torn;
    Alcotest.test_case "wire faults are structured" `Quick test_wire_faults;
    Alcotest.test_case "client framing of edge-length sends" `Quick
      test_client_framing;
    QCheck_alcotest.to_alcotest prop_client_framing;
    Alcotest.test_case "loopback roundtrip (unix + tcp)" `Quick
      test_loopback_roundtrip;
    Alcotest.test_case "lossless backpressure bounds residency" `Quick
      test_backpressure_lossless;
    Alcotest.test_case "torn frames, disconnects, no fd leaks" `Quick
      test_torn_frames_and_disconnects;
    Alcotest.test_case "control socket stats and shutdown" `Quick
      test_ctl_stats_shutdown;
    Alcotest.test_case "parse pipeline diagnoses a foreign trace" `Quick
      test_parse_pipeline;
  ]
