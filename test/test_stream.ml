(* End-to-end streaming pipeline tests over a real traced system: the
   online (sink-driven) analysis path must produce results identical to
   the materialized capture-then-replay path, with peak resident trace
   words bounded by the ANALYZE chunk size instead of the trace length. *)

open Systrace

let check_int = Alcotest.(check int)

(* One egrep capture shared by the whole suite (the run itself is the
   expensive part). *)
let captured =
  lazy
    (let e = Workloads.Suite.find "egrep" in
     capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)

let memsim_cfg run = default_memsim_cfg ~system:run.system

(* The materialized baseline: whole-array replay. *)
let baseline () =
  let words, run = Lazy.force captured in
  (words, run, replay ~system:run.system ~memsim_cfg:(memsim_cfg run) words)

let test_replay_file_matches_replay () =
  let words, run, base = baseline () in
  List.iter
    (fun v3 ->
      let path = Filename.temp_file "systrace_stream" ".strc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          (* v3: store through the streaming writer, replay through the
             chunked reader, no whole-array round trip on either side;
             v1 (read-only) from the reference writer *)
          if v3 then begin
            let sink = Tracing.Sink.to_file path in
            List.iter
              (fun pos ->
                let len = min 10_000 (Array.length words - pos) in
                sink.Tracing.Sink.on_words (Array.sub words pos len) ~len)
              (List.init
                 ((Array.length words + 9_999) / 10_000)
                 (fun i -> i * 10_000));
            sink.Tracing.Sink.finish ()
          end
          else Oracles.Tracefile_v1.save path words;
          let streamed =
            replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) path
          in
          Alcotest.(check bool)
            (Printf.sprintf "replay_file == replay (v%d)" (if v3 then 3 else 1))
            true (streamed = base)))
    [ false; true ]

let prop_chunked_replay_matches =
  (* satellite: streamed parse+simulate == materialized stats on ARBITRARY
     chunk splits of a real system trace *)
  QCheck.Test.make ~count:20
    ~name:"stream: chunk-split replay == whole-array replay (egrep trace)"
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "<%d cut sizes>" (List.length l))
       QCheck.Gen.(list_size (int_range 1 5) (int_range 0 50_000)))
    (fun sizes ->
      let words, run, base = baseline () in
      let sink, result =
        replay_sink ~system:run.system ~memsim_cfg:(memsim_cfg run) ()
      in
      let n = Array.length words in
      let rec feed pos ss =
        if pos < n then begin
          let s, rest = match ss with s :: r -> (s, r) | [] -> (n, []) in
          let rest = if rest = [] then sizes else rest in
          let len = min (max 1 s) (n - pos) in
          sink.Tracing.Sink.on_words (Array.sub words pos len) ~len;
          feed (pos + len) rest
        end
      in
      feed 0 sizes;
      result () = base)

let test_predict_streams_bounded () =
  (* A full predict run analyses online: its parse stats equal the traced
     run's own parser, its memsim stats equal the materialized replay, and
     its peak resident chunk is the ANALYZE chunk size, not the trace. *)
  let words, run, (base_mem, _) = baseline () in
  let e = Workloads.Suite.find "egrep" in
  let spec =
    {
      Validate.wname = "egrep";
      files = e.Workloads.Suite.files;
      programs = [ e.Workloads.Suite.program () ];
    }
  in
  let p = Validate.predict ~arith_stalls:0 Validate.Ultrix spec in
  Alcotest.(check bool)
    "online parse stats == traced run's" true
    (p.Validate.p_parse = run.parse_stats);
  Alcotest.(check bool)
    "online memsim stats == materialized replay's" true
    (p.Validate.p_mem = base_mem);
  let chunk =
    Systrace_kernel.Builder.default_config.Systrace_kernel.Builder
    .analysis_chunk
  in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d words <= ANALYZE chunk %d" p.Validate.p_peak_words
       chunk)
    true
    (p.Validate.p_peak_words <= chunk);
  Alcotest.(check bool)
    "trace is much larger than the resident peak" true
    (Array.length words > p.Validate.p_peak_words)

let test_run_traced_sink_tee () =
  (* the sink hook on run_traced: one pass tees to counter + peak, totals
     agree with the parser's inventory *)
  let e = Workloads.Suite.find "egrep" in
  let counter, words_seen = Tracing.Sink.counting () in
  let pk, peak_words = Tracing.Sink.peak () in
  let run =
    run_traced
      ~sink:(Tracing.Sink.tee [ counter; pk ])
      [ e.Workloads.Suite.program () ]
      e.Workloads.Suite.files
  in
  check_int "sink saw every trace word" run.parse_stats.Tracing.Parser.words
    (words_seen ());
  let chunk =
    Systrace_kernel.Builder.default_config.Systrace_kernel.Builder
    .analysis_chunk
  in
  Alcotest.(check bool)
    (Printf.sprintf "largest chunk %d <= %d" (peak_words ()) chunk)
    true
    (peak_words () <= chunk)

let test_v3_replay_matches_v2 () =
  (* the v3 store is a pure container change: strict-mode parse results
     and memory-system stats off a v3 file must be byte-identical to the
     v2 file of the same capture (written by the reference v2 writer) —
     whether the replay reads the file itself or is fed by [fold_words] *)
  let words, run, base = baseline () in
  let with_tmp f =
    let path = Filename.temp_file "systrace_v3" ".strc" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  with_tmp (fun p2 ->
      with_tmp (fun p3 ->
          Oracles.Tracefile_v2.save p2 words;
          Tracing.Tracefile.save p3 words;
          let r2 = replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) p2 in
          let r3 = replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) p3 in
          Alcotest.(check bool) "v2 replay == baseline" true (r2 = base);
          Alcotest.(check bool) "v3 replay == v2 replay" true (r3 = r2);
          (* the same trace fed chunk by chunk through [fold_words] *)
          let replay_fold =
            let sink, result =
              replay_sink ~system:run.system ~memsim_cfg:(memsim_cfg run) ()
            in
            Tracing.Tracefile.fold_words p3 ~init:()
              ~f:(fun () ws ~len -> sink.Tracing.Sink.on_words ws ~len);
            result ()
          in
          Alcotest.(check bool)
            "fold-fed replay == v2 replay" true (replay_fold = r2)))

let test_run_traced_notrace () =
  (* a program built untraced runs uninstrumented under the traced
     kernel: it has no block table, so only the kernel's references are
     parsed, and the program's output is unchanged *)
  let e = Workloads.Suite.find "egrep" in
  let prog =
    {
      (e.Workloads.Suite.program ()) with
      Systrace_kernel.Builder.notrace = true;
    }
  in
  let user_refs = ref 0 and kernel_refs = ref 0 in
  let on_event = function
    | Inst { kernel; _ } | Data { kernel; _ } ->
      incr (if kernel then kernel_refs else user_refs)
  in
  let run = run_traced ~on_event [ prog ] e.Workloads.Suite.files in
  Alcotest.(check string) "console" "420" run.console;
  check_int "no user references" 0 !user_refs;
  Alcotest.(check bool) "kernel references traced" true (!kernel_refs > 0);
  Alcotest.(check bool)
    "kernel-only trace is shorter than the instrumented run's" true
    (run.parse_stats.Tracing.Parser.words
    < (snd (Lazy.force captured)).parse_stats.Tracing.Parser.words)

let test_run_traced_max_events () =
  (* [~max_events] hands [on_event] the unlimited run's first N
     references and no more; the parse itself is unchanged *)
  let e = Workloads.Suite.find "egrep" in
  let first ?max_events n =
    let seen = ref [] and count = ref 0 in
    let on_event ev =
      incr count;
      if !count <= n then seen := ev :: !seen
    in
    let run =
      run_traced ~on_event ?max_events
        [ e.Workloads.Suite.program () ]
        e.Workloads.Suite.files
    in
    (List.rev !seen, !count, run.parse_stats)
  in
  let limited, n_limited, stats = first ~max_events:25 25 in
  let leading, n_all, all_stats = first 25 in
  check_int "on_event saw 25 references" 25 n_limited;
  Alcotest.(check bool) "the unlimited run saw more" true (n_all > 25);
  Alcotest.(check bool) "the same first 25" true (limited = leading);
  Alcotest.(check bool) "the same parse" true (stats = all_stats)

(* The three trace fixtures and the egrep capture: real traces for the
   scan and fault-injection properties below. *)
let real_traces =
  lazy
    (Array.of_list
       (List.map
          (fun f -> Tracing.Tracefile.load (Fixture.path f))
          [ "fixture_v1.strc"; "fixture_v2.strc"; "fixture_v3.strc" ]
       @ [ fst (Lazy.force captured) ]))

let real_trace_names = [| "fixture_v1"; "fixture_v2"; "fixture_v3"; "egrep" |]

(* Faults.inject takes its sites only from the words it is given: on any
   prefix of a real trace, including one cut inside a drain payload, no
   kind raises, whether drawn mixed or applied alone. *)
let prop_faults_total_on_prefixes =
  QCheck.Test.make ~count:200
    ~name:"faults: inject never raises on a prefix of a real trace"
    (QCheck.make
       ~print:(fun (t, cut, seed) ->
         Printf.sprintf "<%s, cut %d, seed %d>" real_trace_names.(t) cut seed)
       QCheck.Gen.(
         triple (int_bound 3) (int_bound 1_000_000) (int_bound 1_000_000)))
    (fun (t, cut, seed) ->
      let words = (Lazy.force real_traces).(t) in
      let prefix = Array.sub words 0 (cut mod (Array.length words + 1)) in
      let rng = Systrace_util.Rng.create seed in
      ignore (Tracing.Faults.inject rng ~n:20 prefix);
      List.iter
        (fun kind -> ignore (Tracing.Faults.inject_one rng kind prefix))
        Tracing.Faults.all_kinds;
      true)

(* What [prop_scan_feed_oracle] scans. *)
type scan_input =
  | Salad of int list
  | Synthetic of int array  (* a valid trace from the tracing tests *)
  | Faulted of int * int * int  (* real trace, seed, faults injected *)

let scan_input_words = function
  | Salad l -> Array.of_list l
  | Synthetic ws -> ws
  | Faulted (t, seed, n) ->
    fst
      (Tracing.Faults.inject (Systrace_util.Rng.create seed) ~n
         (Lazy.force real_traces).(t))

let print_scan_input = function
  | Salad l -> Printf.sprintf "<salad of %d words>" (List.length l)
  | Synthetic ws -> Printf.sprintf "<valid trace of %d words>" (Array.length ws)
  | Faulted (t, seed, n) ->
    Printf.sprintf "<%s, %d faults, seed %d>" real_trace_names.(t) n seed

let gen_scan_input =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun l -> Salad l)
        (list_size (int_range 0 300)
           (oneof
              [
                map (fun i -> i land 0xFFFFFFFF) (int_bound max_int);
                map (fun i -> 0xBFFF0000 lor (i land 0xFFFF)) (int_bound max_int);
                map (fun i -> i land 0x7FFFFFFF) (int_bound max_int);
                int_range 0 20;
              ]));
      map (fun ws -> Synthetic ws) Test_tracing.gen_mixed_words;
      map
        (fun (t, seed, n) -> Faulted (t, seed, n))
        (triple (int_bound 3) (int_bound 1_000_000) (int_range 1 20));
    ]

(* The run loops of [Parser.scan_feed] report exactly what the
   word-at-a-time scanner reports: every diagnosis, with its position,
   source, drain, depth and message, whatever the chunking.  Each chunk
   is fed as the rest of the array with [~len] marking its end, so a
   feed that reads past [len] shows too. *)
let prop_scan_feed_oracle =
  QCheck.Test.make ~count:300
    ~name:"scanner: chunked scan_feed == word-at-a-time oracle"
    (QCheck.make
       ~print:(fun (input, sizes) ->
         Printf.sprintf "%s, chunks %s" (print_scan_input input)
           (String.concat "," (List.map string_of_int sizes)))
       QCheck.Gen.(
         pair gen_scan_input
           (list_size (int_range 1 6)
              (oneof [ int_range 1 13; int_range 1 5_000 ]))))
    (fun (input, sizes) ->
      let words = scan_input_words input in
      let n = Array.length words in
      let c = Tracing.Parser.scanner () in
      List.iter
        (fun (pos, len) ->
          Tracing.Parser.scan_feed c (Array.sub words pos (n - pos)) ~len)
        (Test_tracing.cuts_of sizes n);
      Tracing.Parser.scan_finish c = Oracles.Scan_word.scan words)

let tests =
  [
    Alcotest.test_case "replay_file == replay (both formats)" `Quick
      test_replay_file_matches_replay;
    Alcotest.test_case "v3 store: strict parse/memsim identical to v2, \
                        parallel decode identical" `Quick
      test_v3_replay_matches_v2;
    QCheck_alcotest.to_alcotest prop_chunked_replay_matches;
    Alcotest.test_case "predict: online analysis, bounded peak" `Quick
      test_predict_streams_bounded;
    Alcotest.test_case "run_traced sink tee totals" `Quick
      test_run_traced_sink_tee;
    Alcotest.test_case "run_traced: an untraced program, kernel-only parse"
      `Quick test_run_traced_notrace;
    Alcotest.test_case "run_traced: max_events drops the handlers" `Quick
      test_run_traced_max_events;
    QCheck_alcotest.to_alcotest prop_faults_total_on_prefixes;
    QCheck_alcotest.to_alcotest prop_scan_feed_oracle;
  ]
