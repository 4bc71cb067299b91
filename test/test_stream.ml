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
    (fun compress ->
      let path = Filename.temp_file "systrace_stream" ".strc" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          (* store through the streaming writer, replay through the
             chunked reader: no whole-array round trip on either side *)
          let sink = Tracing.Sink.to_file ~compress path in
          List.iter
            (fun pos ->
              let len = min 10_000 (Array.length words - pos) in
              sink.Tracing.Sink.on_words (Array.sub words pos len) ~len)
            (List.init
               ((Array.length words + 9_999) / 10_000)
               (fun i -> i * 10_000));
          sink.Tracing.Sink.finish ();
          let streamed =
            replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) path
          in
          Alcotest.(check bool)
            (Printf.sprintf "replay_file == replay (compress=%b)" compress)
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
     and neither a parallel block decode nor a sweep spread over several
     domains may change them *)
  let words, run, base = baseline () in
  let with_tmp f =
    let path = Filename.temp_file "systrace_v3" ".strc" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  with_tmp (fun p2 ->
      with_tmp (fun p3 ->
          Oracles.Tracefile_v2.save p2 words;
          Tracing.Tracefile.save ~compress:true p3 words;
          let r2 = replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) p2 in
          let r3 = replay_file ~system:run.system ~memsim_cfg:(memsim_cfg run) p3 in
          Alcotest.(check bool) "v2 replay == baseline" true (r2 = base);
          Alcotest.(check bool) "v3 replay == v2 replay" true (r3 = r2);
          let cfgs = [ default_memsim_cfg ~system:run.system ] in
          let sweep_seq =
            replay_sweep_file ~system:run.system ~memsim_cfgs:cfgs p3
          in
          let sweep_par =
            replay_sweep_file ~jobs:3 ~system:run.system ~memsim_cfgs:cfgs p3
          in
          Alcotest.(check bool)
            "sweep on 3 domains == sequential sweep" true
            (sweep_par = sweep_seq);
          (* the same trace through a 3-domain block decode *)
          let replay_par =
            let sink, result =
              replay_sink ~system:run.system ~memsim_cfg:(memsim_cfg run) ()
            in
            Tracing.Tracefile.fold_words ~jobs:3 p3 ~init:()
              ~f:(fun () ws ~len -> sink.Tracing.Sink.on_words ws ~len);
            result ()
          in
          Alcotest.(check bool)
            "parallel-decode replay == v2 replay" true (replay_par = r2)))

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
  ]
