(* Benchmark and experiment harness: regenerates every table and figure of
   the paper's evaluation, plus the design-choice ablations from DESIGN.md
   and the perf targets, each of which checks its own floors.

     dune exec bench/main.exe                    -- everything
     dune exec bench/main.exe -- table2          -- one experiment
     dune exec bench/main.exe -- -j 8 table2     -- matrix on 8 domains
   Experiments: table1 table2 figure3 table3 figure2 expansion dilation
                kernel_cpi distortion buffer_sweep pagemap corruption
                faults os_structure drain_ablation trace_format interp
                stream sweep store serve

   `interp`, `stream`, `sweep`, `store` and `serve` check each perf floor
   right after measuring it and print an `ok`/`FAIL` line; the harness
   exits non-zero after every requested experiment has run if any floor
   failed. *)

open Systrace
module Experiments = Systrace_validate.Experiments
module Table = Systrace_util.Table
module Pool = Systrace_util.Pool

let jobs = ref (Pool.default_jobs ())
let quick = ref false

let heading title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Perf floors that failed so far: one breach never hides a later floor,
   and the exit status reports them all. *)
let breaches = ref 0

let check_floor ok msg =
  Printf.printf "  %s %s\n%!" (if ok then "ok  " else "FAIL") msg;
  if not ok then incr breaches

(* [f ()] and its wall time, or with [~clock:Sys.time] its host CPU time
   in this process, which does not count time the host gave to other
   work *)
let timed ?(clock = Unix.gettimeofday) f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let run_matrix ~jobs () =
  let t0 = Unix.gettimeofday () in
  let m =
    Experiments.run_matrix ~jobs
      ~progress:(fun s ->
        Printf.eprintf "  [%6.1fs] running %s\n%!" (Unix.gettimeofday () -. t0) s)
      ()
  in
  Printf.eprintf "  matrix complete in %.1fs (%d jobs)\n%!"
    (Unix.gettimeofday () -. t0)
    jobs;
  m

(* The measured/predicted matrix is expensive; compute it once on demand. *)
let matrix = lazy (run_matrix ~jobs:!jobs ())

let exp_table1 () =
  heading "Table 1: experimental workloads";
  Table.print (Experiments.table1 ())

let exp_table2 () =
  heading "Table 2: run times, measured and predicted";
  Table.print (Experiments.table2 (Lazy.force matrix))

let exp_figure3 () =
  heading "Figure 3: error in predicted execution times (Ultrix)";
  Table.print (Experiments.figure3 (Lazy.force matrix))

let exp_table3 () =
  heading "Table 3: TLB misses, measured and predicted";
  Table.print (Experiments.table3 (Lazy.force matrix))

let exp_figure2 () =
  heading "Figure 2: instrumentation by epoxie";
  print_string (Experiments.figure2 ())

let exp_expansion () =
  heading "Text expansion: epoxie vs pixie (paper 3.2)";
  Table.print (Experiments.expansion_table ())

let exp_dilation () =
  heading "Time dilation of instrumented execution (paper 4.1)";
  Table.print (Experiments.dilation_table (Lazy.force matrix))

let exp_kernel_cpi () =
  heading "Kernel vs user CPI (paper 3.4)";
  Table.print (Experiments.kernel_cpi_table (Lazy.force matrix))

let exp_distortion () =
  heading "Instrumentation distortion of the traced system (paper 4.1)";
  Table.print (Experiments.distortion_table ())

let exp_buffer_sweep () =
  heading "Ablation: in-kernel buffer size vs analysis transitions (paper 4.3)";
  Table.print (Experiments.buffer_sweep_table ~jobs:!jobs ())

let exp_pagemap () =
  heading "Ablation: page-mapping policy sensitivity (paper 4.4)";
  Table.print (Experiments.pagemap_table ~jobs:!jobs ())

let exp_corruption () =
  heading "Defensive tracing: fault injection (paper 4.3)";
  Table.print (Experiments.corruption_table ())

let exp_faults () =
  heading "Defensive tracing: fault kind x injection rate sweep (paper 4.3)";
  let table =
    if !quick then Experiments.faults_table ~trials:8 ~rates:[ 1e-3 ] ()
    else Experiments.faults_table ()
  in
  Table.print table

let exp_os_structure () =
  heading "OS structure vs memory behaviour (companion study [7])";
  Table.print (Experiments.os_structure_table (Lazy.force matrix))

let exp_drain_ablation () =
  heading "Ablation: drain-on-kernel-entry vs flush-when-full (paper 3.1)";
  Table.print (Experiments.drain_ablation_table ())

(* Trace-format ablation (DESIGN.md): one-word records vs Tunix-style
   records that carry the block length inline. *)
let exp_trace_format () =
  heading "Ablation: trace format density (one-word vs Tunix records)";
  let e = Workloads.Suite.find "egrep" in
  let words, run =
    capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files
  in
  let s = run.parse_stats in
  let t =
    Table.create ~title:"" ~headers:[ "format"; "words"; "bytes/instruction" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
  in
  let insts = float_of_int s.Tracing.Parser.insts in
  let one_word = Array.length words in
  (* A Tunix record is the block's word plus its inline length: one
     extra word per block record, the law test_epoxie's "mahler: trace
     fatter than epoxie" checks on Mahler's own instrumentation. *)
  let tunix = one_word + s.Tracing.Parser.bb_records in
  Table.add_row t
    [ "one-word records (Ultrix/Mach)"; string_of_int one_word;
      Printf.sprintf "%.2f" (4.0 *. float_of_int one_word /. insts) ];
  Table.add_row t
    [ "record + length (Tunix)"; string_of_int tunix;
      Printf.sprintf "%.2f" (4.0 *. float_of_int tunix /. insts) ];
  (* and the stored-trace density of the v3 file `dump` writes ("the
     trace takes less space and less time to write", 3.5 — here applied
     to the tape of 3.4) *)
  let zbytes =
    let path = Filename.temp_file "systrace_format" ".strc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Tracing.Tracefile.save path words;
        (Unix.stat path).Unix.st_size)
  in
  Table.add_row t
    [ Printf.sprintf "one-word, compressed (%.1fx)"
        (4.0 *. float_of_int one_word /. float_of_int zbytes);
      string_of_int ((zbytes + 3) / 4);
      Printf.sprintf "%.2f" (float_of_int zbytes /. insts) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Interpreter tiers on the traced suite                                *)

(* Interpreter tier ablation and oracle: host cost of step vs bcache over
   traced runs of the whole suite under both systems, each run's
   counters, console and trace asserted identical at both tiers (fails on
   the first that differs).  Floors the block cache's speedup over step
   in host CPU; the floor line prints both tiers' seconds, held or not. *)
let exp_interp () =
  heading "Interpreter execution tiers on the traced suite (step vs bcache)";
  let table, secs = Experiments.interp_ablation_table () in
  Table.print table;
  let step = List.assoc Machine.Uop.Step secs
  and bcache = List.assoc Machine.Uop.Bcache secs in
  check_floor (step /. bcache >= 5.5)
    (Printf.sprintf
       "bcache speedup over step %.2fx in traced-suite host cpu (step %.1fs, \
        bcache %.1fs) >= 5.50x"
       (step /. bcache) step bcache)

(* ------------------------------------------------------------------ *)
(* Streaming pipeline: online analysis vs whole-trace materialization   *)

(* The tentpole claim of the streaming refactor, measured: a full predict
   run analyses the trace online (each ANALYZE chunk drives the parser and
   memory simulation as it is drained), so peak resident trace words is
   bounded by the in-kernel buffer, not the trace length — and the stats
   must be exactly those of the materialized capture-then-replay path.
   Each side is the best of 3 repeats, alternating, so one slow phase of
   a shared host does not decide the ratio. *)
let exp_stream () =
  heading "Streaming pipeline: online analysis vs whole-trace materialization";
  let wname = if !quick then "egrep" else "tomcatv" in
  let e = Workloads.Suite.find wname in
  let spec =
    {
      Systrace_validate.Validate.wname;
      files = e.Workloads.Suite.files;
      programs = [ e.Workloads.Suite.program () ];
    }
  in
  let buf_words =
    Systrace_kernel.Builder.default_config.Systrace_kernel.Builder.trace_buf_bytes
    / 4
  in
  let best_capture = ref infinity and best_replay = ref infinity
  and best_mat = ref infinity and best_stream = ref infinity in
  let trace_words = ref 0 and peak = ref 0 in
  for r = 1 to 3 do
    (* materialized: capture the whole trace into an array, replay
       offline *)
    let (words, run), t_capture =
      timed (fun () ->
          capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)
    in
    let memsim_cfg = default_memsim_cfg ~system:run.system in
    let (mem_m, _), t_replay =
      timed (fun () -> replay ~system:run.system ~memsim_cfg words)
    in
    (* streamed: the same run with parse+simulate online during
       generation *)
    let p, t_stream =
      timed (fun () -> Validate.predict ~arith_stalls:0 Validate.Ultrix spec)
    in
    (* identical analysis results, or the streaming path is broken *)
    if p.Validate.p_parse <> run.parse_stats then
      failwith "stream: online parse stats differ from materialized run";
    if p.Validate.p_mem <> mem_m then
      failwith "stream: online memory-simulation stats differ from replay";
    if p.Validate.p_peak_words > buf_words then
      failwith
        (Printf.sprintf
           "stream: peak resident words %d exceed buffer (%d words)"
           p.Validate.p_peak_words buf_words);
    let t_mat = t_capture +. t_replay in
    Printf.printf
      "  repeat %d: materialized %.2fs (capture %.2fs + replay %.2fs), \
       streamed %.2fs\n"
      r t_mat t_capture t_replay t_stream;
    if t_mat < !best_mat then begin
      best_mat := t_mat;
      best_capture := t_capture;
      best_replay := t_replay
    end;
    best_stream := Float.min !best_stream t_stream;
    trace_words := Array.length words;
    peak := p.Validate.p_peak_words
  done;
  let trace_words = !trace_words and peak = !peak in
  let ratio = !best_stream /. !best_mat in
  Printf.printf
    "workload %s: %d trace words, best of 3 each\n\
    \  materialized: capture %.2fs + replay %.2fs (%.2f Mwords/s), %d words \
     resident\n\
    \  streamed:     %.2fs end-to-end (%.2fx of materialized), peak %d words \
     resident (%.1f%% of trace, buffer holds %d)\n\
    \  parse and memory-simulation stats identical on both paths\n"
    wname trace_words !best_capture !best_replay
    (float_of_int trace_words /. !best_replay /. 1e6)
    trace_words !best_stream ratio peak
    (100.0 *. float_of_int peak /. float_of_int trace_words)
    buf_words;
  check_floor (ratio <= 1.5)
    (Printf.sprintf "streamed/materialized wall %.2fx <= 1.50x" ratio)

(* ------------------------------------------------------------------ *)
(* Single-pass multi-configuration sweep (Memsim.sweep)                 *)

(* The honest unit of comparison is a single-configuration PASS:
   generate the trace and analyse it online, which is what the streaming
   pipeline does in real use (the trace is never materialized, and
   generation dominates the wall).  Evaluating K configurations the old
   way costs K such passes; the sweep costs one generation plus a
   one-pass multi-configuration analysis.  "work saved"
   = K * single-pass time / sweep time is the reduction over the K
   independent runs the sweep replaces.  Every time here is host CPU
   time of this process, so the host's other work does not count.

   "Engine work" is the K-configuration analysis (parse included) over
   one configuration's: what the engine shares.  One analysis of egrep
   takes 6-20 ms, so single analyses let a slow phase of a shared host
   decide the ratio.  Each of 5 repeats therefore runs the two analyses
   back to back, each time the one that has run for less, until each
   has run [min_side_s]: both sides see the same phases of the host.
   A repeat's ratio divides its two per-analysis times, and the floor
   reads the median of the five.  The pass and work-saved floors take
   each side's best per-analysis time.  The engine floor is set per
   trace from runs on a 2-core container, with margin: the engine read
   2.14-2.36x on egrep over 200 runs and 3.16-3.44x on tomcatv over
   three, while on egrep an engine that shares no cache geometry across
   TLB sizes read 3.63-3.87x and one that runs every write buffer at
   every store 2.55-2.74x, 20 runs each (EXPERIMENTS.md).  The share of
   stores that ran the write buffers is printed beside it. *)
let min_side_s = 0.25

let exp_sweep () =
  heading "Multi-configuration sweep: one trace pass vs per-config passes";
  let wname = if !quick then "egrep" else "tomcatv" in
  let e = Workloads.Suite.find wname in
  let (words, run), t_capture =
    timed ~clock:Sys.time (fun () ->
        capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)
  in
  let base = default_memsim_cfg ~system:run.system in
  (* the 4 x 3 x 3 x 2 grid of the README results table *)
  let grid =
    Tracesim.Memsim.grid ~base
      ~sizes:[ 4096; 8192; 16384; 65536 ]
      ~lines:[ 4; 16; 32 ]
      ~tlb_entries:[ 16; 32; 64 ]
      ~wb_depths:[ 2; 4 ] ()
  in
  let cfgs = List.map snd grid in
  let k = List.length cfgs in
  let analyse cfgs =
    let sw = Tracesim.Memsim.sweep cfgs in
    let sink =
      Tracesim.Memsim.sweep_sink sw (Kernel.Builder.trace_parser run.system)
    in
    sink.Tracing.Sink.on_words words ~len:(Array.length words);
    (Tracesim.Memsim.sweep_stats sw, Tracesim.Memsim.sweep_lane_work sw)
  in
  (* One repeat: the last K-configuration result, and each side's time
     per analysis and count. *)
  let repeat () =
    let t1 = ref 0.0 and n1 = ref 0 and tk = ref 0.0 and nk = ref 0 in
    let last = ref None in
    while !t1 < min_side_s || !tk < min_side_s do
      if !t1 <= !tk then begin
        let _, dt = timed ~clock:Sys.time (fun () -> analyse [ base ]) in
        t1 := !t1 +. dt;
        incr n1
      end
      else begin
        let r, dt = timed ~clock:Sys.time (fun () -> analyse cfgs) in
        tk := !tk +. dt;
        incr nk;
        last := Some r
      end
    done;
    (Option.get !last, !t1 /. float_of_int !n1, !n1, !tk /. float_of_int !nk, !nk)
  in
  let t_replay = ref infinity and t_sweep_replay = ref infinity in
  let ratios = ref [] and swept = ref [||] and lane_work = ref (0, 0) in
  for r = 1 to 5 do
    let (stats, work), t1, n1, tk, nk = repeat () in
    Printf.printf
      "  repeat %d: one configuration %.4fs (%d analyses), %d configurations \
       %.4fs (%d analyses): %.2fx\n"
      r t1 n1 k tk nk (tk /. t1);
    t_replay := Float.min !t_replay t1;
    t_sweep_replay := Float.min !t_sweep_replay tk;
    ratios := (tk /. t1) :: !ratios;
    swept := stats;
    lane_work := work
  done;
  let t_replay = !t_replay and t_sweep_replay = !t_sweep_replay in
  let ran, stores = !lane_work in
  (* spot-check the sweep against independent single-config replays on a
     few grid points (the qcheck and validate suites prove the full
     equivalence; this guards the numbers printed below) *)
  List.iteri
    (fun i cfg ->
      if i mod (max 1 (k / 3)) = 0 then begin
        let mem, _ = replay ~system:run.system ~memsim_cfg:cfg words in
        if mem <> !swept.(i) then
          failwith
            (Printf.sprintf
               "sweep: config %d differs from its single-config replay" i)
      end)
    cfgs;
  let t_single_pass = t_capture +. t_replay in
  let t_sweep_pass = t_capture +. t_sweep_replay in
  let ratio = t_sweep_pass /. t_single_pass in
  let saved = float_of_int k *. t_single_pass /. t_sweep_pass in
  let engine = List.nth (List.sort compare !ratios) 2 in
  Printf.printf
    "workload %s: %d trace words, %d configurations; 5 repeats of >= %.2fs \
     of analysis a side, host CPU\n\
    \  single-config pass: generate %.2fs + analyse %.4fs = %.2fs\n\
    \  sweep pass:         generate %.2fs + analyse %.4fs = %.2fs (%.2fx one \
     pass)\n\
    \  engine work: %d configs = %.2fx one config's analysis (median repeat)\n\
    \  write buffers run at %d of %d trace stores x TLB groups (%.1f%%)\n\
    \  work saved over %d independent passes: %.1fx\n"
    wname (Array.length words) k min_side_s t_capture t_replay t_single_pass
    t_capture t_sweep_replay t_sweep_pass ratio k engine ran stores
    (100.0 *. float_of_int ran /. float_of_int (max 1 stores))
    k saved;
  check_floor (ratio <= 2.0)
    (Printf.sprintf "sweep pass %.2fx <= 2.00x one single-config pass" ratio);
  check_floor (saved >= 5.0)
    (Printf.sprintf "sweep work saved %.1fx >= 5.0x over independent passes"
       saved);
  let engine_floor = if !quick then 2.5 else 4.2 in
  check_floor (engine <= engine_floor)
    (Printf.sprintf
       "sweep engine work %.2fx <= %.2fx one config's analysis"
       engine engine_floor)

(* ------------------------------------------------------------------ *)
(* Trace store: v3 pack/unpack throughput, compression ratio, indexed   *)
(* seek latency, and the full decode.                                   *)

let exp_store () =
  heading "Trace store: v3 throughput, ratio, seek latency, full decode";
  let wname = if !quick then "egrep" else "tomcatv" in
  let e = Workloads.Suite.find wname in
  let (words, _run), t_capture =
    timed (fun () ->
        capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)
  in
  let n = Array.length words in
  let nf = float_of_int n in
  let path = Filename.temp_file "systrace_store" ".strc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* best-of-3 wall times: shared hosts jitter run to run *)
      let best f =
        let t = ref infinity in
        for _ = 1 to 3 do
          let _, dt = timed f in
          if dt < !t then t := dt
        done;
        !t
      in
      let t_pack =
        best (fun () ->
            Tracing.Tracefile.save path words)
      in
      let bytes =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        close_in ic;
        len
      in
      let ratio = 4.0 *. nf /. float_of_int bytes in
      let t_unpack =
        best (fun () ->
            if Array.length (Tracing.Tracefile.load path) <> n then
              failwith "store: v3 load lost words")
      in
      (* full decode through the chunked reader, checksummed so a
         silently wrong decode fails the bench *)
      let sum = Array.fold_left ( + ) 0 words in
      let add acc (a : int array) ~len =
        let s = ref acc in
        for i = 0 to len - 1 do
          s := !s + Array.unsafe_get a i
        done;
        !s
      in
      let t_seq =
        best (fun () ->
            if Tracing.Tracefile.fold_words path ~init:0 ~f:add <> sum then
              failwith "store: full fold checksum mismatch")
      in
      (* seek latency: a 1K-word window in the middle of the trace — the
         index jumps to the covering block instead of decoding from the
         start (open + index read + binary search + one or two blocks) *)
      let from = n / 2 in
      let until = min n (from + 1024) in
      let window_sum =
        Tracing.Tracefile.fold_words ~from ~until path ~init:0 ~f:add
      in
      let reps = 25 in
      let t_seek =
        best (fun () ->
            for _ = 1 to reps do
              if
                Tracing.Tracefile.fold_words ~from ~until path ~init:0 ~f:add
                <> window_sum
              then failwith "store: seek window checksum mismatch"
            done)
        /. float_of_int reps
      in
      Printf.printf
        "workload %s: %d trace words (capture %.2fs)\n\
        \  v3 file: %d bytes, %.2fx smaller than raw\n\
        \  pack %.3fs (%.2f Mwords/s), unpack %.3fs (%.2f Mwords/s)\n\
        \  mid-trace 1K-word window: %.2f ms/seek vs %.3fs full decode\n"
        wname n t_capture bytes ratio t_pack
        (nf /. t_pack /. 1e6)
        t_unpack
        (nf /. t_unpack /. 1e6)
        (1e3 *. t_seek) t_seq;
      check_floor (ratio >= 4.5)
        (Printf.sprintf "store v3 compression ratio %.2fx >= 4.50x" ratio))

(* ------------------------------------------------------------------ *)
(* Trace-ingest daemon: loopback load generator                         *)

(* The serving analog of the paper's keep-up problem, measured: N
   concurrent clients send a captured trace, held in memory, at
   `systrace serve` over loopback TCP, each stream scanned online as its
   socket reads arrive.  The clients only frame words, so the rates are
   the daemon's (wire decode, scan and socket), not a stored file's
   decode.  Reports single-stream vs aggregate ingest (the multiplexing
   win), streams/s, p99 drain latency, and peak resident words, then
   runs a torn-frame fault suite against the live daemon and checks the
   daemon's floors on what it measured. *)
let exp_serve () =
  heading "Trace-ingest daemon: concurrent loopback streams";
  let wname = if !quick then "egrep" else "tomcatv" in
  let e = Workloads.Suite.find wname in
  let (words, _run), t_capture =
    timed (fun () ->
        capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)
  in
  let n = Array.length words in
  let nstreams = 8 in
  let workers = Pool.effective_jobs ~jobs:(max 2 !jobs) nstreams in
  let cfg =
    {
      (Serve.Server.default_config Serve.Server.scan_pipeline) with
      Serve.Server.tcp = Some ("127.0.0.1", 0);
      workers;
    }
  in
  let t = Serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop t)
    (fun () ->
      let port = Option.get (Serve.Server.tcp_port t) in
      let addr = Serve.Client.Tcp ("127.0.0.1", port) in
      let stream () =
        match Serve.Client.run addr words with
        | Some r when r.Serve.Client.r_words = n -> r
        | Some r ->
          failwith
            (Printf.sprintf "serve: stream echoed %d of %d words"
               r.Serve.Client.r_words n)
        | None -> failwith "serve: stream rejected"
      in
      (* single stream, best of 3: the per-connection pipeline's own
         ingest ceiling *)
      let t_single = ref infinity in
      for _ = 1 to 3 do
        let _, dt = timed stream in
        if dt < !t_single then t_single := dt
      done;
      (* N concurrent clients, one domain each, all sending the same
         trace *)
      let _, t_concurrent =
        timed (fun () ->
            let doms = List.init nstreams (fun _ -> Domain.spawn stream) in
            List.map Domain.join doms)
      in
      (* fault suite against the live daemon: truncated streams cut
         at deterministic byte offsets must come back as structured
         wire diagnoses, with clean streams still served after *)
      let rng = Systrace_util.Rng.create 7 in
      let bytes = Serve.Wire.encode ~frame_words:4096 words in
      let faults = 10 in
      for _ = 1 to faults do
        let cut = Systrace_util.Rng.int rng (String.length bytes) in
        ignore
          (Serve.Client.send_raw addr (String.sub bytes 0 cut)
            : string option)
      done;
      ignore (stream () : Serve.Client.reply);
      (* wait for the fault-suite connections to finish server-side *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec quiesce () =
        let s = Serve.Server.stats t in
        if s.Serve.Server.streams_active = 0 then s
        else if Unix.gettimeofday () > deadline then
          failwith "serve: daemon did not quiesce"
        else begin
          Unix.sleepf 0.02;
          quiesce ()
        end
      in
      let s = quiesce () in
      let nf = float_of_int n in
      let single_wps = nf /. !t_single in
      let agg_wps = float_of_int (nstreams * n) /. t_concurrent in
      let sps = float_of_int nstreams /. t_concurrent in
      Printf.printf
        "workload %s: %d trace words (capture %.2fs), %d workers\n\
        \  single stream: %.3fs (%.2f Mwords/s)\n\
        \  %d concurrent streams: %.3fs -> %.2f streams/s, %.2f \
         Mwords/s aggregate (%.2fx single)\n\
        \  drain latency p50 %.3fms p99 %.3fms max %.3fms\n\
        \  peak resident %d words/stream, %d drains, %d torn streams \
         diagnosed\n"
        wname n t_capture workers !t_single (single_wps /. 1e6) nstreams
        t_concurrent sps (agg_wps /. 1e6) (agg_wps /. single_wps)
        (1e3 *. s.Serve.Server.drain_p50)
        (1e3 *. s.Serve.Server.drain_p99)
        (1e3 *. s.Serve.Server.drain_max)
        s.Serve.Server.peak_resident_words s.Serve.Server.drains
        s.Serve.Server.streams_faulted;
      (* the daemon's totals cover every stream above, so a decoded
         word that any of them failed to hand its pipeline shows here *)
      check_floor
        (s.Serve.Server.words_analyzed = s.Serve.Server.words_in)
        (Printf.sprintf "serve words analyzed %d = words in %d"
           s.Serve.Server.words_analyzed s.Serve.Server.words_in);
      check_floor (s.Serve.Server.drain_p99 <= 0.5)
        (Printf.sprintf "serve p99 drain latency %.1fms <= 500.0ms"
           (1e3 *. s.Serve.Server.drain_p99));
      check_floor (sps >= 0.5)
        (Printf.sprintf "serve %.2f streams/s >= 0.50 streams/s" sps);
      (* concurrent scaling needs cores to scale onto: with fewer
         workers the aggregate measures multiplexing overhead, not
         parallel ingest *)
      if workers < 4 then
        Printf.printf
          "  skip serve aggregate/single floor (ran with %d worker(s); \
           needs >= 4)\n"
          workers
      else
        check_floor (agg_wps /. single_wps >= 2.0)
          (Printf.sprintf
             "serve aggregate ingest %.2fx >= 2.00x single stream (%d \
              workers)"
             (agg_wps /. single_wps) workers);
      check_floor (s.Serve.Server.streams_faulted >= faults)
        (Printf.sprintf
           "serve fault suite: %d torn stream(s) diagnosed >= %d"
           s.Serve.Server.streams_faulted faults))

let experiments =
  [
    ("table1", exp_table1);
    ("table2", exp_table2);
    ("figure3", exp_figure3);
    ("table3", exp_table3);
    ("figure2", exp_figure2);
    ("expansion", exp_expansion);
    ("dilation", exp_dilation);
    ("kernel_cpi", exp_kernel_cpi);
    ("distortion", exp_distortion);
    ("buffer_sweep", exp_buffer_sweep);
    ("pagemap", exp_pagemap);
    ("corruption", exp_corruption);
    ("faults", exp_faults);
    ("os_structure", exp_os_structure);
    ("drain_ablation", exp_drain_ablation);
    ("trace_format", exp_trace_format);
    ("interp", exp_interp);
    ("stream", exp_stream);
    ("sweep", exp_sweep);
    ("store", exp_store);
    ("serve", exp_serve);
  ]

let usage () =
  Printf.eprintf
    "usage: %s [-j N] [experiment] [--quick]\n\
     available: %s\n\
     -j N      run the experiment matrix on N domains (default %d)\n\
     --quick   (with faults/stream/sweep/store/serve) smaller\n\
    \          runs, for CI smoke\n\
     interp, stream, sweep, store and serve check their perf floors and\n\
     the exit status is 1 if any floor failed\n"
    Sys.argv.(0)
    (String.concat " " (List.map fst experiments))
    (Pool.default_jobs ());
  exit 1

let () =
  let name = ref None in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | _ -> usage ())
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | arg :: rest when List.mem_assoc arg experiments && !name = None ->
      name := Some arg;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !name with
  | None -> List.iter (fun (_, f) -> f ()) experiments
  | Some name -> (List.assoc name experiments) ());
  if !breaches > 0 then begin
    Printf.eprintf "%d perf floor(s) failed\n" !breaches;
    exit 1
  end
