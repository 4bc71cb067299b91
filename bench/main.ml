(* Benchmark and experiment harness: regenerates every table and figure of
   the paper's evaluation, plus the design-choice ablations from DESIGN.md
   and the perf targets the CI gate reads.

     dune exec bench/main.exe                    -- everything
     dune exec bench/main.exe -- table2          -- one experiment
     dune exec bench/main.exe -- -j 8 table2     -- matrix on 8 domains
     dune exec bench/main.exe -- table2 --timing -- serial vs parallel wall
                                                    time (and byte-identity)
   Experiments: table1 table2 figure3 table3 figure2 expansion dilation
                kernel_cpi distortion buffer_sweep pagemap corruption
                faults os_structure drain_ablation trace_format interp
                stream sweep store serve

   `interp`, `stream`, `sweep`, `store`, `serve` and `table2 --timing` merge
   machine-readable results into BENCH_micro.json at the repo root (one
   {target, name, unit, value, jobs} object per benchmark, sorted by
   target/name) so the perf trajectory is tracked across PRs; `--out F`
   redirects them to a named file instead.  `--gate` checks the recorded
   results against the CI perf floors after the requested experiments
   run and exits non-zero on a breach. *)

open Systrace
module Experiments = Systrace_validate.Experiments
module Table = Systrace_util.Table
module Pool = Systrace_util.Pool

let jobs = ref (Pool.default_jobs ())
let quick = ref false

let heading title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_matrix ?entries ~jobs () =
  let t0 = Unix.gettimeofday () in
  let m =
    Experiments.run_matrix ~jobs ?entries
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

(* Serial vs parallel wall time for the full matrix, with the rendered
   tables checked byte-for-byte identical. *)
let exp_table2_timing () =
  heading "Table 2 timing: serial vs parallel matrix";
  let entries =
    if !quick then
      List.filteri (fun i _ -> i < 3) Workloads.Suite.all
    else Workloads.Suite.all
  in
  let render m =
    Table.render (Experiments.table2 m) ^ Table.render (Experiments.table3 m)
  in
  let serial, t_serial = timed (fun () -> run_matrix ~entries ~jobs:1 ()) in
  let parallel, t_parallel =
    timed (fun () -> run_matrix ~entries ~jobs:!jobs ())
  in
  if render serial <> render parallel then
    failwith "table2 --timing: parallel tables differ from serial tables";
  Table.print (Experiments.table2 parallel);
  (* the pool caps workers at the hardware core count, so report the
     worker count that actually ran, not the -j request *)
  let eff = Pool.effective_jobs ~jobs:!jobs (2 * List.length entries) in
  Printf.printf
    "\nmatrix wall time: serial %.1fs, parallel (%d jobs requested, %d \
     effective) %.1fs -> %.2fx speedup; tables byte-identical\n"
    t_serial !jobs eff t_parallel (t_serial /. t_parallel);
  (* No "parallel speedup" entry: on a box where the pool degrades to one
     worker the ratio measures noise, not scaling.  The wall times stand
     on their own; the gated throughput claim is the sweep's work-saved
     metric, which does not depend on the host's core count. *)
  let entry = Bench_json.entry ~target:"table2" ~jobs:eff in
  Bench_json.record
    [
      entry ~name:"matrix serial" ~unit_:"s" t_serial;
      entry ~name:"matrix parallel" ~unit_:"s" t_parallel;
    ]

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
  let tunix = one_word + s.Tracing.Parser.bb_records in
  Table.add_row t
    [ "one-word records (Ultrix/Mach)"; string_of_int one_word;
      Printf.sprintf "%.2f" (4.0 *. float_of_int one_word /. insts) ];
  Table.add_row t
    [ "record + length (Tunix)"; string_of_int tunix;
      Printf.sprintf "%.2f" (4.0 *. float_of_int tunix /. insts) ];
  (* and the stored-trace density of the v3 file `dump -z` writes ("the
     trace takes less space and less time to write", 3.5 — here applied
     to the tape of 3.4) *)
  let zbytes =
    let path = Filename.temp_file "systrace_format" ".strc" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Tracing.Tracefile.save ~compress:true path words;
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
   the first that differs).  Records each tier's host CPU seconds and the
   block cache's speedup over step for the gate. *)
let exp_interp () =
  heading "Interpreter execution tiers on the traced suite (step vs bcache)";
  let table, secs = Experiments.interp_ablation_table () in
  Table.print table;
  let step = List.assoc Machine.Uop.Step secs
  and bcache = List.assoc Machine.Uop.Bcache secs in
  let entry = Bench_json.entry ~target:"interp" in
  Bench_json.record
    [
      entry ~name:"step host cpu" ~unit_:"s" step;
      entry ~name:"bcache host cpu" ~unit_:"s" bcache;
      entry ~name:"bcache speedup over step" ~unit_:"x" (step /. bcache);
    ]

(* ------------------------------------------------------------------ *)
(* Streaming pipeline: online analysis vs whole-trace materialization   *)

(* The tentpole claim of the streaming refactor, measured: a full predict
   run analyses the trace online (each ANALYZE chunk drives the parser and
   memory simulation as it is drained), so peak resident trace words is
   bounded by the in-kernel buffer, not the trace length — and the stats
   must be exactly those of the materialized capture-then-replay path. *)
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
  (* materialized: capture the whole trace into an array, replay offline *)
  let (words, run), t_capture =
    timed (fun () ->
        capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files)
  in
  let memsim_cfg = default_memsim_cfg ~system:run.system in
  let (mem_m, _), t_replay =
    timed (fun () -> replay ~system:run.system ~memsim_cfg words)
  in
  (* streamed: the same run with parse+simulate online during generation *)
  let p, t_stream =
    timed (fun () -> Validate.predict ~arith_stalls:0 Validate.Ultrix spec)
  in
  (* identical analysis results, or the streaming path is broken *)
  if p.Validate.p_parse <> run.parse_stats then
    failwith "stream: online parse stats differ from materialized run";
  if p.Validate.p_mem <> mem_m then
    failwith "stream: online memory-simulation stats differ from replay";
  let trace_words = Array.length words in
  let peak = p.Validate.p_peak_words in
  let buf_words =
    Systrace_kernel.Builder.default_config.Systrace_kernel.Builder.trace_buf_bytes
    / 4
  in
  if peak > buf_words then
    failwith
      (Printf.sprintf "stream: peak resident words %d exceed buffer (%d words)"
         peak buf_words);
  let wps = float_of_int trace_words /. t_replay in
  let t_mat = t_capture +. t_replay in
  Printf.printf
    "workload %s: %d trace words\n\
    \  materialized: capture %.2fs + replay %.2fs (%.2f Mwords/s), %d words \
     resident\n\
    \  streamed:     %.2fs end-to-end (%.2fx of materialized), peak %d words \
     resident (%.1f%% of trace, buffer holds %d)\n\
    \  parse and memory-simulation stats identical on both paths\n"
    wname trace_words t_capture t_replay (wps /. 1e6) trace_words t_stream
    (t_stream /. t_mat) peak
    (100.0 *. float_of_int peak /. float_of_int trace_words)
    buf_words;
  let entry = Bench_json.entry ~target:"stream" in
  Bench_json.record
    [
      entry ~name:"trace words" ~unit_:"words" (float_of_int trace_words);
      entry ~name:"peak resident words (streamed)" ~unit_:"words"
        (float_of_int peak);
      entry ~name:"replay throughput" ~unit_:"words/s" wps;
      entry ~name:"materialized wall" ~unit_:"s" t_mat;
      entry ~name:"streamed wall" ~unit_:"s" t_stream;
      entry ~name:"streamed/materialized" ~unit_:"x" (t_stream /. t_mat);
    ]

(* ------------------------------------------------------------------ *)
(* Single-pass multi-configuration sweep (Memsim.sweep)                 *)

(* The honest unit of comparison is a single-configuration PASS:
   generate the trace and analyse it online, which is what the streaming
   pipeline does in real use (the trace is never materialized, and
   generation dominates the wall).  Evaluating K configurations the old
   way costs K such passes; the sweep costs one generation plus a
   one-pass multi-configuration analysis.  "work saved"
   = K * single-pass wall / sweep wall is the wall-clock reduction over
   the K independent runs the sweep replaces — unlike the retired
   "parallel speedup" entry it does not depend on how many domains the
   host happens to have. *)
let exp_sweep () =
  heading "Multi-configuration sweep: one trace pass vs per-config passes";
  let wname = if !quick then "egrep" else "tomcatv" in
  let e = Workloads.Suite.find wname in
  let (words, run), t_capture =
    timed (fun () ->
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
  let _, t_replay =
    timed (fun () -> replay ~system:run.system ~memsim_cfg:base words)
  in
  (* replay_sweep, spelled out to learn how many domains simulated *)
  let (swept, domains), t_sweep_replay =
    timed (fun () ->
        let sw = Tracesim.Memsim.sweep cfgs in
        let sink =
          Tracesim.Memsim.sweep_sink sw (Kernel.Builder.trace_parser run.system)
        in
        sink.Tracing.Sink.on_words words ~len:(Array.length words);
        let stats = Tracesim.Memsim.sweep_stats sw in
        (stats, Tracesim.Memsim.sweep_domains sw))
  in
  (* spot-check the sweep against independent single-config replays on a
     few grid points (the qcheck and validate suites prove the full
     equivalence; this guards the numbers printed below) *)
  List.iteri
    (fun i cfg ->
      if i mod (max 1 (k / 3)) = 0 then begin
        let mem, _ = replay ~system:run.system ~memsim_cfg:cfg words in
        if mem <> swept.(i) then
          failwith
            (Printf.sprintf
               "sweep: config %d differs from its single-config replay" i)
      end)
    cfgs;
  let t_single_pass = t_capture +. t_replay in
  let t_sweep_pass = t_capture +. t_sweep_replay in
  let ratio = t_sweep_pass /. t_single_pass in
  let saved = float_of_int k *. t_single_pass /. t_sweep_pass in
  Printf.printf
    "workload %s: %d trace words, %d configurations\n\
    \  single-config pass: generate %.2fs + analyse %.3fs = %.2fs\n\
    \  sweep pass:         generate %.2fs + analyse %.3fs = %.2fs (%.2fx one \
     pass)\n\
    \  analysis alone: %.3fs for %d configs = %.2fx one config's analysis \
     (%d domains)\n\
    \  work saved over %d independent passes: %.1fx\n"
    wname (Array.length words) k t_capture t_replay t_single_pass t_capture
    t_sweep_replay t_sweep_pass ratio t_sweep_replay k
    (t_sweep_replay /. t_replay) domains k saved;
  (* the sweep's clusters run on up to the core count of domains: record
     the domains that actually ran *)
  let entry = Bench_json.entry ~target:"sweep" ~jobs:domains in
  Bench_json.record
    [
      entry ~name:"configs" ~unit_:"configs" (float_of_int k);
      entry ~name:"single-pass wall" ~unit_:"s" t_single_pass;
      entry ~name:"sweep wall" ~unit_:"s" t_sweep_pass;
      entry ~name:"sweep/single-pass" ~unit_:"x" ratio;
      entry ~name:"work saved" ~unit_:"x" saved;
      entry ~name:"sweep analysis/single analysis" ~unit_:"x"
        (t_sweep_replay /. t_replay);
    ]

(* ------------------------------------------------------------------ *)
(* Trace store: v3 pack/unpack throughput, compression ratio, indexed   *)
(* seek latency, and the parallel block decode.                         *)

let exp_store () =
  heading "Trace store: v3 throughput, ratio, seek latency, parallel decode";
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
      (* best-of-3 wall times: these floors gate CI on shared hosts *)
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
            Tracing.Tracefile.save ~compress:true path words)
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
      (* full decode through the chunked readers, sequential vs parallel,
         checksummed so a silently wrong decode fails the bench *)
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
              failwith "store: sequential fold checksum mismatch")
      in
      let nblocks =
        (n + Tracing.Tracefile.v3_block_words - 1)
        / Tracing.Tracefile.v3_block_words
      in
      let eff = Pool.effective_jobs ~jobs:!jobs nblocks in
      let t_par =
        best (fun () ->
            if
              Tracing.Tracefile.fold_words ~jobs:!jobs path ~init:0 ~f:add
              <> sum
            then failwith "store: parallel fold checksum mismatch")
      in
      let speedup = t_seq /. t_par in
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
        \  mid-trace 1K-word window: %.2f ms/seek vs %.3fs full decode\n\
        \  full fold: sequential %.3fs, parallel (%d worker(s)) %.3fs -> \
         %.2fx\n"
        wname n t_capture bytes ratio t_pack
        (nf /. t_pack /. 1e6)
        t_unpack
        (nf /. t_unpack /. 1e6)
        (1e3 *. t_seek) t_seq t_seq eff t_par speedup;
      let entry = Bench_json.entry ~target:"store" in
      (* A single-worker pool measures pool overhead, not scaling: don't
         publish a misleading sub-1x "speedup" row at all — the gate
         reads the worker count off "full decode (parallel)" and prints
         its skip note instead. *)
      let speedup_entries =
        if eff < 2 then begin
          Printf.printf
            "  (parallel decode speedup omitted: ran with %d worker(s))\n"
            eff;
          []
        end
        else [ entry ~jobs:eff ~name:"parallel decode speedup" ~unit_:"x"
                 speedup ]
      in
      Bench_json.record
        ([
           entry ~name:"trace words" ~unit_:"words" nf;
           entry ~name:"compression ratio (v3)" ~unit_:"x" ratio;
           entry ~name:"pack throughput" ~unit_:"words/s" (nf /. t_pack);
           entry ~name:"unpack throughput" ~unit_:"words/s" (nf /. t_unpack);
           entry ~name:"seek latency (1K window)" ~unit_:"s" t_seek;
           entry ~name:"full decode (sequential)" ~unit_:"s" t_seq;
           entry ~jobs:eff ~name:"full decode (parallel)" ~unit_:"s" t_par;
         ]
        @ speedup_entries))

(* ------------------------------------------------------------------ *)
(* Trace-ingest daemon: loopback load generator                         *)

(* The serving analog of the paper's keep-up problem, measured: N
   concurrent clients replay a captured v3 trace file at `systrace
   serve` over loopback TCP, each stream scanned online behind the
   bounded per-connection queue.  Reports single-stream vs aggregate
   ingest (the multiplexing win), streams/s, p99 drain latency, and
   peak resident words, then runs a torn-frame fault suite against the
   live daemon — all merged into BENCH_micro.json for the CI gate. *)
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
  let path = Filename.temp_file "systrace_serve" ".strc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracing.Tracefile.save ~compress:true path words;
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
          let stream_file () =
            match Serve.Client.run_file addr path with
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
            let r, dt = timed stream_file in
            if r.Serve.Client.r_dropped_words <> 0 then
              failwith "serve: lossless single stream dropped words";
            if dt < !t_single then t_single := dt
          done;
          (* N concurrent clients, one domain each, all replaying the
             same stored trace *)
          let replies, t_concurrent =
            timed (fun () ->
                let doms =
                  List.init nstreams (fun _ -> Domain.spawn stream_file)
                in
                List.map Domain.join doms)
          in
          List.iter
            (fun r ->
              if r.Serve.Client.r_dropped_words <> 0 then
                failwith "serve: lossless concurrent stream dropped words")
            replies;
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
          ignore (stream_file () : Serve.Client.reply);
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
          if s.Serve.Server.streams_faulted < faults then
            failwith "serve: torn streams not all diagnosed";
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
          let entry = Bench_json.entry ~target:"serve" in
          Bench_json.record
            [
              entry ~name:"trace words per stream" ~unit_:"words" nf;
              entry ~name:"concurrent streams" ~unit_:"streams"
                (float_of_int nstreams);
              entry ~name:"single-stream ingest" ~unit_:"words/s" single_wps;
              entry ~jobs:workers ~name:"aggregate ingest" ~unit_:"words/s"
                agg_wps;
              entry ~jobs:workers ~name:"aggregate/single" ~unit_:"x"
                (agg_wps /. single_wps);
              entry ~jobs:workers ~name:"streams per second" ~unit_:"streams/s"
                sps;
              entry ~name:"p99 drain latency" ~unit_:"s"
                s.Serve.Server.drain_p99;
              entry ~name:"peak resident words" ~unit_:"words"
                (float_of_int s.Serve.Server.peak_resident_words);
              entry ~name:"dropped words" ~unit_:"words"
                (float_of_int s.Serve.Server.words_dropped);
              entry ~name:"faulted streams diagnosed" ~unit_:"streams"
                (float_of_int s.Serve.Server.streams_faulted);
            ]))

(* ------------------------------------------------------------------ *)
(* CI perf gate: check the recorded results against hard floors.        *)

let gate () =
  heading "Perf gate";
  let file = Bench_json.path () in
  let entries = Bench_json.load file in
  let failures = ref [] in
  let check msg ok =
    Printf.printf "  %s %s\n" (if ok then "ok  " else "FAIL") msg;
    if not ok then failures := msg :: !failures
  in
  (* Every floor is evaluated — a missing entry counts as a failure, and a
     breach never hides the floors after it — then all failures are
     restated on stderr and the exit status is non-zero if any tripped. *)
  let floors =
    [
      (fun () ->
        match Bench_json.find entries "sweep" "sweep/single-pass" with
        | None ->
          check "sweep 'sweep/single-pass' missing (run `sweep` first)" false
        | Some e ->
          check
            (Printf.sprintf "sweep pass %.2fx <= 2.00x one single-config pass"
               e.Bench_json.value)
            (e.Bench_json.value <= 2.0));
      (fun () ->
        match Bench_json.find entries "sweep" "work saved" with
        | None -> check "sweep 'work saved' missing (run `sweep` first)" false
        | Some e ->
          check
            (Printf.sprintf
               "sweep work saved %.1fx >= 5.0x over independent passes"
               e.Bench_json.value)
            (e.Bench_json.value >= 5.0));
      (fun () ->
        match Bench_json.find entries "stream" "streamed/materialized" with
        | None ->
          check "stream 'streamed/materialized' missing (run `stream` first)"
            false
        | Some e ->
          check
            (Printf.sprintf "streamed/materialized wall %.2fx <= 1.50x"
               e.Bench_json.value)
            (e.Bench_json.value <= 1.5));
      (fun () ->
        (* the floor line prints both tiers' seconds, held or not, so the
           trajectory is visible on every push *)
        match
          ( Bench_json.find entries "interp" "bcache speedup over step",
            Bench_json.find entries "interp" "step host cpu",
            Bench_json.find entries "interp" "bcache host cpu" )
        with
        | Some x, Some st, Some bc ->
          check
            (Printf.sprintf
               "bcache speedup over step %.2fx in traced-suite host cpu \
                (step %.1fs, bcache %.1fs) >= 5.50x"
               x.Bench_json.value st.Bench_json.value bc.Bench_json.value)
            (x.Bench_json.value >= 5.5)
        | _ ->
          check "interp host cpu entries missing (run `interp` first)" false);
      (fun () ->
        match Bench_json.find entries "store" "compression ratio (v3)" with
        | None ->
          check "store 'compression ratio (v3)' missing (run `store` first)"
            false
        | Some e ->
          check
            (Printf.sprintf "store v3 compression ratio %.2fx >= 4.50x"
               e.Bench_json.value)
            (e.Bench_json.value >= 4.5));
      (fun () ->
        match Bench_json.find entries "store" "parallel decode speedup" with
        | None -> (
          (* the bench omits the entry when it ran single-worker: read
             the worker count off the parallel-decode row, so a 1-core
             host gets the skip note and only a genuinely absent bench
             run fails *)
          match Bench_json.find entries "store" "full decode (parallel)" with
          | Some fd when fd.Bench_json.jobs < 2 ->
            Printf.printf
              "  skip parallel decode speedup floor (ran with %d worker(s); \
               needs >= 2)\n"
              fd.Bench_json.jobs
          | _ ->
            check
              "store 'parallel decode speedup' missing (run `store` first)"
              false)
        | Some e when e.Bench_json.jobs < 2 ->
          (* a single-worker pool measures overhead, not scaling — the
             floor only binds on hosts with >= 2 cores *)
          Printf.printf
            "  skip parallel decode speedup floor (ran with %d worker(s); \
             needs >= 2)\n"
            e.Bench_json.jobs
        | Some e ->
          check
            (Printf.sprintf
               "store parallel decode speedup %.2fx >= 1.50x (%d workers)"
               e.Bench_json.value e.Bench_json.jobs)
            (e.Bench_json.value >= 1.5));
      (fun () ->
        match Bench_json.find entries "serve" "dropped words" with
        | None ->
          check "serve 'dropped words' missing (run `serve` first)" false
        | Some e ->
          check
            (Printf.sprintf "serve lossless run dropped %.0f word(s) (= 0)"
               e.Bench_json.value)
            (e.Bench_json.value = 0.0));
      (fun () ->
        match Bench_json.find entries "serve" "p99 drain latency" with
        | None ->
          check "serve 'p99 drain latency' missing (run `serve` first)" false
        | Some e ->
          check
            (Printf.sprintf "serve p99 drain latency %.1fms <= 500.0ms"
               (1e3 *. e.Bench_json.value))
            (e.Bench_json.value <= 0.5));
      (fun () ->
        match Bench_json.find entries "serve" "streams per second" with
        | None ->
          check "serve 'streams per second' missing (run `serve` first)" false
        | Some e ->
          check
            (Printf.sprintf "serve %.2f streams/s >= 0.50 streams/s"
               e.Bench_json.value)
            (e.Bench_json.value >= 0.5));
      (fun () ->
        match Bench_json.find entries "serve" "aggregate/single" with
        | None ->
          check "serve 'aggregate/single' missing (run `serve` first)" false
        | Some e when e.Bench_json.jobs < 4 ->
          (* concurrent scaling needs cores to scale onto: with this few
             workers the aggregate measures multiplexing overhead, not
             parallel ingest — same policy as the store speedup floor *)
          Printf.printf
            "  skip serve aggregate/single floor (ran with %d worker(s); \
             needs >= 4)\n"
            e.Bench_json.jobs
        | Some e ->
          check
            (Printf.sprintf
               "serve aggregate ingest %.2fx >= 2.00x single stream (%d \
                workers)"
               e.Bench_json.value e.Bench_json.jobs)
            (e.Bench_json.value >= 2.0));
      (fun () ->
        match Bench_json.find entries "serve" "faulted streams diagnosed" with
        | None ->
          check
            "serve 'faulted streams diagnosed' missing (run `serve` first)"
            false
        | Some e ->
          check
            (Printf.sprintf
               "serve fault suite: %.0f torn stream(s) diagnosed >= 10"
               e.Bench_json.value)
            (e.Bench_json.value >= 10.0));
    ]
  in
  List.iter (fun f -> f ()) floors;
  match List.rev !failures with
  | [] -> Printf.printf "  perf gate passed\n"
  | fs ->
    Printf.eprintf "perf gate FAILED (%d floor(s) breached):\n"
      (List.length fs);
    List.iter (fun m -> Printf.eprintf "  %s\n" m) fs;
    exit 1

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
    "usage: %s [-j N] [experiment] [--timing] [--quick] [--gate]\n\
     available: %s\n\
     -j N      run the experiment matrix on N domains (default %d)\n\
     --timing  (with table2) serial vs parallel wall time + byte-identity\n\
     --quick   (with faults/stream/sweep/store/serve/table2) smaller\n\
    \          runs, for CI smoke\n\
     --out F   merge machine-readable results into F, not BENCH_micro.json\n\
     --gate    after any requested experiment, fail if the recorded results\n\
    \          breach the CI perf floors (sweep <= 2x single pass, sweep\n\
    \          work saved >= 5x, stream ratio, bcache >= 5.5x step host\n\
    \          CPU over the traced suite (interp),\n\
    \          store v3 ratio >= 4.5x, parallel decode >= 1.5x on >= 2\n\
    \          cores, serve lossless/latency/fault-suite floors and\n\
    \          aggregate ingest >= 2x single stream on >= 4 workers)\n"
    Sys.argv.(0)
    (String.concat " " (List.map fst experiments))
    (Pool.default_jobs ());
  exit 1

let () =
  let name = ref None in
  let timing = ref false in
  let gating = ref false in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | _ -> usage ())
    | "--timing" :: rest ->
      timing := true;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--gate" :: rest ->
      gating := true;
      parse rest
    | "--out" :: file :: rest ->
      Bench_json.set_path file;
      parse rest
    | arg :: rest when List.mem_assoc arg experiments && !name = None ->
      name := Some arg;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match (!name, !timing) with
  | None, false when !gating -> () (* bare --gate: check existing results *)
  | None, false -> List.iter (fun (_, f) -> f ()) experiments
  | None, true -> usage ()
  | Some "table2", true -> exp_table2_timing ()
  | Some _, true -> usage ()
  | Some name, false -> (List.assoc name experiments) ());
  if !gating then gate ()
