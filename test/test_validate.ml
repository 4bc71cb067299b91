(* Tests for the domain-parallel validation harness: running the
   measured-vs-predicted matrix on a pool of domains must be a pure
   performance change — the rendered tables are byte-identical to the
   serial run. *)

open Systrace_validate
open Systrace_workloads

(* A small slice of the suite keeps the regression affordable; each cell
   is a full measured + predicted simulation. *)
let entries () =
  List.filter
    (fun (e : Suite.entry) -> List.mem e.Suite.name [ "sed"; "lisp" ])
    Suite.all

let render m =
  Systrace_util.Table.render (Experiments.table2 m)
  ^ "\n"
  ^ Systrace_util.Table.render (Experiments.table3 m)
  ^ "\n"
  ^ Systrace_util.Table.render (Experiments.figure3 m)

let test_matrix_determinism () =
  let entries = entries () in
  let serial = Experiments.run_matrix ~jobs:1 ~entries () in
  let parallel = Experiments.run_matrix ~jobs:4 ~entries () in
  Alcotest.(check string)
    "tables byte-identical across jobs" (render serial) (render parallel)

(* ------------------------------------------------------------------ *)
(* Multi-configuration sweep on a REAL captured trace: Memsim.sweep must
   be byte-identical to independent single-configuration replays, with
   chunk-split boundaries through the Sink interface chosen differently
   on each side, on both a clean and a fault-injected trace. *)

(* run a traced system to its halt, keeping every trace word *)
let capture b =
  let sink, trace = Systrace_tracing.Sink.to_array () in
  b.Systrace_kernel.Builder.trace_sink <-
    Some (fun ws len -> sink.Systrace_tracing.Sink.on_words ws ~len);
  (match Systrace_kernel.Builder.run b ~max_insns:2_000_000_000 with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> failwith "sweep equiv: no halt");
  Systrace_kernel.Builder.drain_final b;
  (b, trace ())

let captured =
  lazy
    (let e = Suite.find "egrep" in
     let cfg =
       {
         Systrace_kernel.Builder.default_config with
         Systrace_kernel.Builder.traced = true;
       }
     in
     capture
       (Systrace_kernel.Builder.build ~cfg
          ~programs:[ e.Suite.program () ]
          ~files:e.Suite.files ()))

let mk_parser ~recover b = Systrace_kernel.Builder.trace_parser ~recover b

(* drive a sink with randomly-sized chunks: boundaries must not matter *)
let feed_random_chunks ~rng (sink : Systrace_tracing.Sink.t) words =
  let n = Array.length words in
  let pos = ref 0 in
  while !pos < n do
    let len = min (n - !pos) (1 + Systrace_util.Rng.int rng 4096) in
    sink.Systrace_tracing.Sink.on_words (Array.sub words !pos len) ~len;
    pos := !pos + len
  done;
  sink.Systrace_tracing.Sink.finish ()

let sweep_grid b =
  let open Systrace_tracesim in
  (* one base config so every grid point shares the extracted page map by
     reference, as Memsim.sweep requires *)
  let base = Systrace.default_memsim_cfg ~system:b in
  List.map snd
    (Memsim.grid ~base
       ~sizes:[ 4096; 8192; 16384 ]
       ~lines:[ 16 ] ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2; 4 ] ())

let sweep_vs_singles ~recover ~rng_seed b words cfgs =
  let open Systrace_tracesim in
  let swept =
    let p = mk_parser ~recover b in
    let sw = Memsim.sweep cfgs in
    let sink = Memsim.sweep_sink sw p in
    feed_random_chunks ~rng:(Systrace_util.Rng.create rng_seed) sink words;
    Memsim.sweep_stats sw
  in
  List.iteri
    (fun i cfg ->
      let p = mk_parser ~recover b in
      let m = Oracles.Memsim_single.create cfg in
      let sink = Oracles.Memsim_single.sink m p in
      feed_random_chunks
        ~rng:(Systrace_util.Rng.create (rng_seed + 101 + i))
        sink words;
      Alcotest.(check bool)
        (Printf.sprintf "config %d: sweep stats == single-config stats" i)
        true
        (Oracles.Memsim_single.stats m = swept.(i)))
    cfgs

let test_sweep_real_trace () =
  let b, words = Lazy.force captured in
  sweep_vs_singles ~recover:false ~rng_seed:3 b words (sweep_grid b)

let test_sweep_real_trace_faulty () =
  let b, words = Lazy.force captured in
  let rng = Systrace_util.Rng.create 42 in
  let words, _injected =
    Systrace_tracing.Faults.inject rng ~n:20
      ~kinds:Systrace_tracing.Faults.all_kinds words
  in
  sweep_vs_singles ~recover:true ~rng_seed:7 b words (sweep_grid b)

(* egrep under Mach: the UX server, the random page map, and more
   references than one sweep batch holds, so a whole-trace chunk crosses a
   batch boundary. *)
let captured_mach =
  lazy
    (capture
       (Validate.system ~traced:true Validate.Mach
          (Experiments.spec_of (Suite.find "egrep"))))

(* the one-configuration oracle's stats for each config, on the words fed
   whole to a recovery-mode parser (its references do not depend on the
   chunking) *)
let oracle_stats b words cfgs =
  List.map
    (fun cfg ->
      let m = Oracles.Memsim_single.create cfg in
      let sink = Oracles.Memsim_single.sink m (mk_parser ~recover:true b) in
      sink.Systrace_tracing.Sink.on_words words ~len:(Array.length words);
      Oracles.Memsim_single.stats m)
    cfgs

let faulty words =
  fst
    (Systrace_tracing.Faults.inject (Systrace_util.Rng.create 42) ~n:20
       ~kinds:Systrace_tracing.Faults.all_kinds words)

(* per trace (Ultrix, Mach) and fault injection: system, words, grid and
   the oracle's answer, computed once *)
let oracle_cases =
  lazy
    (let cases =
       List.concat_map
         (fun (b, words) ->
           let cfgs = sweep_grid b in
           List.map
             (fun words -> (b, words, cfgs, oracle_stats b words cfgs))
             [ words; faulty words ])
         [ Lazy.force captured; Lazy.force captured_mach ]
     in
     (match List.nth cases 2 with
     | _, _, _, s :: _ when s.Systrace_tracesim.Memsim.insts + s.datas > 1 lsl 18 -> ()
     | _ -> failwith "the Mach trace no longer spans a sweep batch");
     cases)

let prop_sweep_equals_oracle =
  (* The batched, clustered engine against the one-configuration oracle
     on real traces: any domain count, any chunking (one whole-trace
     chunk included, which on the Mach trace puts a batch boundary inside
     the chunk), clean or fault-injected words. *)
  QCheck.Test.make ~count:8
    ~name:"sweep == one-config oracle on real traces (jobs, chunks, faults)"
    QCheck.(
      quad (int_range 1 3) (int_range 0 3) bool (int_bound 1_000_000))
    (fun (jobs, case, whole, seed) ->
      let b, words, cfgs, expect = List.nth (Lazy.force oracle_cases) case in
      let sw = Systrace_tracesim.Memsim.sweep ~jobs cfgs in
      let sink = Systrace_tracesim.Memsim.sweep_sink sw (mk_parser ~recover:true b) in
      if whole then begin
        sink.Systrace_tracing.Sink.on_words words ~len:(Array.length words);
        sink.Systrace_tracing.Sink.finish ()
      end
      else feed_random_chunks ~rng:(Systrace_util.Rng.create seed) sink words;
      Array.to_list (Systrace_tracesim.Memsim.sweep_stats sw) = expect)

(* No simulation outlives an [on_words] call: the egrep trace holds fewer
   references than a fanned-out batch, so only the end-of-chunk flush can
   have run it before the stats are read. *)
let test_sweep_sink_flushes_chunks () =
  let b, words = Lazy.force captured in
  let sw = Systrace_tracesim.Memsim.sweep ~jobs:2 (sweep_grid b) in
  let sink = Systrace_tracesim.Memsim.sweep_sink sw (mk_parser ~recover:false b) in
  Alcotest.(check int) "nothing simulated yet" 0 (Systrace_tracesim.Memsim.sweep_domains sw);
  sink.Systrace_tracing.Sink.on_words words ~len:(Array.length words);
  Alcotest.(check bool) "simulated within on_words" true
    (Systrace_tracesim.Memsim.sweep_domains sw > 0)

(* The flat page map against the hash-table walk it replaced, on an
   Ultrix careful-map and a Mach random-map system: every mapped page (at
   two offsets), kseg0/kseg1, unmapped pages and pids the system does not
   run. *)
let test_flat_pagemap () =
  List.iter
    (fun (name, b) ->
      let flat = Systrace_kernel.Builder.extract_pagemap b in
      let walk, user, kseg2 = Oracles.Pagemap_walk.extract b in
      let agree what pid va =
        Alcotest.(check int)
          (Printf.sprintf "%s %s pid %d va 0x%x" name what pid va)
          (walk pid va) (flat pid va)
      in
      Alcotest.(check bool) (name ^ ": user pages mapped") true (user <> []);
      Alcotest.(check bool) (name ^ ": kseg2 pages mapped") true (kseg2 <> []);
      List.iter
        (fun (pid, vpn) ->
          agree "user" pid (vpn lsl 12);
          agree "user" pid ((vpn lsl 12) + 0xABC);
          agree "user, other pid" (pid + 1) (vpn lsl 12))
        user;
      List.iter
        (fun vpn ->
          agree "kseg2" 0 ((vpn lsl 12) + 0x10);
          agree "kseg2, pid -1" (-1) (vpn lsl 12))
        kseg2;
      List.iter
        (fun (pid, va) -> agree "edge" pid va)
        [ (0, 0x8000_1234); (1, 0x9FFF_FFFC); (0, 0xA000_0010); (2, 0xBFFF_F000);
          (0, 0x7FFF_F000); (0, 0x0000_0000); (0, 0xC000_0000); (0, 0xFFFF_FFFC);
          (-1, 0x0040_0000); (99, 0x0040_0000); (max_int, 0x0040_0000);
          (min_int, 0x1000); (0, -4) ])
    [ ("ultrix/careful", fst (Lazy.force captured));
      ("mach/random", fst (Lazy.force captured_mach)) ]

(* ------------------------------------------------------------------ *)
(* Interpreter oracle on traced runs: the block cache must leave the
   same machine and hand the host the same trace as step-at-a-time.  The
   traced run is where the stub uops and the second-level translation
   cache do their work, so the block cache must actually have run stubs
   here, the kernel's drain copy among them.  sed is kernel-heavy,
   egrep user-heavy and fpppp floating-point. *)

let kind_runs (b : Systrace_kernel.Builder.t) =
  Test_machine.kind_runs b.Systrace_kernel.Builder.machine

let check_fingerprints what (step : Experiments.tier_fingerprint) fp =
  let module E = Experiments in
  Alcotest.(check (list int)) (what ^ ": counters") step.E.f_counters fp.E.f_counters;
  Alcotest.(check string) (what ^ ": console") step.E.f_console fp.E.f_console;
  Alcotest.(check int) (what ^ ": trace words") step.E.f_words fp.E.f_words;
  Alcotest.(check int) (what ^ ": trace checksum") step.E.f_checksum fp.E.f_checksum

let test_traced_tier_oracle wname () =
  let module M = Systrace_machine.Machine in
  let module E = Experiments in
  List.iter
    (fun os ->
      let name = wname ^ " " ^ Validate.os_name os in
      let _, step = E.tier_run ~os ~traced:true wname Systrace_machine.Uop.Step in
      Alcotest.(check bool) (name ^ ": trace words delivered") true (step.E.f_words > 0);
      let b, fp = E.tier_run ~os ~traced:true wname Systrace_machine.Uop.Bcache in
      let what = name ^ " bcache" in
      check_fingerprints what step fp;
      Alcotest.(check bool) (what ^ ": stub uops ran") true
        (b.Systrace_kernel.Builder.machine.M.stub_runs > 0);
      Alcotest.(check bool) (what ^ ": drain copy stub ran") true
        (kind_runs b "kd_copy" > 0))
    [ Validate.Ultrix; Validate.Mach ]

(* A small in-kernel buffer, handed over in small chunks, sends traced
   egrep through dozens of trace-analysis phases, and a fast clock ticks
   every 15,000 traced cycles, so ticks fall due while the spin counts
   down (a chunk's spin is about 12,000 cycles).  The kernel spins with
   interrupts masked, but each tick's poll re-arms the clock from the
   cycle it runs at: the spin's stub must run, and stop at the horizon
   exactly where step-at-a-time polls. *)
let test_traced_analysis_spin () =
  let module M = Systrace_machine.Machine in
  let module B = Systrace_kernel.Builder in
  let e = Systrace_workloads.Suite.find "egrep" in
  let run tier =
    let cfg =
      {
        B.default_config with
        B.traced = true;
        trace_buf_bytes = 64 * 1024;
        trace_slack_bytes = 24 * 1024;
        analysis_chunk = 2048;
        clock_interval = 1000;
        machine_cfg = { M.default_config with M.tier };
      }
    in
    let b = B.build ~cfg ~programs:[ e.Systrace_workloads.Suite.program () ]
        ~files:e.Systrace_workloads.Suite.files () in
    (b, Experiments.tier_fingerprint ~traced:true b)
  in
  let bs, step = run Systrace_machine.Uop.Step in
  Alcotest.(check bool) "several analysis phases" true (bs.B.analyze_calls > 20);
  Alcotest.(check bool) "clock ticks" true (bs.B.machine.M.c.M.clock_ticks > 100);
  let b, fp = run Systrace_machine.Uop.Bcache in
  check_fingerprints "small-buffer egrep bcache" step fp;
  Alcotest.(check bool) "analysis spin stub ran" true (kind_runs b "spin" > 0);
  Alcotest.(check bool) "drain copy stub ran" true (kind_runs b "kd_copy" > 0)

(* The FP uops at system scale: liv is the Table 1 code with the most FP
   work per instruction (3.45M instructions untraced), so its arithmetic
   stalls and FP operation count, not just its cycles, must come out of
   the block cache as step-at-a-time computes them. *)
let test_fp_tier_oracle () =
  let module E = Experiments in
  let _, step = E.tier_run ~traced:false "liv" Systrace_machine.Uop.Step in
  let _, bc = E.tier_run ~traced:false "liv" Systrace_machine.Uop.Bcache in
  Alcotest.(check (list int)) "liv: counters, arith stalls, FP ops" step.E.f_counters
    bc.E.f_counters;
  Alcotest.(check string) "liv: console" step.E.f_console bc.E.f_console;
  Alcotest.(check bool) "liv: FP ops counted" true
    (List.nth step.E.f_counters (List.length step.E.f_counters - 1) > 0)

let tests =
  [
    Alcotest.test_case "matrix determinism (jobs=1 == jobs=4)" `Quick
      test_matrix_determinism;
    Alcotest.test_case "traced egrep: step == bcache == default tier" `Quick
      (test_traced_tier_oracle "egrep");
    Alcotest.test_case "traced sed: step == bcache" `Quick
      (test_traced_tier_oracle "sed");
    Alcotest.test_case "traced fpppp: step == bcache" `Quick
      (test_traced_tier_oracle "fpppp");
    Alcotest.test_case "traced analysis phases: spin stub == step" `Quick
      test_traced_analysis_spin;
    Alcotest.test_case "untraced liv: step == bcache, FP counters" `Quick
      test_fp_tier_oracle;
    Alcotest.test_case "sweep == singles on a real trace" `Quick
      test_sweep_real_trace;
    Alcotest.test_case "sweep == singles on a fault-injected trace" `Quick
      test_sweep_real_trace_faulty;
    QCheck_alcotest.to_alcotest prop_sweep_equals_oracle;
    Alcotest.test_case "flat page map == hash-table walk" `Quick
      test_flat_pagemap;
    Alcotest.test_case "sweep_sink simulates each chunk before returning" `Quick
      test_sweep_sink_flushes_chunks;
  ]
