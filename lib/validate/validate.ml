(* The validation harness (paper §5): run each workload on each system
   twice (three times where a program holds FP code: see [measure]) —

   MEASURED: the uninstrumented binaries on the untraced kernel, using the
   machine simulator's ground-truth counters as the paper used its
   high-resolution timer and TLB-miss-counting kernel;

   PREDICTED: the epoxie-instrumented binaries on the traced kernel, with
   the collected trace streamed through the trace-driven memory-system
   simulator, the page map extracted from the running (traced) system, an
   arithmetic-stall estimate from a pixie-style ideal-memory run, and
   idle-loop counts scaled by the time-dilation factor.

   Comparing the two reproduces Table 2 (run times), Figure 3 (percent
   error) and Table 3 (user TLB misses). *)

open Systrace_tracing
open Systrace_kernel
open Systrace_tracesim

type os = Ultrix | Mach

let os_name = function Ultrix -> "Ultrix" | Mach -> "Mach 3.0"

(* A workload specification: its programs (excluding the UX server, which
   the harness adds for Mach) and its input files. *)
type spec = {
  wname : string;
  files : Builder.file_spec list;
  programs : Builder.program list;
}

type measurement = {
  m_cycles : int;
  m_seconds : float;
  m_utlb : int;
  m_idle : int;
  m_user_insts : int;
  m_kernel_insts : int;
  m_insts : int;
  m_arith_ideal : int; (* pixie-style arithmetic-stall estimate *)
  m_console : string;
  m_disk_reads : int;
  m_disk_writes : int;
}

type prediction = {
  p_breakdown : Predict.breakdown;
  p_utlb : int;
  p_console : string;
  p_parse : Parser.stats;
  p_mem : Memsim.stats;
  p_traced_insts : int;      (* instructions the traced machine executed *)
  p_tlbdropins : int;
  p_peak_words : int;        (* largest ANALYZE chunk: peak resident words *)
}

let base_cfg os pagemap seed =
  {
    Builder.default_config with
    Builder.personality = (match os with Ultrix -> Kcfg.Ultrix | Mach -> Kcfg.Mach);
    pagemap =
      (match pagemap with
      | Some p -> p
      | None -> (match os with Ultrix -> Kcfg.Careful | Mach -> Kcfg.Random));
    seed;
  }

let all_programs os files programs =
  match os with
  | Ultrix -> programs
  | Mach ->
    let server =
      {
        Builder.pname = "uxserver";
        modules =
          [
            Systrace_workloads.Ux_server.make
              ~file_plan:(Builder.file_plan files) ();
            Systrace_workloads.Userlib.make ();
          ];
        heap_pages = 4;
        is_server = true;
        notrace = false;
      }
    in
    server :: programs

let max_insns = 2_000_000_000

let system ?pagemap ?machine_cfg ?(seed = 1) ~traced os spec =
  let cfg = { (base_cfg os pagemap seed) with Builder.traced } in
  let cfg =
    match machine_cfg with
    | Some m -> { cfg with Builder.machine_cfg = m }
    | None -> cfg
  in
  Builder.build ~cfg
    ~programs:(all_programs os spec.files spec.programs)
    ~files:spec.files ()

(* Every run to halt goes through here, so the end-of-run sequence —
   halt, then the final drain, then one [finish] — has one copy (two
   recorded bugs lived in hand-written ones: DESIGN.md §5b #4, #10). *)
let run ?(sink = Sink.null) (t : Builder.t) =
  let traced = t.Builder.cfg.Builder.traced in
  if traced then
    t.Builder.trace_sink <- Some (fun words len -> sink.Sink.on_words words ~len);
  (match Builder.run t ~max_insns with
  | Systrace_machine.Machine.Halt -> ()
  | Systrace_machine.Machine.Limit -> failwith "validate: system did not halt");
  if traced then Builder.drain_final t;
  sink.Sink.finish ()

(* ------------------------------------------------------------------ *)

(* Only an FP arithmetic or compare op can stall: each waits for a
   register an earlier one is still writing, or for the unit one holds
   (lib/machine/fpu.ml); loads and moves into FP registers make them
   ready at once.  crt0 holds none, and the kernel's one is the fcmp
   with which a context switch restores the condition flag, which frees
   the unit 2 cycles later.  So where no program's modules hold one, the
   ideal-memory run would read 0 arithmetic stalls at any miss penalty. *)
let holds_fp_arith (t : Builder.t) =
  let fp = function Systrace_isa.Insn.Fop _ | Fcmp _ -> true | _ -> false in
  List.exists
    (fun (pi : Builder.proc_info) ->
      List.exists
        (fun m -> List.exists fp (Systrace_isa.Objfile.insns m))
        pi.Builder.prog.Builder.modules)
    t.Builder.procs

let measure ?(seed = 1) os spec : measurement =
  let t = system ~seed ~traced:false os spec in
  run t;
  let c = t.Builder.machine.Systrace_machine.Machine.c in
  (* pixie-style arithmetic stall estimate: a functional run with an ideal
     memory system, so FP interlocks are the only stalls. *)
  let arith_ideal =
    if not (holds_fp_arith t) then 0
    else begin
      let ideal_cfg =
        {
          t.Builder.cfg.Builder.machine_cfg with
          Systrace_machine.Machine.read_miss_penalty = 0;
          uncached_penalty = 0;
          wb_drain = 0;
        }
      in
      let ti = system ~machine_cfg:ideal_cfg ~seed ~traced:false os spec in
      run ti;
      Systrace_machine.Machine.arith_stalls ti.Builder.machine
    end
  in
  {
    m_cycles = t.Builder.machine.Systrace_machine.Machine.cycles;
    m_seconds =
      float_of_int t.Builder.machine.Systrace_machine.Machine.cycles
      /. Predict.clock_hz;
    m_utlb = c.Systrace_machine.Machine.utlb_misses;
    m_idle = c.Systrace_machine.Machine.idle_instructions;
    m_user_insts = c.Systrace_machine.Machine.user_instructions;
    m_kernel_insts = c.Systrace_machine.Machine.kernel_instructions;
    m_insts = c.Systrace_machine.Machine.instructions;
    m_arith_ideal = arith_ideal;
    m_console = Builder.console t;
    m_disk_reads = t.Builder.machine.Systrace_machine.Machine.disk.Systrace_machine.Disk.reads;
    m_disk_writes = t.Builder.machine.Systrace_machine.Machine.disk.Systrace_machine.Disk.writes;
  }

(* ------------------------------------------------------------------ *)

(* The memory-simulator configuration a machine geometry implies, over
   the given page map. *)
let memsim_cfg ~pagemap (mcfg : Systrace_machine.Machine.config) =
  {
    Memsim.icache_bytes = mcfg.Systrace_machine.Machine.icache_bytes;
    icache_line = Systrace_machine.Machine.icache_line;
    icache_ways = 1;
    dcache_bytes = mcfg.Systrace_machine.Machine.dcache_bytes;
    dcache_line = Systrace_machine.Machine.dcache_line;
    dcache_ways = 1;
    read_miss_penalty = mcfg.Systrace_machine.Machine.read_miss_penalty;
    uncached_penalty = mcfg.Systrace_machine.Machine.uncached_penalty;
    wb_depth = Systrace_machine.Machine.wb_depth;
    wb_drain = mcfg.Systrace_machine.Machine.wb_drain;
    pagemap;
    pt_base = Kcfg.pt_base_va;
    utlb_handler_insns = 8;
    ktlb_handler_insns = 24;
    tlb_entries = 64;
  }

let predict ?(seed = 1) ~arith_stalls os spec : prediction =
  let t = system ~seed ~traced:true os spec in
  let mcfg = t.Builder.cfg.Builder.machine_cfg in
  let parser = Builder.trace_parser t in
  let sw =
    Memsim.sweep [ memsim_cfg ~pagemap:(Builder.extract_pagemap t) mcfg ]
  in
  (* The prediction is fully online (paper §4.3): each ANALYZE phase's
     chunk drives the parser and memory simulation as it is drained, so
     peak resident trace words is the largest chunk — O(in-kernel
     buffer) — not the trace length.  The peak branch of the tee is the
     witness the stream bench checks against the buffer size. *)
  let peak_sink, peak_words = Sink.peak () in
  run
    ~sink:
      (Sink.tee
         [ peak_sink; Memsim.sweep_sink ~live:(Builder.live_pids t) sw parser ])
    t;
  let mem = (Memsim.sweep_stats sw).(0) in
  let parse = Parser.stats parser in
  {
    p_breakdown =
      Predict.make ~mem ~parse ~arith_stalls
        ~dilation:Kcfg.time_dilation
        ~read_miss_penalty:mcfg.Systrace_machine.Machine.read_miss_penalty
        ~uncached_penalty:mcfg.Systrace_machine.Machine.uncached_penalty;
    p_utlb = mem.Memsim.utlb_misses;
    p_console = Builder.console t;
    p_parse = parse;
    p_mem = mem;
    p_traced_insts =
      t.Builder.machine.Systrace_machine.Machine.c
        .Systrace_machine.Machine.instructions;
    p_tlbdropins = Builder.tlbdropins t;
    p_peak_words = peak_words ();
  }

(* ------------------------------------------------------------------ *)

type row = {
  r_name : string;
  r_os : os;
  r_measured : measurement;
  r_predicted : prediction;
}

let run_workload ?(seed = 1) os spec : row =
  let m = measure ~seed os spec in
  let p = predict ~seed ~arith_stalls:m.m_arith_ideal os spec in
  if m.m_console <> p.p_console then
    failwith
      (Printf.sprintf
         "%s/%s: traced and untraced runs disagree on output:\n%S\nvs\n%S"
         spec.wname (os_name os) m.m_console p.p_console);
  { r_name = spec.wname; r_os = os; r_measured = m; r_predicted = p }

let percent_error row =
  Systrace_util.Stats.percent_error ~measured:row.r_measured.m_seconds
    ~predicted:row.r_predicted.p_breakdown.Predict.seconds

(* Time-dilation factor actually achieved by instrumentation (§4.1). *)
let dilation row =
  float_of_int row.r_predicted.p_traced_insts
  /. float_of_int row.r_measured.m_insts
