(** The validation harness (paper §5): each workload runs twice on each
    system — MEASURED (uninstrumented binaries, untraced kernel, the
    machine's ground-truth counters standing in for the paper's
    high-resolution timer and TLB-counting kernel) and PREDICTED (traced
    system, with the collected trace driven through the memory-system
    simulator and the four-component time model).  Comparing the two
    reproduces Table 2, Figure 3 and Table 3. *)

open Systrace_tracing
open Systrace_kernel
open Systrace_tracesim

type os = Ultrix | Mach

val os_name : os -> string

type spec = {
  wname : string;
  files : Builder.file_spec list;
  programs : Builder.program list;
      (** excluding the UX server, which the harness adds under Mach *)
}

type measurement = {
  m_cycles : int;
  m_seconds : float;
  m_utlb : int;
  m_idle : int;
  m_user_insts : int;
  m_kernel_insts : int;
  m_insts : int;
  m_arith_ideal : int;
      (** pixie-style arithmetic-stall estimate (ideal-memory run) *)
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
  p_traced_insts : int;
  p_tlbdropins : int;
  p_peak_words : int;
      (** largest ANALYZE chunk fed to the online parse+simulate sink —
          the predicted run's peak resident trace words, bounded by the
          in-kernel buffer size rather than the trace length *)
}

val system :
  ?pagemap:Kcfg.pagemap ->
  ?machine_cfg:Systrace_machine.Machine.config ->
  ?seed:int ->
  traced:bool ->
  os ->
  spec ->
  Builder.t
(** The system {!measure} ([traced:false]) or {!predict} ([traced:true])
    boots, built but not yet run: the workload's programs (plus the UX
    server under Mach) on the OS's default page-mapping policy.
    [Systrace.run_traced] and [run_measured] boot it too. *)

val measure : ?pagemap:Kcfg.pagemap -> ?machine_cfg:Systrace_machine.Machine.config -> ?seed:int -> os -> spec -> measurement

val memsim_cfg :
  pagemap:(int -> int -> int) ->
  Systrace_machine.Machine.config ->
  Memsim.config
(** The memory-system simulation of a machine configuration's caches,
    write buffer and TLB, translating through [pagemap] (e.g.
    {!Builder.extract_pagemap} of the traced system). *)

val predict :
  ?pagemap:Kcfg.pagemap -> ?seed:int -> ?arith_stalls:int -> os -> spec ->
  prediction
(** One traced pass, parsed and simulated online as each ANALYZE chunk
    is drained, predicting the default machine geometry.  [arith_stalls]
    is the measured pass's ideal-memory estimate; without it, that run
    is made here. *)

type row = {
  r_name : string;
  r_os : os;
  r_measured : measurement;
  r_predicted : prediction;
}

val run_workload :
  ?machine_cfg:Systrace_machine.Machine.config ->
  ?pagemap:Kcfg.pagemap ->
  ?seed:int ->
  os ->
  spec ->
  row
(** Measured and predicted passes; fails if traced and untraced runs
    disagree on program output.  [machine_cfg] overrides the measured
    pass's machine configuration (e.g. [tier = Uop.Step]); the
    predicted pass is a trace-driven model and takes no machine. *)

val percent_error : row -> float
(** The Figure 3 quantity. *)

val dilation : row -> float
(** Instrumented instructions per original instruction (§4.1). *)
