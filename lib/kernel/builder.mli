(** Host-side system builder: assembles and links the kernel (instrumented
    or not), loads it and the user programs into the machine, and plays
    the role of boot firmware — initialising kernel data structures, page
    tables (honouring the page-mapping policy) and the disk directly in
    the loaded image.

    It also implements the kernel→host hypercalls, including the ANALYZE
    protocol through which the in-kernel trace buffer is handed to the
    host-side analysis program in chunks during trace-analysis mode (the
    host stands in for the user-level analysis program of Figure 1). *)

open Systrace_isa
open Systrace_machine
open Systrace_tracing

type program = {
  pname : string;
  modules : Objfile.t list;
  heap_pages : int;
  is_server : bool;  (** the Mach UX server *)
  notrace : bool;
      (** run uninstrumented even on a traced system (§3.1: "pick and
          choose the processes to be traced") *)
}

val program :
  ?heap_pages:int ->
  ?is_server:bool ->
  ?notrace:bool ->
  string ->
  Objfile.t list ->
  program

type file_spec = {
  fname : string;
  data : string;
  writable_bytes : int;
}

type config = {
  personality : Kcfg.personality;
  pagemap : Kcfg.pagemap;
  traced : bool;
  trace_buf_bytes : int;
  trace_slack_bytes : int;
  clock_interval : int;
  machine_cfg : Machine.config;
  seed : int;
  analysis_chunk : int;
  drain_on_entry : bool;
      (** drain user trace buffers on every kernel entry (the paper's
          design, preserving the global interleaving); [false] is the
          flush-only-when-full ablation — the kernel counts the words each
          skipped drain leaves behind in [kstat_displaced] *)
}

val default_config : config

type proc_info = {
  pid : int;
  prog : program;
  exe : Exe.t;
  orig_exe : Exe.t;
  bbs : Bbtable.t option;
}

type t = {
  cfg : config;
  machine : Machine.t;
  kernel_exe : Exe.t;
  kernel_orig : Exe.t;
  kernel_bbs : Bbtable.t option;
  mutable procs : proc_info list;
  mutable trace_sink : (int array -> int -> unit) option;
      (** Receives each analysis-phase chunk of the in-kernel buffer.
          The chunk array is a scratch buffer reused across phases
          (borrowed for the call, as in [Sink.t]): copy what you keep. *)
  mutable consumed : int;
  mutable panic : string option;
  mutable frame_next : int;
  free_frames : int list array;
  ncolors : int;
  rng : Systrace_util.Rng.t;
  mutable next_block : int;
  mutable analyze_calls : int;
  mutable scratch : int array;
}

exception Panic of string

val file_plan : file_spec list -> (string * int * int) list
(** Deterministic disk layout (name, start block, size) — shared with
    programs that need it baked in, like the UX server. *)

val build :
  ?cfg:config -> programs:program list -> files:file_spec list -> unit -> t

val run : t -> max_insns:int -> Machine.stop_reason
(** Raises {!Panic} if the kernel panicked. *)

val drain_final : t -> unit
(** Hand any trace remaining in the in-kernel buffer to the sink. *)

val extract_pagemap : t -> int -> int -> int
(** The virtual-to-physical page map of the running system (§4.2), as a
    translation function for the trace-driven simulator: [pagemap pid va]
    is the physical address, or -1 for an unmapped page (or a pid the
    system does not run).  kseg0/kseg1 addresses map to
    [va land 0x1FFFFFFF].  Allocation-free. *)

val trace_parser : ?recover:bool -> t -> Systrace_tracing.Parser.t
(** A fresh parser over this traced system's block tables: the kernel's,
    plus every traced process's registered under its pid.
    @raise Invalid_argument on a system built untraced. *)

val live_pids : t -> int list
(** The processes still running when the workload halts — the Mach UX
    server, which never exits — as [Parser.finish ~live] takes them. *)

val console : t -> string
val proc : t -> int -> proc_info
val tlbdropins : t -> int
val ticks : t -> int

val poke : t -> string -> int -> unit
(** Write a word at a kernel data symbol (boot-firmware style). *)

val peek : t -> string -> int
val peek_off : t -> string -> int -> int

val crt0 : traced:bool -> Objfile.t
(** The user-side C runtime: program entry (initialising the stolen
    registers on traced systems) and the Mach thread trampoline. *)
