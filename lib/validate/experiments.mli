(** Regeneration of every table and figure of the paper's evaluation, plus
    the design-choice ablations of DESIGN.md.  Each function prints the
    rows/series the paper reports; the measured/predicted matrix is
    computed once and shared between tables. *)

open Systrace_util
open Systrace_workloads

val spec_of : Suite.entry -> Validate.spec

type full_row = {
  fname : string;
  ultrix : Validate.row;
  mach : Validate.row;
}

val run_matrix :
  ?seed:int ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?entries:Suite.entry list ->
  unit ->
  full_row list
(** Every workload under both personalities, measured and predicted.
    Each cell is a self-contained simulation run on a pool of [jobs]
    domains (default 1 = serial); results merge in suite order, so the
    rendered tables are byte-identical whatever [jobs] is.  [progress] is
    serialized by a mutex and may be called from worker domains.
    [entries] restricts the matrix (tests use a subset). *)

val table1 : unit -> Table.t
val table2 : full_row list -> Table.t
val figure3 : full_row list -> Table.t
val table3 : full_row list -> Table.t

val expansion_table : unit -> Table.t
(** §3.2: epoxie vs pixie text growth. *)

val dilation_table : full_row list -> Table.t
(** §4.1: instrumented instructions per original instruction. *)

val kernel_cpi_table : full_row list -> Table.t
(** §3.4: kernel vs user CPI from trace-driven simulation. *)

val distortion_table : ?wnames:string list -> unit -> Table.t
(** §4.1: machine-level event rates, untraced vs traced execution. *)

val buffer_sweep_table : ?wname:string -> ?jobs:int -> unit -> Table.t
(** §4.3: in-kernel buffer size vs trace-analysis transitions; the sweep
    points run on a pool of [jobs] domains. *)

val pagemap_table :
  ?wname:string -> ?nseeds:int -> ?jobs:int -> unit -> Table.t
(** §4.2/§4.4: page-mapping policy sensitivity across seeds; the
    (policy, seed) cells run on a pool of [jobs] domains. *)

val corruption_table : ?wname:string -> ?trials:int -> ?seed:int -> unit -> Table.t
(** §4.3 fault injection: detection rate of single-word corruptions. *)

val faults_table :
  ?wname:string ->
  ?trials:int ->
  ?seed:int ->
  ?rates:float list ->
  unit ->
  Table.t
(** §4.3, quantitative: sweep the [Tracing.Faults] catalogue (bit flips,
    drops, duplicates, swaps, truncation, marker/drain mutations, drain
    splits) over a captured trace at several injection rates, reporting
    per-kind detection rate, detection latency (words from injection to
    first recovery-mode diagnosis), and recovery loss (references missing
    vs the clean run).  Asserts the rate-0 criterion first: strict and
    recovery modes reconstruct the identical reference stream from the
    pristine trace. *)

type tier_fingerprint = {
  f_counters : int list;
      (** cycles, every {!Systrace_machine.Machine.counters} field,
          icache and dcache hits and misses, write-buffer stores and
          stall cycles, arithmetic stall cycles and FP operations *)
  f_console : string;
  f_words : int;  (** trace words handed to the host (0 untraced) *)
  f_checksum : int;  (** order-sensitive checksum of those words *)
}

val tier_fingerprint : traced:bool -> Systrace_kernel.Builder.t -> tier_fingerprint
(** Run a built system to halt (draining the in-kernel trace buffer at
    the end when [traced]) and fingerprint it. *)

val tier_run :
  ?os:Validate.os ->
  traced:bool ->
  string ->
  Systrace_machine.Uop.tier ->
  Systrace_kernel.Builder.t * tier_fingerprint
(** Boot workload [wname] ([?os] default Ultrix; traced or not, as
    {!Validate} builds it) at one interpreter tier and
    {!tier_fingerprint} it.  Every tier must give the same fingerprint:
    [Step] is the oracle. *)

val interp_ablation_table :
  unit -> Table.t * (Systrace_machine.Uop.tier * float) list
(** DESIGN.md §5e and §5n: step-at-a-time vs the translation and block
    caches on the traced suite (all twelve workloads, each under both
    systems) — host CPU seconds per tier, summed over the suite and
    returned beside the table, with every run's {!tier_fingerprint}
    asserted identical to step-at-a-time's first (the caches and the
    stub uops must be invisible to the simulated machine).  Raises
    [Failure] naming the first run that differs. *)

val os_structure_table : full_row list -> Table.t
(** System vs user share of memory activity under each OS structure. *)

val figure2 : unit -> string
(** Before/after disassembly of the paper's fopen example. *)

val drain_ablation_table : ?wname:string -> unit -> Table.t
(** DESIGN.md §5: drain-user-buffers-on-every-kernel-entry (the paper's
    interleaving-preserving design) vs flush-only-when-full, with the
    kernel counting the trace words each skipped drain lets kernel records
    overtake, and the disorder's effect on a trace-driven simulation. *)
