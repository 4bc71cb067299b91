(** Trace-driven memory-system simulator (paper §5).

    Consumes the reconstructed reference stream from the trace parsing
    library and drives independent cache/TLB/write-buffer models.  Caches
    are physically indexed through the page map extracted from the running
    system; UTLB misses synthesize the (untraced) refill handler's
    references; the kernel's explicit TLB writes are invisible; and
    write-buffer stalls never overlap with anything — the modelling gaps
    behind Table 3 and Figure 3 are reproduced on purpose.

    There is one engine, {!sweep}: a list of configurations evaluated in
    one trace pass.  One configuration is a one-element sweep. *)

type config = {
  icache_bytes : int;
  icache_line : int;
  icache_ways : int;
      (** associativity (LRU); 1 = the DECstation's direct-mapped caches *)
  dcache_bytes : int;
  dcache_line : int;
  dcache_ways : int;
  read_miss_penalty : int;
  uncached_penalty : int;
  wb_depth : int;
  wb_drain : int;
  pagemap : int -> int -> int;
      (** [pagemap pid va]: physical translation of a mapped address, or
          -1 for an unmapped page. *)
  pt_base : int -> int;
      (** kseg2 linear page-table base per pid (UTLB synthesis). *)
  utlb_handler_insns : int;
  ktlb_handler_insns : int;
  tlb_entries : int;
}

type stats = {
  mutable insts : int;
  mutable datas : int;
  mutable kernel_insts : int;
  mutable user_insts : int;
  mutable kernel_stall : int;
  mutable user_stall : int;
  mutable synth_insts : int;
  mutable icache_misses : int;
  mutable dcache_read_misses : int;
  mutable uncached_reads : int;
  mutable uncached_writes : int;
  mutable wb_stalls : int;
  mutable utlb_misses : int;
  mutable ktlb_misses : int;
  mutable unmapped : int;
}

(** {2 Single-pass multi-configuration sweep}

    [sweep cfgs] evaluates every configuration in one trace pass: word
    decode, reference classification and page-map translation happen once
    per reference; configurations sharing TLB parameters share one TLB
    and one synthesized-handler stream; distinct cache geometries are
    simulated once each for every TLB size, with nesting icache families
    (same line size and set count, ascending ways) collapsed into a
    single Mattson LRU stack ({!Sim_stack}).  Trace references update a
    geometry's one shared state, which is the largest TLB's own; another
    TLB group keeps a private copy of a set only while the synthesized
    handler references make its set differ.  A TLB group runs its
    configurations' write buffers only at a trace store where one of
    them can still be busy ({!sweep_lane_work} counts them).

    Each reference is simulated as it is fed, on the domain that feeds
    it.  [sweep_stats] returns, per configuration and in list order,
    {b byte-identical} stats to an independent one-configuration
    simulation of the same trace, whatever the chunk boundaries (qcheck
    properties in the test suite hold it to the one-configuration oracle
    kept there). *)

type sweep

val sweep : config list -> sweep
(** Builds every configuration's caches, TLB and write buffer at once,
    so a bad configuration is refused before any reference is fed.
    @raise Invalid_argument on an empty list, a degenerate cache
    geometry (including a line size that is not a power of two), TLB
    size or write-buffer depth, a negative penalty or write-buffer
    drain (the message names the field), or configurations that do not
    share (physically, [==]) the same [pagemap] and [pt_base] —
    translation is done once per reference, so per-configuration page
    maps cannot be honoured. *)

val sweep_stats : sweep -> stats array
(** Per-configuration stats, in the order the configs were given. *)

val sweep_accesses : sweep -> (int * int) array
(** Per-configuration [(icache_accesses, dcache_read_accesses)] —
    the denominators for miss-ratio tables. *)

val sweep_private_sets : sweep -> int
(** The private set copies the TLB groups hold now, over every cache
    unit: 0 when each group's caches equal the shared state. *)

val sweep_lane_work : sweep -> int * int
(** [(ran, stores)]: every trace store so far counted once per TLB
    group, [stores] of them, and the [ran] at which the group ran its
    configurations' write buffers.  At the others, no buffer of the
    group could still be busy, so none was touched.  Host work only: no
    statistic depends on it. *)

val sweep_on_inst : sweep -> int -> int -> bool -> unit
(** [sweep_on_inst sw addr pid kernel] simulates one instruction fetch. *)

val sweep_on_data : sweep -> int -> int -> bool -> bool -> int -> unit
(** [sweep_on_data sw addr pid kernel is_load bytes] simulates one data
    reference; the size does not change what it touches. *)

val sweep_handlers : sweep -> Systrace_tracing.Parser.handlers
(** Plug directly into the trace parser. *)

val sweep_sink :
  ?live:int list -> sweep -> Systrace_tracing.Parser.t -> Systrace_tracing.Sink.t
(** [sweep_sink sw parser] attaches {!sweep_handlers} to [parser] and
    wraps it as a streaming word consumer ([Sink.to_parser ?live]): feed
    it raw trace chunks and the simulation runs online, during
    generation — peak resident words stay O(chunk) instead of O(trace). *)

val grid :
  ?nested:bool ->
  base:config ->
  sizes:int list ->
  lines:int list ->
  tlb_entries:int list ->
  wb_depths:int list ->
  unit ->
  (string * config) list
(** A labelled (cache size x line size x TLB entries x write-buffer
    depth) geometry grid over [base], both caches varied together.  With
    [nested] (default) associativity grows with size at a fixed set
    count — ways = size / min size — so each size axis forms a nesting
    family the sweep simulates as one LRU stack; with [~nested:false]
    every point is direct-mapped.
    @raise Invalid_argument on an empty axis or a size <= 0, or (nested)
    a size that is not a multiple of the smallest. *)
