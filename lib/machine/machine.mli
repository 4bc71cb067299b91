(** The simulated machine: CPU interpreter with branch delay slots, CP0,
    TLB, caches, write buffer, FP latency model, and devices (console,
    line clock, disk).

    This is the "hardware" of the reproduction.  Its ground-truth event
    counters play the role of the paper's direct measurements of the
    uninstrumented DECstation.  Nothing here knows about tracing: traces
    are generated purely by instrumented code running on the machine (the
    stub uops recognise the tracing runtime's blocks by their instructions
    only to interpret them faster, with the instructions' effects). *)

open Systrace_isa

exception Halted

(** R3000 exception codes. *)
module Exc : sig
  val interrupt : int
  val tlb_mod : int
  val tlbl : int
  val tlbs : int
  val adel : int
  val ades : int
  val syscall : int
  val breakpoint : int
  val reserved : int
end

exception Trap of { code : int; badva : int; refill : bool }

(** The same on every machine: 16-byte icache lines, 4-byte dcache
    lines and a 4-entry write buffer. *)
val icache_line : int
val dcache_line : int
val wb_depth : int

type config = {
  icache_bytes : int;
  dcache_bytes : int;
  read_miss_penalty : int;
  uncached_penalty : int;
  wb_drain : int;
  count_exec : bool;  (** per-instruction-word execution counts (§4.3) *)
  tier : Uop.tier;
      (** Interpreter tier (default {!Uop.Bcache}): [Step] is the
          step-at-a-time oracle with a full TLB walk per access;
          [Bcache] adds the translation micro-cache and its second
          level, the decode-once basic-block execution cache (one
          fetch translation + bounds check per block, keyed by (physical
          address, pc, cacheability), invalidated by per-page store
          generations, so self-modifying code, DMA, TLB remaps and mode
          switches behave exactly as in step-at-a-time execution) and
          the tracing runtime's stub uops on every cached block.  {!step}
          remains the state-identical oracle (qcheck-enforced). *)
}

val default_config : config

type counters = {
  mutable instructions : int;
  mutable user_instructions : int;
  mutable kernel_instructions : int;
  mutable idle_instructions : int;
  mutable uncached_ifetches : int;
  mutable uncached_reads : int;
  mutable utlb_misses : int;
  mutable ktlb_misses : int;
  mutable tlb_invalid : int;
  mutable tlb_mod : int;
  mutable exceptions : int;
  mutable interrupts : int;
  mutable syscalls : int;
  mutable clock_ticks : int;
}

(** Translation cache, used at [Bcache]: a last-translation
    micro-cache (one vpn -> page frame entry per access class: fetch,
    load, store) backed by a second level of {!l2_slots} direct-mapped
    entries per class, indexed by a hash of the vpn.  Both levels are filled
    only by successful walks and flushed together on TLB writes, CP0
    status/mode changes, ASID/context updates and exception entry;
    second-level keys carry the flush generation [l2_gen] above the 20
    vpn bits, so a flush is one increment. *)
type tcache = {
  mutable f_vpn : int;  mutable f_frame : int;  mutable f_cached : bool;
  mutable r_vpn : int;  mutable r_frame : int;  mutable r_cached : bool;
  mutable w_vpn : int;  mutable w_frame : int;  mutable w_cached : bool;
  l2_key : int array;   (** per slot: [vpn lor l2_gen]; -1 = never filled *)
  l2_pte : int array;   (** per slot: page frame, [lor 1] when uncached *)
  mutable l2_gen : int; (** flush generation, a multiple of 2{^20} *)
}

val l2_slots : int
(** Second-level entries per access class (64).  A vpn's slot folds its
    low six bits with the next twelve, so text vpn 0x400 and the
    bookkeeping page's vpn 0x7e000 land in different slots. *)

type t = {
  cfg : config;
  mem : Bytes.t;
  dec : Insn.t array array;
      (** Decoded-instruction cache: per 4 KB physical page, [[||]] until
          the page's first decode, then one slot per word holding the
          decoded instruction or a private "not decoded" sentinel.  Every
          physical write clears the slots it covers. *)
  bcache_tab : Uop.block array;
  bgen : Uop.Gens.t;
      (** Per-physical-page store generation: bumped by every store, DMA
          and host poke; cached blocks are valid only while their page's
          generation matches ({!Uop.Gens} owns the contract). *)
  regs : int array;
  fregs : float array;
  mutable fcc : bool;
  mutable pc : int;
  mutable npc : int;
  mutable next_is_delay : bool;
  mutable status : int;
  mutable cause : int;
  mutable epc : int;
  mutable badvaddr : int;
  mutable entryhi : int;
  mutable entrylo : int;
  mutable index_reg : int;
  mutable context_base : int;
  mutable context_badvpn : int;
  tlb : Tlb.t;
  tc : tcache;
  mutable tr_cached : bool;
      (** Cacheability of the last [translate_i] result — the hot paths'
          allocation-free way of returning (pa, cached). *)
  mutable bb_k : int;
      (** Index of the uop currently replaying in block mode — lets the
          per-block trap handler recover the faulting pc. *)
  mutable bb_blk : Uop.block;
      (** The block currently replaying (replay chains across blocks, so
          the trap handler tracks it here). *)
  mutable bb_dev : bool;
      (** Set when a store reached a device register, forcing the full
          post-store device recheck in block replay. *)
  mutable bb_kf : int;
      (** First uop of the pending (not yet counted) replay span. *)
  mutable bb_um : bool;
      (** Mode the pending replay span executed in. *)
  mutable stub_runs : int;
      (** Host-side count of stub uops that ran their whole block (a loop
          stub: at least one iteration). *)
  mutable stub_falls : int;
      (** Host-side count of stub uops that fell through to the scalar
          uops (observer set, budget or event horizon too close, icache
          lines of a loop stub not resident, or a data access that would
          not translate to cached RAM). *)
  stub_kind_runs : int array;
      (** [stub_runs] by stub kind, indexed as {!Uop.stub_kinds}. *)
  icache : Cache.t;
  dcache : Cache.t;
  wb : Write_buffer.t;
  fpu : Fpu.t;
  disk : Disk.t;
  mutable clock_interval : int;
  mutable next_clock : int;
  mutable ip : int;
  mutable cycles : int;
  mutable halted : bool;
  console : Buffer.t;
  c : counters;
  mutable idle_lo : int;
  mutable idle_hi : int;
  mutable hcall_handler : (t -> int -> unit) option;
  exec_counts : int array;
  mutable ref_tracer : (int -> int -> unit) option;
      (** Reference tracer: (kind, virtual address) for every instruction
          fetch (0), load (1), store (2) — the "independently developed
          CPU simulator" epoxie is validated against (§4.3). *)
}

val create : ?cfg:config -> unit -> t

val asid : t -> int

(** {2 Address translation} *)

val translate : t -> int -> write:bool -> fetch:bool -> int * bool
(** [translate t va ~write ~fetch] is [(pa, cached)]; raises {!Trap} on
    failure.  Goes through the last-translation micro-cache at
    [Bcache]. *)

val translate_walk : t -> int -> write:bool -> fetch:bool -> int * bool
(** The full segment-check + TLB walk, never consulting the micro-cache —
    the oracle that {!translate} must agree with on every (pa, cached,
    exception) result. *)

(** {2 Physical memory access (host side too)} *)

val read_phys_u32 : t -> int -> int
val write_phys_u32 : t -> int -> int -> unit
val write_phys_u8 : t -> int -> int -> unit
val write_phys_bytes : t -> int -> string -> unit

(** {2 Execution} *)

val step : t -> unit
(** One instruction (or one exception entry).  Raises {!Halted} if the
    machine was already halted. *)

type stop_reason = Halt | Limit

val run : t -> max_insns:int -> stop_reason
val halt : t -> unit

(** {2 Loading and inspection} *)

val load_exe_phys : t -> Exe.t -> text_pa:int -> data_pa:int -> unit
val console_contents : t -> string

val arith_stalls : t -> int
val wb_stalls : t -> int
val icache_misses : t -> int
val dcache_misses : t -> int
