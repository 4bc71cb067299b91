(* The simulated machine: CPU interpreter with branch delay slots, CP0
   system coprocessor, TLB, caches, write buffer, FP latency model, and the
   devices (console, line clock, disk).

   This is the "hardware" of the reproduction.  It keeps ground-truth event
   counters (cycles, cache misses, TLB misses, idle-loop instructions) that
   play the role of the paper's direct measurements of the uninstrumented
   DECstation: the validation harness compares these against predictions
   made from software-collected traces.

   Deliberately, nothing in this module knows about tracing: address traces
   are generated purely by instrumented code running on the machine.  The
   stub uops ({!Uop.stub}) recognise the tracing runtime's blocks by their
   instructions only to interpret them faster; their simulated effects are
   those of the instructions. *)

open Systrace_isa
open Uop

exception Halted

(* R3000 exception codes. *)
module Exc = struct
  let interrupt = 0
  let tlb_mod = 1
  let tlbl = 2
  let tlbs = 3
  let adel = 4
  let ades = 5
  let syscall = 8
  let breakpoint = 9
  let reserved = 10
end

exception Trap of { code : int; badva : int; refill : bool }

let trap ?(badva = -1) ?(refill = false) code =
  raise (Trap { code; badva; refill })

type config = {
  mem_bytes : int;
  icache_bytes : int;
  icache_line : int;
  dcache_bytes : int;
  dcache_line : int;
  read_miss_penalty : int;     (* cycles per cached read miss *)
  uncached_penalty : int;      (* cycles per uncached access *)
  wb_depth : int;
  wb_drain : int;
  disk_blocks : int;
  disk_seek : int;
  disk_per_block : int;
  count_exec : bool;           (* per-instruction-word execution counts *)
  tier : Uop.tier;    (* interpreter tier: step|bcache *)
}

let default_config =
  {
    mem_bytes = 16 * 1024 * 1024;
    icache_bytes = 16384;
    icache_line = 16;
    dcache_bytes = 16384;
    dcache_line = 4;
    read_miss_penalty = 15;
    uncached_penalty = 15;
    wb_depth = 4;
    wb_drain = 6;
    disk_blocks = 2048;
    disk_seek = 20000;
    disk_per_block = 4000;
    count_exec = false;
    tier = Uop.Bcache;
  }

type counters = {
  mutable instructions : int;
  mutable user_instructions : int;
  mutable kernel_instructions : int;
  mutable idle_instructions : int;
  mutable uncached_ifetches : int;
  mutable uncached_reads : int;
  mutable utlb_misses : int;          (* refill misses on kuseg *)
  mutable ktlb_misses : int;          (* refill misses on kseg2 *)
  mutable tlb_invalid : int;
  mutable tlb_mod : int;
  mutable exceptions : int;
  mutable interrupts : int;
  mutable syscalls : int;
  mutable clock_ticks : int;
}

let fresh_counters () =
  {
    instructions = 0;
    user_instructions = 0;
    kernel_instructions = 0;
    idle_instructions = 0;
    uncached_ifetches = 0;
    uncached_reads = 0;
    utlb_misses = 0;
    ktlb_misses = 0;
    tlb_invalid = 0;
    tlb_mod = 0;
    exceptions = 0;
    interrupts = 0;
    syscalls = 0;
    clock_ticks = 0;
  }

(* Last-translation micro-cache: one (vpn -> page frame) entry per access
   class (fetch / load / store), the way the R3000 pipeline held the last
   TLB match.  Only successful translations are cached, so the exception
   and counter behaviour of the full walk is preserved exactly; the cache
   is flushed on every event that can change a translation (TLB writes,
   CP0 status/mode changes, ASID/context updates).

   Behind it sits a second level: per class, [l2_slots] direct-mapped
   entries indexed by [l2_hash vpn].  Traced code alternates its loads
   and stores between several pages (caller text, bookkeeping page,
   dispatch table, trace buffer), which defeats a one-entry cache; the
   second level turns those re-walks into one array probe.  Keys carry
   the flush generation [l2_gen] above the 20 vpn bits, so a flush is
   one increment and stale entries can never match. *)
type tcache = {
  mutable f_vpn : int;  mutable f_frame : int;  mutable f_cached : bool;
  mutable r_vpn : int;  mutable r_frame : int;  mutable r_cached : bool;
  mutable w_vpn : int;  mutable w_frame : int;  mutable w_cached : bool;
  l2_key : int array;   (* vpn lor l2_gen, per slot; -1 = never filled *)
  l2_pte : int array;   (* frame lor 1 when uncached *)
  mutable l2_gen : int; (* multiple of 2^20 *)
}

let l2_slots = 64

(* A plain [vpn land 63] would put text vpn 0x400 and the bookkeeping
   page's vpn 0x7e000 in one slot; folding in the higher bits separates
   the pages one traced reference touches. *)
let[@inline] l2_hash vpn = (vpn lxor (vpn lsr 6) lxor (vpn lsr 12)) land (l2_slots - 1)

(* Slot base of each access class in [l2_key]/[l2_pte]. *)
let l2_fetch = 0
let l2_load = l2_slots
let l2_store = 2 * l2_slots

(* The uop IR and block representation live in {!Uop} (opened above):
   decode-to-uop lowering, the stub shapes, and the store-generation
   invalidation contract are owned there; this module owns the
   architectural state and the replay loop. *)

(* Direct-mapped block table: 16K slots of one word each.  Indexed by the
   physical word address of the block entry; collisions just evict. *)
let bcache_slots = 1 lsl 14

type t = {
  cfg : config;
  mem : Bytes.t;
  (* Decoded-instruction cache, per 4 KB physical page: [[||]] until the
     page's first decode, then one slot per word holding the decoded
     instruction or [undecoded].  Every physical write clears its slots
     (DESIGN.md §5m lists the sites); a page no code ever ran from costs
     one pointer. *)
  dec : Insn.t array array;
  (* Basic-block execution cache (Bcache tier): direct-mapped
     block table plus the per-physical-page store generations whose
     invalidation contract {!Uop.Gens} owns — every physical write
     (stores, DMA, host pokes) bumps the written page's generation, and
     a block is valid only while its text page's generation matches,
     which is what makes self-modifying and newly-loaded code safe.  TLB
     remaps and mode switches need no explicit flush: every block entry
     re-runs the fetch translation and the block is keyed on its
     (pa, va, cached) result. *)
  bcache_tab : Uop.block array;
  bgen : Uop.Gens.t;
  regs : int array;              (* 32-bit values as 0..2^32-1 *)
  fregs : float array;
  mutable fcc : bool;
  mutable pc : int;
  mutable npc : int;
  mutable next_is_delay : bool;
  (* CP0 *)
  mutable status : int;
  mutable cause : int;
  mutable epc : int;
  mutable badvaddr : int;
  mutable entryhi : int;
  mutable entrylo : int;
  mutable index_reg : int;
  mutable context_base : int;    (* PTEBase, bits 21.. *)
  mutable context_badvpn : int;
  tlb : Tlb.t;
  tc : tcache;
  (* Cacheability of the last [translate_i] result — a scratch return
     slot, so the hot translation path hands back (pa, cached) without
     allocating a tuple per access. *)
  mutable tr_cached : bool;
  (* Index of the uop currently replaying inside [exec_block] — written
     by every uop that can trap, so the block-level trap handler can
     recover the faulting pc and delay-slot flag instead of pushing an
     exception handler per instruction. *)
  mutable bb_k : int;
  (* The block currently replaying (valid together with [bb_k]): replay
     chains across blocks without returning, so the trap handler cannot
     rely on the block [exec_block] was entered with. *)
  mutable bb_blk : Uop.block;
  (* Set by [store_timed] when a store reached a device register (or a
     watchpoint fired): tells [exec_block] the interrupt lines and event
     horizon may have moved, so the post-store recheck must poll.  Plain
     RAM stores leave it clear and only re-validate the text page. *)
  mutable bb_dev : bool;
  (* Instruction-count batching for block replay: uops [bb_kf, k) of
     [bb_blk] have executed in mode [bb_um] but are not yet reflected in
     the counters.  Flushed ([bb_flush]) whenever the counters become
     observable: block exit, slow recheck paths, [U_other] entry, and
     the trap handler. *)
  mutable bb_kf : int;
  mutable bb_um : bool;
  (* Host-side dispatch counts of the stub uops: whole-block runs (also
     by kind, indexed as [Uop.stub_kinds]) and fall-throughs to the
     scalar uops.  Not simulated state. *)
  mutable stub_runs : int;
  mutable stub_falls : int;
  stub_kind_runs : int array;
  icache : Cache.t;
  dcache : Cache.t;
  wb : Write_buffer.t;
  fpu : Fpu.t;
  disk : Disk.t;
  mutable clock_interval : int;  (* 0 = disabled *)
  mutable next_clock : int;
  mutable ip : int;              (* pending interrupt lines, bit positions *)
  mutable cycles : int;
  mutable halted : bool;
  console : Buffer.t;
  c : counters;
  mutable idle_lo : int;         (* kernel idle-loop pc range, for ground *)
  mutable idle_hi : int;         (* truth idle instruction counting *)
  mutable hcall_handler : (t -> int -> unit) option;
  exec_counts : int array;       (* per physical word; empty if disabled *)
  (* Set by the harness to observe stores (used by tests). *)
  mutable watchpoint : (int -> int -> unit) option;
  (* Reference tracer: called with (kind, virtual address) for every
     instruction fetch (0), load (1) and store (2).  This is the
     "independently developed CPU simulator" trace the paper validates
     epoxie against (§4.3). *)
  mutable ref_tracer : (int -> int -> unit) option;
}

let create ?(cfg = default_config) () =
  let words = cfg.mem_bytes / 4 in
  {
    cfg;
    mem = Bytes.make cfg.mem_bytes '\000';
    dec = Array.make ((cfg.mem_bytes + Addr.page_mask) lsr Addr.page_shift) [||];
    bcache_tab =
      (if cfg.tier = Uop.Bcache then
         Array.make bcache_slots Uop.dummy_block
       else [||]);
    bgen = Uop.Gens.create ~mem_bytes:cfg.mem_bytes;
    regs = Array.make 32 0;
    fregs = Array.make Reg.nfregs 0.0;
    fcc = false;
    pc = 0;
    npc = 4;
    next_is_delay = false;
    status = 0;
    cause = 0;
    epc = 0;
    badvaddr = 0;
    entryhi = 0;
    entrylo = 0;
    index_reg = 0;
    context_base = 0;
    context_badvpn = 0;
    tlb =
      (let tlb = Tlb.create () in
       Tlb.reset tlb;
       tlb);
    tc =
      {
        f_vpn = -1; f_frame = 0; f_cached = false;
        r_vpn = -1; r_frame = 0; r_cached = false;
        w_vpn = -1; w_frame = 0; w_cached = false;
        l2_key = Array.make (3 * l2_slots) (-1);
        l2_pte = Array.make (3 * l2_slots) 0;
        l2_gen = 0;
      };
    tr_cached = false;
    bb_k = 0;
    bb_blk = Uop.dummy_block;
    bb_dev = false;
    bb_kf = 0;
    bb_um = false;
    stub_runs = 0;
    stub_falls = 0;
    stub_kind_runs = Array.make (Array.length Uop.stub_kinds) 0;
    icache = Cache.create ~size_bytes:cfg.icache_bytes ~line_bytes:cfg.icache_line;
    dcache = Cache.create ~size_bytes:cfg.dcache_bytes ~line_bytes:cfg.dcache_line;
    wb = Write_buffer.create ~depth:cfg.wb_depth ~drain_cycles:cfg.wb_drain ();
    fpu = Fpu.create ();
    disk =
      Disk.create ~blocks:cfg.disk_blocks ~seek_cycles:cfg.disk_seek
        ~per_block_cycles:cfg.disk_per_block ();
    clock_interval = 0;
    next_clock = max_int;
    ip = 0;
    cycles = 0;
    halted = false;
    console = Buffer.create 256;
    c = fresh_counters ();
    idle_lo = 0;
    idle_hi = 0;
    hcall_handler = None;
    exec_counts = (if cfg.count_exec then Array.make words 0 else [||]);
    watchpoint = None;
    ref_tracer = None;
  }

let ref_trace t kind addr =
  match t.ref_tracer with Some f -> f kind addr | None -> ()

let user_mode t = t.status land 0x2 <> 0
let asid t = (t.entryhi lsr 6) land 0x3F

(* ------------------------------------------------------------------ *)
(* Raw physical memory access (host-side too)                          *)

let phys_ok t pa len = pa >= 0 && pa + len <= t.cfg.mem_bytes

(* Every physical write advances the page's store generation
   ({!Uop.Gens} owns the contract), which invalidates any cached basic
   block decoded from that page (bounds checked: callers validate [pa]
   against memory the same way the Bytes accesses do). *)
let[@inline] bgen_bump t pa =
  let p = pa lsr Addr.page_shift in
  let g = t.bgen in
  Array.unsafe_set g p (Array.unsafe_get g p + 1)
let bgen_bump_range t pa len = Uop.Gens.bump_range t.bgen pa len

(* The decoded-instruction cache ([t.dec]).  [undecoded] is allocated
   here, so no decode result is physically equal to it. *)
let undecoded : Insn.t = Insn.Break (Sys.opaque_identity (-1))
let dec_page_words = Addr.page_size lsr 2

(* Forget the decode of the word at [pa], if its page has a slot array
   (bounds as for [bgen_bump]). *)
let[@inline] dec_clear t pa =
  let pg = Array.unsafe_get t.dec (pa lsr Addr.page_shift) in
  if Array.length pg > 0 then
    Array.unsafe_set pg ((pa lsr 2) land (dec_page_words - 1)) undecoded

(* [dec_clear] over [pa, pa + len), a page at a time. *)
let dec_clear_range t pa len =
  if len > 0 then
    for p = pa lsr Addr.page_shift to (pa + len - 1) lsr Addr.page_shift do
      let pg = t.dec.(p) in
      if Array.length pg > 0 then begin
        let base = p lsl Addr.page_shift in
        let lo = Int.max pa base
        and hi = Int.min (pa + len) (base + Addr.page_size) in
        Array.fill pg ((lo - base) lsr 2) (((hi - 1) lsr 2) - (lo lsr 2) + 1)
          undecoded
      end
    done

let read_phys_u32 t pa =
  Int32.to_int (Bytes.get_int32_le t.mem pa) land 0xFFFFFFFF

(* The decoded instruction at [pa] (fetched at [va]), decoding and
   caching it on a miss.  [fetch_timed] and block formation share it,
   which keeps block mode and step mode byte-identical even in the
   aliased-mapping corner where a cached entry was decoded at a
   different va. *)
let decode_at t ~va ~pa =
  let p = pa lsr Addr.page_shift in
  let pg =
    let pg = t.dec.(p) in
    if Array.length pg > 0 then pg
    else begin
      let pg = Array.make dec_page_words undecoded in
      t.dec.(p) <- pg;
      pg
    end
  in
  let i = (pa lsr 2) land (dec_page_words - 1) in
  let insn = Array.unsafe_get pg i in
  if insn != undecoded then insn
  else begin
    let insn = Encode.decode ~pc:va (read_phys_u32 t pa) in
    Array.unsafe_set pg i insn;
    insn
  end

let write_phys_u32 t pa v =
  Bytes.set_int32_le t.mem pa (Int32.of_int (v land 0xFFFFFFFF));
  dec_clear t pa;
  bgen_bump t pa

let read_phys_u16 t pa = Bytes.get_uint16_le t.mem pa
let read_phys_u8 t pa = Bytes.get_uint8 t.mem pa

let write_phys_u16 t pa v =
  Bytes.set_uint16_le t.mem pa (v land 0xFFFF);
  dec_clear t pa;
  bgen_bump t pa

let write_phys_u8 t pa v =
  Bytes.set_uint8 t.mem pa (v land 0xFF);
  dec_clear t pa;
  bgen_bump t pa

let write_phys_bytes t pa s =
  Bytes.blit_string s 0 t.mem pa (String.length s);
  dec_clear_range t pa (String.length s);
  bgen_bump_range t pa (String.length s)

(* ------------------------------------------------------------------ *)
(* Address translation                                                 *)

(* Full translation walk: segment checks plus TLB lookup.  Returns
   (pa, cached); raises [Trap] on failure.  This is the micro-cache-free
   oracle the fast [translate] below must agree with. *)
let translate_walk t va ~write:w ~fetch =
  match Addr.segment va with
  | Addr.Kseg0 ->
    if user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel)
    else (Addr.kseg0_pa va, true)
  | Addr.Kseg1 ->
    if user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel)
    else (Addr.kseg1_pa va, false)
  | Addr.Kuseg | Addr.Kseg2 -> (
    if Addr.segment va = Addr.Kseg2 && user_mode t then
      trap ~badva:va (if w then Exc.ades else Exc.adel);
    let vpn = Addr.vpn va in
    match Tlb.lookup t.tlb ~vpn ~asid:(asid t) ~write:w with
    | Tlb.Hit { pfn; noncacheable; _ } ->
      ((pfn lsl Addr.page_shift) lor Addr.page_offset va, not noncacheable)
    | Tlb.Miss ->
      if va < Addr.kuseg_limit then t.c.utlb_misses <- t.c.utlb_misses + 1
      else t.c.ktlb_misses <- t.c.ktlb_misses + 1;
      ignore fetch;
      trap ~badva:va ~refill:true (if w then Exc.tlbs else Exc.tlbl)
    | Tlb.Invalid ->
      t.c.tlb_invalid <- t.c.tlb_invalid + 1;
      trap ~badva:va (if w then Exc.tlbs else Exc.tlbl)
    | Tlb.Modified ->
      t.c.tlb_mod <- t.c.tlb_mod + 1;
      trap ~badva:va Exc.tlb_mod)

let tcache_flush t =
  let tc = t.tc in
  tc.f_vpn <- -1;
  tc.r_vpn <- -1;
  tc.w_vpn <- -1;
  tc.l2_gen <- tc.l2_gen + (1 lsl 20)

(* Translation with the last-translation micro-cache and its second level
   in front of the full walk: the common access reuses a page frame
   without re-checking segment permissions or walking the TLB.  Failed
   walks trap before either level is filled, so misses, invalid entries
   and modified faults behave (and count) exactly as in [translate_walk].

   [translate_i] returns the physical address and leaves cacheability in
   [t.tr_cached] — the hot paths (fetch, load, store, block entry) read
   it from there, so a translation costs no tuple allocation.  The tuple
   API [translate] is a thin wrapper kept for the oracle comparisons and
   external callers. *)
let translate_i t va ~write:w ~fetch =
  let tc = t.tc in
  let vpn = va lsr Addr.page_shift in
  if fetch && vpn = tc.f_vpn then begin
    t.tr_cached <- tc.f_cached;
    tc.f_frame lor (va land Addr.page_mask)
  end
  else if (not fetch) && (not w) && vpn = tc.r_vpn then begin
    t.tr_cached <- tc.r_cached;
    tc.r_frame lor (va land Addr.page_mask)
  end
  else if (not fetch) && w && vpn = tc.w_vpn then begin
    t.tr_cached <- tc.w_cached;
    tc.w_frame lor (va land Addr.page_mask)
  end
  else begin
    let s =
      (if fetch then l2_fetch else if w then l2_store else l2_load)
      + l2_hash vpn
    in
    let hit = Array.unsafe_get tc.l2_key s = vpn lor tc.l2_gen in
    let pte =
      if hit then Array.unsafe_get tc.l2_pte s
      else begin
        let pa, cached = translate_walk t va ~write:w ~fetch in
        pa land lnot Addr.page_mask lor if cached then 0 else 1
      end
    in
    let frame = pte land lnot 1 and cached = pte land 1 = 0 in
    (* only an enabled cache is ever filled, so a hit implies enabled *)
    if hit || t.cfg.tier = Uop.Bcache then begin
      if not hit then begin
        Array.unsafe_set tc.l2_key s (vpn lor tc.l2_gen);
        Array.unsafe_set tc.l2_pte s pte
      end;
      if fetch then begin
        tc.f_vpn <- vpn; tc.f_frame <- frame; tc.f_cached <- cached
      end
      else if w then begin
        tc.w_vpn <- vpn; tc.w_frame <- frame; tc.w_cached <- cached
      end
      else begin
        tc.r_vpn <- vpn; tc.r_frame <- frame; tc.r_cached <- cached
      end
    end;
    t.tr_cached <- cached;
    frame lor (va land Addr.page_mask)
  end

let translate t va ~write ~fetch =
  let pa = translate_i t va ~write ~fetch in
  (pa, t.tr_cached)

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)

let raise_irq t line = t.ip <- t.ip lor (1 lsl line)
let clear_irq t line = t.ip <- t.ip land lnot (1 lsl line)

let disk_refresh_irq t =
  if Disk.has_done t.disk then raise_irq t Addr.irq_disk
  else clear_irq t Addr.irq_disk

let poll_devices t =
  if t.cycles >= t.next_clock then begin
    t.c.clock_ticks <- t.c.clock_ticks + 1;
    raise_irq t Addr.irq_clock;
    t.next_clock <-
      (if t.clock_interval > 0 then t.cycles + t.clock_interval else max_int)
  end;
  if Disk.next_event t.disk <= t.cycles then begin
    let n =
      Disk.poll t.disk ~now:t.cycles ~mem:t.mem ~on_dma:(fun ~paddr ~len ->
          (* DMA'd memory may hold instructions: invalidate the decode
             cache and the basic blocks built over it. *)
          dec_clear_range t paddr len;
          bgen_bump_range t paddr len)
    in
    if n > 0 then disk_refresh_irq t
  end

let device_read t pa =
  let off = pa - Addr.device_base_pa in
  if off = Addr.dev_clock_interval then t.clock_interval
  else if off = Addr.dev_disk_status then (if Disk.busy t.disk then 1 else 0)
  else if off = Addr.dev_disk_done_block then Disk.done_block t.disk land 0xFFFFFFFF
  else if off = Addr.dev_cycle_lo then t.cycles land 0xFFFFFFFF
  else if off = Addr.dev_cycle_hi then (t.cycles lsr 32) land 0xFFFFFFFF
  else 0

let device_write t pa v =
  let off = pa - Addr.device_base_pa in
  if off = Addr.dev_console_tx then Buffer.add_char t.console (Char.chr (v land 0xFF))
  else if off = Addr.dev_clock_interval then begin
    t.clock_interval <- v;
    t.next_clock <- (if v > 0 then t.cycles + v else max_int)
  end
  else if off = Addr.dev_clock_ack then clear_irq t Addr.irq_clock
  else if off = Addr.dev_disk_block then t.disk.Disk.reg_block <- v
  else if off = Addr.dev_disk_addr then t.disk.Disk.reg_addr <- v
  else if off = Addr.dev_disk_count then t.disk.Disk.reg_count <- v
  else if off = Addr.dev_disk_cmd then
    ignore (Disk.submit t.disk ~now:t.cycles ~is_write:(v = 2))
  else if off = Addr.dev_disk_ack then begin
    Disk.ack t.disk;
    disk_refresh_irq t
  end

let[@inline] is_device_pa pa =
  pa >= Addr.device_base_pa && pa < Addr.device_base_pa + Addr.dev_limit

(* The TLB probe behind [ram_pa]'s cache levels: the page-table entry
   ([frame lor 1] when uncached) of a translation that would succeed,
   filled into second-level slot [s]; -1 for one that would trap. *)
let ram_pte_walk t va vpn s ~write:w =
  let tc = t.tc in
  let user = user_mode t in
  let pte =
    match Addr.segment va with
    | Addr.Kseg0 ->
      if user then -1 else Addr.kseg0_pa va land lnot Addr.page_mask
    | Addr.Kseg1 -> -1
    | Addr.Kseg2 when user -> -1
    | Addr.Kuseg | Addr.Kseg2 -> (
      match Tlb.lookup t.tlb ~vpn ~asid:(asid t) ~write:w with
      | Tlb.Hit { pfn; noncacheable; _ } ->
        (pfn lsl Addr.page_shift) lor if noncacheable then 1 else 0
      | Tlb.Miss | Tlb.Invalid | Tlb.Modified -> -1)
  in
  if pte >= 0 then begin
    Array.unsafe_set tc.l2_key s (vpn lor tc.l2_gen);
    Array.unsafe_set tc.l2_pte s pte
  end;
  pte

(* The physical address of an aligned word access to [va] when it would
   translate, with no side effect, to cacheable RAM outside the device
   window; -1 otherwise.  The stub uops' pre-check: it reads both
   translation-cache levels and, past them, makes a TLB probe that
   changes no simulated state (a successful one fills the second level,
   as [translate_i] would).  Anything that would trap or count is left
   to the scalar path. *)
let[@inline] ram_pa t va ~write:w =
  if va land 3 <> 0 then -1
  else begin
    let tc = t.tc in
    let vpn = va lsr Addr.page_shift in
    let pte =
      if w && vpn = tc.w_vpn then
        if tc.w_cached then tc.w_frame else -1
      else if (not w) && vpn = tc.r_vpn then
        if tc.r_cached then tc.r_frame else -1
      else begin
        let s = (if w then l2_store else l2_load) + l2_hash vpn in
        if Array.unsafe_get tc.l2_key s = vpn lor tc.l2_gen then
          Array.unsafe_get tc.l2_pte s
        else ram_pte_walk t va vpn s ~write:w
      end
    in
    if pte < 0 || pte land 1 <> 0 then -1
    else begin
      let pa = pte lor (va land Addr.page_mask) in
      if pa + 4 <= t.cfg.mem_bytes && not (is_device_pa pa) then pa else -1
    end
  end

(* ------------------------------------------------------------------ *)
(* Timed memory access                                                 *)

(* A word load from / store to cached RAM at [pa] (an aligned word
   below [mem_bytes], outside the device window): direct-mapped d-cache
   probe + raw read; write-through no-allocate on the store side, so
   only the write buffer, memory, decode cache and page generation are
   touched. *)
let[@inline always] bb_dload t pa =
  let dc = t.dcache in
  let tg = pa lsr dc.Cache.line_shift in
  let idx = tg land (dc.Cache.nlines - 1) in
  if Array.unsafe_get dc.Cache.tags idx = tg then
    dc.Cache.hits <- dc.Cache.hits + 1
  else begin
    dc.Cache.misses <- dc.Cache.misses + 1;
    Array.unsafe_set dc.Cache.tags idx tg;
    t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end;
  Int32.to_int (Bytes.get_int32_le t.mem pa) land 0xFFFFFFFF

(* [Write_buffer.store] with its free-slot case inlined (the ring fields
   are public for exactly this: the call dominated the store fast
   paths); a full buffer takes the out-of-line stall path.  Returns the
   stall of a store issued at cycle [now]. *)
let[@inline always] wb_store t now =
  let wb = t.wb in
  let dep = wb.Write_buffer.depth in
  while
    wb.Write_buffer.count > 0
    && Array.unsafe_get wb.Write_buffer.ring wb.Write_buffer.head <= now
  do
    let ix = wb.Write_buffer.head + 1 in
    wb.Write_buffer.head <- (if ix >= dep then ix - dep else ix);
    wb.Write_buffer.count <- wb.Write_buffer.count - 1
  done;
  let cnt = wb.Write_buffer.count in
  if cnt < dep then begin
    wb.Write_buffer.stores <- wb.Write_buffer.stores + 1;
    let hd = wb.Write_buffer.head in
    let last =
      if cnt = 0 then now
      else
        Array.unsafe_get wb.Write_buffer.ring
          (let ix = hd + cnt - 1 in if ix >= dep then ix - dep else ix)
    in
    let retire = (if now > last then now else last) + wb.Write_buffer.drain_cycles in
    Array.unsafe_set wb.Write_buffer.ring
      (let ix = hd + cnt in if ix >= dep then ix - dep else ix)
      retire;
    wb.Write_buffer.count <- cnt + 1;
    0
  end
  else Write_buffer.store wb ~now

let[@inline always] bb_dstore t pa v =
  t.cycles <- t.cycles + wb_store t t.cycles;
  Bytes.set_int32_le t.mem pa (Int32.of_int (v land 0xFFFFFFFF));
  dec_clear t pa;
  bgen_bump t pa

let load_word_timed t va =
  if va land 3 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:false in
  let cached = t.tr_cached in
  if is_device_pa pa then begin
    t.cycles <- t.cycles + t.cfg.uncached_penalty;
    t.c.uncached_reads <- t.c.uncached_reads + 1;
    device_read t pa
  end
  else begin
    if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
    if cached then bb_dload t pa
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty;
      read_phys_u32 t pa
    end
  end

let load_timed t va bytes =
  match bytes with
  | 4 -> load_word_timed t va
  | 2 ->
    if va land 1 <> 0 then trap ~badva:va Exc.adel;
    let pa = translate_i t va ~write:false ~fetch:false in
    let cached = t.tr_cached in
    if not (phys_ok t pa 2) then trap ~badva:va Exc.adel;
    if cached then begin
      if not (Cache.read t.dcache pa) then
        t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty
    end;
    read_phys_u16 t pa
  | 1 ->
    let pa = translate_i t va ~write:false ~fetch:false in
    let cached = t.tr_cached in
    if not (phys_ok t pa 1) then trap ~badva:va Exc.adel;
    if cached then begin
      if not (Cache.read t.dcache pa) then
        t.cycles <- t.cycles + t.cfg.read_miss_penalty
    end
    else begin
      t.c.uncached_reads <- t.c.uncached_reads + 1;
      t.cycles <- t.cycles + t.cfg.uncached_penalty
    end;
    read_phys_u8 t pa
  | _ -> assert false

let store_timed t va bytes v =
  (match bytes with
  | 4 -> if va land 3 <> 0 then trap ~badva:va Exc.ades
  | 2 -> if va land 1 <> 0 then trap ~badva:va Exc.ades
  | _ -> ());
  let pa = translate_i t va ~write:true ~fetch:false in
  if is_device_pa pa then begin
    t.bb_dev <- true;
    t.cycles <- t.cycles + t.cfg.uncached_penalty;
    device_write t pa v
  end
  else begin
    if not (phys_ok t pa bytes) then trap ~badva:va Exc.ades;
    (* write-through no-allocate: a store changes no d-cache state, cached
       or not *)
    (match bytes with
    | 4 -> bb_dstore t pa v
    | 2 ->
      t.cycles <- t.cycles + wb_store t t.cycles;
      write_phys_u16 t pa v
    | 1 ->
      t.cycles <- t.cycles + wb_store t t.cycles;
      write_phys_u8 t pa v
    | _ -> assert false);
    match t.watchpoint with
    | Some f ->
      t.bb_dev <- true;
      f va v
    | None -> ()
  end

let load_double_timed t va =
  if va land 7 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:false in
  let cached = t.tr_cached in
  if not (phys_ok t pa 8) then trap ~badva:va Exc.adel;
  if cached then begin
    if not (Cache.read t.dcache pa) then
      t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end
  else begin
    t.c.uncached_reads <- t.c.uncached_reads + 1;
    t.cycles <- t.cycles + t.cfg.uncached_penalty
  end;
  Int64.float_of_bits (Bytes.get_int64_le t.mem pa)

let store_double_timed t va f =
  if va land 7 <> 0 then trap ~badva:va Exc.ades;
  let pa = translate_i t va ~write:true ~fetch:false in
  let cached = t.tr_cached in
  if not (phys_ok t pa 8) then trap ~badva:va Exc.ades;
  if cached then ignore (Cache.write t.dcache pa);
  (* A double store occupies two write-buffer slots. *)
  t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
  t.cycles <- t.cycles + Write_buffer.store t.wb ~now:t.cycles;
  Bytes.set_int64_le t.mem pa (Int64.bits_of_float f);
  (* 8-byte aligned, so both words share one page *)
  dec_clear t pa;
  dec_clear t (pa + 4);
  bgen_bump t pa

(* Instruction fetch with decode caching. *)
let fetch_timed t va =
  if va land 3 <> 0 then trap ~badva:va Exc.adel;
  let pa = translate_i t va ~write:false ~fetch:true in
  let cached = t.tr_cached in
  if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
  if cached then begin
    if not (Cache.read t.icache pa) then
      t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end
  else begin
    t.c.uncached_ifetches <- t.c.uncached_ifetches + 1;
    t.cycles <- t.cycles + t.cfg.uncached_penalty
  end;
  decode_at t ~va ~pa

(* ------------------------------------------------------------------ *)
(* 32-bit arithmetic helpers                                           *)

let u32 v = v land 0xFFFFFFFF
let s32 v = let v = u32 v in if v >= 0x80000000 then v - 0x100000000 else v

(* ------------------------------------------------------------------ *)
(* Exception entry                                                     *)

let enter_exception t ~code ~badva ~refill ~cur ~in_delay =
  t.c.exceptions <- t.c.exceptions + 1;
  if code = Exc.interrupt then t.c.interrupts <- t.c.interrupts + 1;
  if code = Exc.syscall then t.c.syscalls <- t.c.syscalls + 1;
  t.epc <- (if in_delay then cur - 4 else cur);
  t.cause <-
    (code lsl 2)
    lor (if in_delay then 0x80000000 else 0)
    lor (t.ip lsl 8 land 0xFF00);
  if badva >= 0 then begin
    t.badvaddr <- badva;
    if code = Exc.tlbl || code = Exc.tlbs || code = Exc.tlb_mod then begin
      t.entryhi <-
        Tlb.make_entryhi ~vpn:(Addr.vpn badva) ~asid:(asid t);
      t.context_badvpn <- Addr.vpn badva
    end
  end;
  (* Push the KU/IE stack: old <- prev <- current <- (kernel, disabled). *)
  t.status <- (t.status land lnot 0x3F) lor ((t.status lsl 2) land 0x3C);
  let vector =
    if refill && badva >= 0 && badva < Addr.kuseg_limit then Addr.utlb_vector
    else Addr.general_vector
  in
  t.pc <- vector;
  t.npc <- vector + 4;
  t.next_is_delay <- false;
  (* Status and EntryHi both changed above. *)
  tcache_flush t

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)

(* Register numbers come from 5-bit decode fields (or [Reg] constants),
   so they are always in [0, 31]. *)
let reg_get t r = Array.unsafe_get t.regs r
let reg_set t r v = if r <> 0 then Array.unsafe_set t.regs r (u32 v)

let exec_alu t op rd rs rt =
  let a = reg_get t rs and b = reg_get t rt in
  let v =
    match (op : Insn.alu) with
    | ADD | ADDU -> a + b
    | SUB | SUBU -> a - b
    | AND -> a land b
    | OR -> a lor b
    | XOR -> a lxor b
    | NOR -> lnot (a lor b)
    | SLT -> if s32 a < s32 b then 1 else 0
    | SLTU -> if a < b then 1 else 0
    | SLLV -> a lsl (b land 31)
    | SRLV -> a lsr (b land 31)
    | SRAV -> s32 a asr (b land 31)
    | MUL -> s32 a * s32 b
    | MULH ->
      Int64.to_int
        (Int64.shift_right
           (Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 b)))
           32)
    | DIV -> if s32 b = 0 then 0 else s32 a / s32 b
    | REM -> if s32 b = 0 then 0 else Stdlib.Int.rem (s32 a) (s32 b)
  in
  reg_set t rd v

let exec_alui t op rt rs imm =
  let a = reg_get t rs in
  let v =
    match (op : Insn.alui) with
    | ADDI | ADDIU -> a + imm
    | SLTI -> if s32 a < imm then 1 else 0
    | SLTIU -> if a < u32 imm then 1 else 0
    | ANDI -> a land imm
    | ORI -> a lor imm
    | XORI -> a lxor imm
  in
  reg_set t rt v

let cp0_read t (c : Insn.cp0) =
  match c with
  | C0_index -> t.index_reg
  | C0_random -> Tlb.random_index ~cycle:t.cycles lsl 8
  | C0_entrylo -> t.entrylo
  | C0_context ->
    (t.context_base land 0xFFE00000) lor ((t.context_badvpn lsl 2) land 0x1FFFFC)
  | C0_badvaddr -> t.badvaddr
  | C0_count -> t.cycles land 0xFFFFFFFF
  | C0_entryhi -> t.entryhi
  | C0_status -> t.status
  | C0_cause -> (t.cause land lnot 0xFF00) lor ((t.ip lsl 8) land 0xFF00)
  | C0_epc -> t.epc
  | C0_prid -> 0x0230 (* R3000-ish *)

let cp0_write t (c : Insn.cp0) v =
  match c with
  | C0_index -> t.index_reg <- v land 0x3F00
  | C0_random -> ()
  | C0_entrylo -> t.entrylo <- v
  | C0_context ->
    t.context_base <- v land 0xFFE00000;
    tcache_flush t
  | C0_badvaddr -> ()
  | C0_count -> ()
  | C0_entryhi ->
    (* ASID lives here: a change retargets every mapped translation. *)
    t.entryhi <- v;
    tcache_flush t
  | C0_status ->
    (* Of the status bits, only KUc (bit 1) gates segment permissions:
       IE and IM writes leave every translation as it was. *)
    let flip = (t.status lxor v) land 0x2 <> 0 in
    t.status <- v;
    if flip then tcache_flush t
  | C0_cause -> t.cause <- v
  | C0_epc -> t.epc <- v
  | C0_prid -> ()

let privileged t =
  if user_mode t then trap Exc.reserved

let exec t cur insn =
  let target = function
    | Insn.Abs a -> a
    | Insn.Sym s -> failwith ("unresolved symbol at runtime: " ^ s)
  in
  let imm_value = function
    | Insn.Imm n -> n
    | Insn.Lo s | Insn.Hi s ->
      failwith ("unresolved immediate at runtime: " ^ s)
  in
  let branch cond tgt =
    t.next_is_delay <- true;
    if cond then t.npc <- target tgt
  in
  match (insn : Insn.t) with
  | Alu (op, rd, rs, rt) -> exec_alu t op rd rs rt
  | Alui (op, rt, rs, imm) -> exec_alui t op rt rs (imm_value imm)
  | Shift (op, rd, rt, sa) ->
    let v = reg_get t rt in
    reg_set t rd
      (match op with
      | SLL -> v lsl sa
      | SRL -> v lsr sa
      | SRA -> s32 v asr sa)
  | Lui (rt, imm) -> reg_set t rt (imm_value imm lsl 16)
  | Load (w, rt, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    let v =
      match w with
      | W -> load_timed t va 4
      | H ->
        let v = load_timed t va 2 in
        if v >= 0x8000 then v - 0x10000 else v
      | HU -> load_timed t va 2
      | B ->
        let v = load_timed t va 1 in
        if v >= 0x80 then v - 0x100 else v
      | BU -> load_timed t va 1
    in
    ref_trace t 1 va;
    reg_set t rt v
  | Store (w, rt, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    let bytes = match w with W -> 4 | H | HU -> 2 | B | BU -> 1 in
    store_timed t va bytes (reg_get t rt);
    ref_trace t 2 va
  | Fload (ft, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    let v = load_double_timed t va in
    ref_trace t 1 va;
    t.fregs.(ft) <- v;
    Fpu.set_ready t.fpu ~now:t.cycles ft
  | Fstore (ft, base, off) ->
    let va = u32 (reg_get t base + imm_value off) in
    t.cycles <- t.cycles + Fpu.wait_regs t.fpu ~now:t.cycles [ ft ];
    store_double_timed t va t.fregs.(ft);
    ref_trace t 2 va
  | Beq (rs, rt, tg) -> branch (reg_get t rs = reg_get t rt) tg
  | Bne (rs, rt, tg) -> branch (reg_get t rs <> reg_get t rt) tg
  | Blez (rs, tg) -> branch (s32 (reg_get t rs) <= 0) tg
  | Bgtz (rs, tg) -> branch (s32 (reg_get t rs) > 0) tg
  | Bltz (rs, tg) -> branch (s32 (reg_get t rs) < 0) tg
  | Bgez (rs, tg) -> branch (s32 (reg_get t rs) >= 0) tg
  | J tg -> branch true tg
  | Jal tg ->
    reg_set t Reg.ra (cur + 8);
    branch true tg
  | Jr rs ->
    t.next_is_delay <- true;
    t.npc <- reg_get t rs
  | Jalr (rd, rs) ->
    let dest = reg_get t rs in
    reg_set t rd (cur + 8);
    t.next_is_delay <- true;
    t.npc <- dest
  | Syscall -> trap Exc.syscall
  | Break _ -> trap Exc.breakpoint
  | Mfc0 (rt, c) ->
    privileged t;
    reg_set t rt (cp0_read t c)
  | Mtc0 (rt, c) ->
    privileged t;
    cp0_write t c (reg_get t rt)
  | Tlbr ->
    privileged t;
    let hi, lo = Tlb.read t.tlb ((t.index_reg lsr 8) land 0x3F) in
    t.entryhi <- hi;
    t.entrylo <- lo
  | Tlbwi ->
    privileged t;
    Tlb.write t.tlb ((t.index_reg lsr 8) land 0x3F) ~hi:t.entryhi ~lo:t.entrylo;
    tcache_flush t
  | Tlbwr ->
    privileged t;
    Tlb.write t.tlb (Tlb.random_index ~cycle:t.cycles) ~hi:t.entryhi
      ~lo:t.entrylo;
    tcache_flush t
  | Tlbp ->
    privileged t;
    (match
       Tlb.probe t.tlb ~vpn:(t.entryhi lsr 12) ~asid:((t.entryhi lsr 6) land 0x3F)
     with
    | Some k -> t.index_reg <- k lsl 8
    | None -> t.index_reg <- 0x80000000)
  | Rfe ->
    privileged t;
    t.status <- (t.status land lnot 0xF) lor ((t.status lsr 2) land 0xF);
    tcache_flush t
  | Mfc1 (rt, fs) ->
    t.cycles <- t.cycles + Fpu.wait_regs t.fpu ~now:t.cycles [ fs ];
    reg_set t rt (int_of_float t.fregs.(fs))
  | Mtc1 (rt, fs) ->
    t.fregs.(fs) <- float_of_int (s32 (reg_get t rt));
    Fpu.set_ready t.fpu ~now:t.cycles fs
  | Fop (op, fd, fs, ft) ->
    let srcs = match op with FADD | FSUB | FMUL | FDIV -> [ fs; ft ] | _ -> [ fs ] in
    t.cycles <- t.cycles + Fpu.wait_regs t.fpu ~now:t.cycles srcs;
    t.cycles <- t.cycles + Fpu.issue t.fpu ~now:t.cycles ~op ~dst:fd;
    let a = t.fregs.(fs) and b = t.fregs.(ft) in
    t.fregs.(fd) <-
      (match op with
      | FADD -> a +. b
      | FSUB -> a -. b
      | FMUL -> a *. b
      | FDIV -> a /. b
      | FABS -> abs_float a
      | FNEG -> -.a
      | FMOV -> a
      | CVTDW -> a
      | TRUNCWD -> Float.of_int (int_of_float a))
  | Fcmp (c, fs, ft) ->
    t.cycles <- t.cycles + Fpu.wait_regs t.fpu ~now:t.cycles [ fs; ft ];
    t.cycles <- t.cycles + Fpu.issue_compare t.fpu ~now:t.cycles;
    let a = t.fregs.(fs) and b = t.fregs.(ft) in
    t.fcc <- (match c with FEQ -> a = b | FLT -> a < b | FLE -> a <= b)
  | Bc1t tg -> branch t.fcc tg
  | Bc1f tg -> branch (not t.fcc) tg
  | Cache (op, base, off) ->
    privileged t;
    let va = u32 (reg_get t base + imm_value off) in
    let pa, _ = translate t va ~write:false ~fetch:false in
    if op = 0 then Cache.invalidate t.icache pa
    else Cache.invalidate t.dcache pa
  | Hcall code -> (
    privileged t;
    match t.hcall_handler with
    | Some f -> f t code
    | None -> failwith (Printf.sprintf "hcall %d with no handler" code))

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)

let interrupt_pending t =
  t.status land 1 <> 0 && t.ip land ((t.status lsr 8) land 0xFF) <> 0

let step t =
  if t.halted then raise Halted;
  poll_devices t;
  if (not t.next_is_delay) && interrupt_pending t then
    enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false ~cur:t.pc
      ~in_delay:false
  else begin
    let cur = t.pc in
    let in_delay = t.next_is_delay in
    match fetch_timed t cur with
    | insn ->
      ref_trace t 0 cur;
      t.next_is_delay <- false;
      t.pc <- t.npc;
      t.npc <- t.npc + 4;
      (try
         exec t cur insn;
         t.cycles <- t.cycles + 1;
         t.c.instructions <- t.c.instructions + 1;
         if user_mode t then
           t.c.user_instructions <- t.c.user_instructions + 1
         else begin
           t.c.kernel_instructions <- t.c.kernel_instructions + 1;
           if cur >= t.idle_lo && cur < t.idle_hi then
             t.c.idle_instructions <- t.c.idle_instructions + 1
         end;
         if t.cfg.count_exec then begin
           (* Count by physical word so kernel and user text both work. *)
           match translate_i t cur ~write:false ~fetch:true with
           | pa when pa lsr 2 < Array.length t.exec_counts ->
             t.exec_counts.(pa lsr 2) <- t.exec_counts.(pa lsr 2) + 1
           | _ -> ()
           | exception Trap _ -> ()
         end
       with Trap { code; badva; refill } ->
         (* The faulting instruction consumed a cycle. *)
         t.cycles <- t.cycles + 1;
         enter_exception t ~code ~badva ~refill ~cur ~in_delay)
    | exception Trap { code; badva; refill } ->
      t.cycles <- t.cycles + 1;
      enter_exception t ~code ~badva ~refill ~cur ~in_delay
  end

(* ------------------------------------------------------------------ *)
(* Basic-block execution cache (the Bcache tier)                       *)

(* The block executor must be state-identical to [step] — [step] stays in
   as the qcheck oracle — so everything observable is kept per
   instruction: device polling, interrupt sampling, icache fetch timing,
   the reference-tracer callbacks, cycle/instruction counters (several
   device and stall models consult [t.cycles] mid-block), and trap entry.
   What a block amortises is only the work with no observable effect:
   the per-fetch alignment check, translation, bounds check, decode-cache
   probe, and the interpreter's per-[exec] closure allocations. *)

let bb_lookup t ~va ~pa ~cached =
  let slot = (pa lsr 2) land (bcache_slots - 1) in
  let b = Array.unsafe_get t.bcache_tab slot in
  if
    b.bb_pa = pa && b.bb_va = va && b.bb_cached = cached
    && b.bb_gen = t.bgen.(pa lsr Addr.page_shift)
  then b
  else begin
    let b =
      Uop.build
        ~decode:(fun ~va ~pa -> decode_at t ~va ~pa)
        ~va ~pa ~cached
        ~gen:(t.bgen.(pa lsr Addr.page_shift))
    in
    Array.unsafe_set t.bcache_tab slot b;
    b
  end

(* Event horizon: the earliest cycle at which [poll_devices] could do
   anything (clock tick or disk completion).  While [t.cycles] stays
   below it the per-instruction poll is a provable no-op, and neither
   the interrupt lines nor any page generation can have moved either —
   inside a block only stores and [U_other] reach devices or memory, and
   those take the full recheck (see the [bb_fin_*] classes). *)
let bb_horizon t =
  let d = Disk.next_event t.disk in
  if t.next_clock < d then t.next_clock else d

(* Credit [reps] executions of the instructions at va [lo0, hi0), all
   in mode [t.bb_um], to the instruction counters.  The span is
   contiguous, so the idle-range attribution is the interval overlap
   instead of a per-instruction compare. *)
let[@inline] bb_credit t lo0 hi0 reps =
  let n = reps * ((hi0 - lo0) lsr 2) in
  let c = t.c in
  c.instructions <- c.instructions + n;
  if t.bb_um then c.user_instructions <- c.user_instructions + n
  else begin
    c.kernel_instructions <- c.kernel_instructions + n;
    let lo = if lo0 > t.idle_lo then lo0 else t.idle_lo in
    let hi = if hi0 < t.idle_hi then hi0 else t.idle_hi in
    if hi > lo then
      c.idle_instructions <- c.idle_instructions + (reps * ((hi - lo) lsr 2))
  end

(* Credit uops [t.bb_kf, k) of block [b] — all executed in mode
   [t.bb_um] — to the instruction counters. *)
let bb_flush t b k =
  let kf = t.bb_kf in
  if k > kf then bb_credit t (b.bb_va + (kf * 4)) (b.bb_va + (k * 4)) 1;
  t.bb_kf <- k

(* Per-word execution counting (cfg.count_exec), as [step] does it. *)
let bb_count t cur =
  match translate_i t cur ~write:false ~fetch:true with
  | cpa when cpa lsr 2 < Array.length t.exec_counts ->
    t.exec_counts.(cpa lsr 2) <- t.exec_counts.(cpa lsr 2) + 1
  | _ -> ()
  | exception Trap _ -> ()

(* Icache probe for a sequential fetch that left the memoized line. *)
let bb_fetch_probe t tg =
  let ic = t.icache in
  let idx = tg land (ic.Cache.nlines - 1) in
  if Array.unsafe_get ic.Cache.tags idx = tg then
    ic.Cache.hits <- ic.Cache.hits + 1
  else begin
    ic.Cache.misses <- ic.Cache.misses + 1;
    Array.unsafe_set ic.Cache.tags idx tg;
    t.cycles <- t.cycles + t.cfg.read_miss_penalty
  end

(* Fetch timing of one sequential slot on cached text: a tag compare
   against the resident line [ptag], else a probe.  Returns the new
   resident line tag. *)
let[@inline always] bb_ifetch t pa ptag =
  let tg = pa lsr t.icache.Cache.line_shift in
  if tg = ptag then t.icache.Cache.hits <- t.icache.Cache.hits + 1
  else bb_fetch_probe t tg;
  tg

(* Word load/store bodies shared by the scalar [U_lw]/[U_sw] arms and
   the stub fall-through: on a micro-cache hit to cached RAM, the raw
   access above; every other case (unaligned, micro-cache miss,
   uncached, device, out of range) takes the timed helpers. *)
let[@inline always] bb_load_word t rt va =
  let tcc = t.tc in
  if va land 3 = 0 && va lsr Addr.page_shift = tcc.r_vpn && tcc.r_cached
  then begin
    let pa = tcc.r_frame lor (va land Addr.page_mask) in
    if pa + 4 <= t.cfg.mem_bytes && not (is_device_pa pa) then begin
      let v = bb_dload t pa in
      (match t.ref_tracer with Some f -> f 1 va | None -> ());
      reg_set t rt v
    end
    else begin
      let v = load_word_timed t va in
      (match t.ref_tracer with Some f -> f 1 va | None -> ());
      reg_set t rt v
    end
  end
  else begin
    let v = load_word_timed t va in
    (match t.ref_tracer with Some f -> f 1 va | None -> ());
    reg_set t rt v
  end

let[@inline always] bb_store_word t v va =
  let tcc = t.tc in
  if va land 3 = 0 && va lsr Addr.page_shift = tcc.w_vpn && tcc.w_cached
  then begin
    let pa = tcc.w_frame lor (va land Addr.page_mask) in
    if pa + 4 <= t.cfg.mem_bytes && not (is_device_pa pa) then begin
      bb_dstore t pa v;
      (match t.watchpoint with
      | Some f ->
        t.bb_dev <- true;
        f va v
      | None -> ());
      (match t.ref_tracer with Some f -> f 2 va | None -> ())
    end
    else begin
      store_timed t va 4 v;
      (match t.ref_tracer with Some f -> f 2 va | None -> ())
    end
  end
  else begin
    store_timed t va 4 v;
    (match t.ref_tracer with Some f -> f 2 va | None -> ())
  end

(* Scoreboard wait for one FP source whose value is ready at cycle
   [ready]: [Fpu.wait_regs] on one register, without its list.  Waiting
   on two sources one after the other charges the same stall as waiting
   on their maximum.  Callers read [Fpu.ready] bounds-checked, as
   [wait_regs] does. *)
let[@inline] fp_wait t ready =
  if ready > t.cycles then begin
    let fpu = t.fpu in
    fpu.Fpu.arith_stalls <- fpu.Fpu.arith_stalls + (ready - t.cycles);
    t.cycles <- ready
  end

(* ------------------------------------------------------------------ *)
(* Stub uops.  A [U_stub] replays one whole tracing-runtime block, or a
   run of iterations of a kernel trace-buffer loop ({!Uop.stub}), in one
   dispatch, applying the interpreted effects in program order: per
   fetch the icache accounting and miss penalty, per load the d-cache
   probe and penalty, per store the write-buffer timing, memory write,
   decode-cache clear and generation bump, one cycle per instruction,
   then the final registers and pc/npc; the caller's [bb_end] credits
   the block's own instructions to the counters, and a loop stub
   credits the rest itself.  It applies nothing and
   returns -1 — the caller falls through to the scalar uops — unless
   every data access translates to cached RAM with no side effect
   ([ram_pa]), no store hits the block's own text page, and the run
   fits under the event horizon at worst-case cycles; a loop stub also
   needs every icache line of its loop resident.  The caller has
   already checked that the block fits the run budget and that no
   observer is set.  On success it returns the icache line tag of the
   last fetch.  Slot 0's fetch was charged by [bb_go] before the
   dispatch. *)

(* Does the block fit under the event horizon at worst case: [n] base
   cycles, a miss penalty for each of the [n - 1] fetches after slot 0
   and for each of [nl] loads, and a full write-buffer stall for each of
   [ns] stores? *)
let[@inline] stub_fits t n nl ns next_ev =
  let cfg = t.cfg in
  t.cycles + n
  + ((n - 1 + nl) * cfg.read_miss_penalty)
  + (ns * cfg.wb_depth * cfg.wb_drain)
  < next_ev

(* True when every icache line holding slots [1, n) of the block at [pa]
   is resident.  No access a stub block makes touches the icache, so
   those fetches then all hit and charge nothing: [stub_done] credits
   them at once and the per-slot fetches are skipped ([res]). *)
let rec stub_lines_resident tags mask tg last =
  tg > last
  || (Array.unsafe_get tags (tg land mask) = tg
     && stub_lines_resident tags mask (tg + 1) last)

(* Every icache line holding a byte of [lo, hi] is resident. *)
let lines_resident t lo hi =
  let ic = t.icache in
  let sh = ic.Cache.line_shift in
  stub_lines_resident ic.Cache.tags (ic.Cache.nlines - 1) (lo lsr sh) (hi lsr sh)

let stub_resident t pa n = lines_resident t (pa + 4) (pa + (4 * (n - 1)))

let[@inline always] stub_fetch t pa ptag res =
  if res then ptag else bb_ifetch t pa ptag

(* Fetch and one cycle for each of [n] ALU slots starting at [pa]. *)
let rec stub_alu t pa n ptag res =
  if res then begin
    t.cycles <- t.cycles + n;
    ptag
  end
  else if n = 0 then ptag
  else begin
    let ptag = bb_ifetch t pa ptag in
    t.cycles <- t.cycles + 1;
    stub_alu t (pa + 4) (n - 1) ptag res
  end

(* The line tag of the last of [n] slots at [pa], after crediting the
   batched hits of a resident block. *)
let stub_done t pa n ptag res =
  if res then begin
    let ic = t.icache in
    ic.Cache.hits <- ic.Cache.hits + n - 1;
    (pa + (4 * (n - 1))) lsr ic.Cache.line_shift
  end
  else ptag

(* [ram_pa] of [va], given [pa0] = [ram_pa] of [va0]: an address on the
   same virtual page translates through the same entry, so the stubs'
   bookkeeping-slot accesses probe their page once. *)
let[@inline always] ram_pa_near t pa0 va0 va ~write =
  if pa0 >= 0 && va lsr Addr.page_shift = va0 lsr Addr.page_shift && va land 3 = 0
  then begin
    let pa = pa0 + (va - va0) in
    if pa + 4 <= t.cfg.mem_bytes && not (is_device_pa pa) then pa else -1
  end
  else ram_pa t va ~write

let[@inline always] stub_off_page b pa =
  pa lsr Addr.page_shift <> b.bb_pa lsr Addr.page_shift

let stub_run t (b : Uop.block) (s : Uop.stub) budget next_ev ptag =
  let regs = t.regs in
  let pa = b.bb_pa in
  match s with
  | Bb_head { rt; book; off; cursor; limit; full } ->
    let spa = ram_pa t (u32 (Array.unsafe_get regs book + off)) ~write:true in
    let lpa = ram_pa t (u32 (Array.unsafe_get regs Reg.ra - 4)) ~write:false in
    if spa < 0 || lpa < 0 || not (stub_off_page b spa && stub_fits t 8 1 1 next_ev)
    then -1
    else begin
      let res = stub_resident t pa 8 in
      bb_dstore t spa (Array.unsafe_get regs rt);
      t.cycles <- t.cycles + 1;
      let ptag = stub_fetch t (pa + 4) ptag res in
      let w = bb_dload t lpa in
      t.cycles <- t.cycles + 1;
      let ptag = stub_alu t (pa + 8) 6 ptag res in
      let v = u32 (Array.unsafe_get regs cursor + ((w land 0xFFFF) lsl 2)) in
      let z = if Array.unsafe_get regs limit < v then 1 else 0 in
      Array.unsafe_set regs rt z;
      t.pc <- (if z <> 0 then full else b.bb_va + 32);
      t.npc <- t.pc + 4;
      stub_done t pa 8 ptag res
    end
  | Bb_resume { cursor; book; ra_off; rt; off } ->
    let c = u32 (Array.unsafe_get regs cursor + 4) in
    let bk = Array.unsafe_get regs book in
    let spa = ram_pa t (u32 (c - 4)) ~write:true in
    let va1 = u32 (bk + ra_off) in
    let l1 = ram_pa t va1 ~write:false in
    let l2 = ram_pa_near t l1 va1 (u32 (bk + off)) ~write:false in
    if spa < 0 || l1 < 0 || l2 < 0
       || not (stub_off_page b spa && stub_fits t 6 2 1 next_ev)
    then -1
    else begin
      let res = stub_resident t pa 6 in
      let ra = Array.unsafe_get regs Reg.ra in
      t.cycles <- t.cycles + 1;
      let ptag = stub_fetch t (pa + 4) ptag res in
      bb_dstore t spa ra;
      t.cycles <- t.cycles + 1;
      let ptag = stub_alu t (pa + 8) 1 ptag res in
      let ptag = stub_fetch t (pa + 12) ptag res in
      let v1 = bb_dload t l1 in
      t.cycles <- t.cycles + 1;
      let ptag = stub_alu t (pa + 16) 1 ptag res in
      let ptag = stub_fetch t (pa + 20) ptag res in
      let v2 = bb_dload t l2 in
      t.cycles <- t.cycles + 1;
      Array.unsafe_set regs cursor c;
      Array.unsafe_set regs Reg.at ra;
      Array.unsafe_set regs Reg.ra v1;
      Array.unsafe_set regs rt v2;
      t.pc <- ra;
      t.npc <- ra + 4;
      stub_done t pa 6 ptag res
    end
  | Mt_entry { r0; r1; r2; book; o0; o1; o2; hi; lo } ->
    let bk = Array.unsafe_get regs book in
    let va0 = u32 (bk + o0) in
    let s0 = ram_pa t va0 ~write:true in
    let s1 = ram_pa_near t s0 va0 (u32 (bk + o1)) ~write:true in
    let s2 = ram_pa_near t s0 va0 (u32 (bk + o2)) ~write:true in
    let l1 = ram_pa t (u32 (Array.unsafe_get regs Reg.ra - 4)) ~write:false in
    if s0 < 0 || s1 < 0 || s2 < 0 || l1 < 0
       (* the dispatch-table address comes from the word at [l1], read
          here before the stores that precede it: it must not be one of
          them *)
       || l1 = s0 || l1 = s1 || l1 = s2
       || not (stub_off_page b s0 && stub_off_page b s1 && stub_off_page b s2)
    then -1
    else begin
      let w = read_phys_u32 t l1 in
      let x = ((w lsr 21) land 31) lsl 2 in
      let l2 =
        ram_pa t (u32 (u32 (u32 (hi lsl 16) lor lo) + x)) ~write:false
      in
      if l2 < 0 || not (stub_fits t 14 2 3 next_ev) then -1
      else begin
        let res = stub_resident t pa 14 in
        bb_dstore t s0 (Array.unsafe_get regs r0);
        t.cycles <- t.cycles + 1;
        let ptag = stub_fetch t (pa + 4) ptag res in
        bb_dstore t s1 (Array.unsafe_get regs r1);
        t.cycles <- t.cycles + 1;
        let ptag = stub_fetch t (pa + 8) ptag res in
        bb_dstore t s2 (Array.unsafe_get regs r2);
        t.cycles <- t.cycles + 1;
        let ptag = stub_fetch t (pa + 12) ptag res in
        let w = bb_dload t l1 in
        t.cycles <- t.cycles + 1;
        let ptag = stub_alu t (pa + 16) 6 ptag res in
        let ptag = stub_fetch t (pa + 40) ptag res in
        let tgt = bb_dload t l2 in
        t.cycles <- t.cycles + 1;
        let ptag = stub_alu t (pa + 44) 3 ptag res in
        Array.unsafe_set regs r0 (u32 (s32 (u32 (w lsl 16)) asr 16));
        Array.unsafe_set regs r1 x;
        Array.unsafe_set regs r2 tgt;
        t.pc <- tgt;
        t.npc <- tgt + 4;
        stub_done t pa 14 ptag res
      end
    end
  | Mt_store { cursor; r0; r1; r2; book; o0; o1; o2; ra_off } ->
    let c = u32 (Array.unsafe_get regs cursor + 4) in
    let bk = Array.unsafe_get regs book in
    let spa = ram_pa t (u32 (c - 4)) ~write:true in
    let va0 = u32 (bk + o0) in
    let l0 = ram_pa t va0 ~write:false in
    let l2 = ram_pa_near t l0 va0 (u32 (bk + o2)) ~write:false in
    let lr = ram_pa_near t l0 va0 (u32 (bk + ra_off)) ~write:false in
    let l1 = ram_pa_near t l0 va0 (u32 (bk + o1)) ~write:false in
    if spa < 0 || l0 < 0 || l2 < 0 || lr < 0 || l1 < 0
       || not (stub_off_page b spa && stub_fits t 8 4 1 next_ev)
    then -1
    else begin
      let res = stub_resident t pa 8 in
      let ra = Array.unsafe_get regs Reg.ra in
      t.cycles <- t.cycles + 1;
      let ptag = stub_fetch t (pa + 4) ptag res in
      bb_dstore t spa (Array.unsafe_get regs r1);
      t.cycles <- t.cycles + 1;
      let ptag = stub_fetch t (pa + 8) ptag res in
      let v0 = bb_dload t l0 in
      t.cycles <- t.cycles + 1;
      let ptag = stub_fetch t (pa + 12) ptag res in
      let v2 = bb_dload t l2 in
      t.cycles <- t.cycles + 1;
      let ptag = stub_alu t (pa + 16) 1 ptag res in
      let ptag = stub_fetch t (pa + 20) ptag res in
      let vr = bb_dload t lr in
      t.cycles <- t.cycles + 1;
      let ptag = stub_alu t (pa + 24) 1 ptag res in
      let ptag = stub_fetch t (pa + 28) ptag res in
      let v1 = bb_dload t l1 in
      t.cycles <- t.cycles + 1;
      Array.unsafe_set regs cursor c;
      Array.unsafe_set regs r0 v0;
      Array.unsafe_set regs r2 v2;
      Array.unsafe_set regs Reg.at ra;
      Array.unsafe_set regs Reg.ra vr;
      Array.unsafe_set regs r1 v1;
      t.pc <- ra;
      t.npc <- ra + 4;
      stub_done t pa 8 ptag res
    end
  | Kd_copy { src; dst; tmp; stop } ->
    (* The body at [pa] copies one word; each further word runs the head
       at [pa - 8] first.  A run stops at [src = stop], at a page end of
       either side, at the budget, or before a word that might not end
       under the horizon; pc is left at the head. *)
    let s0 = Array.unsafe_get regs src and d0 = Array.unsafe_get regs dst in
    let spa = ram_pa t s0 ~write:false in
    let dpa = ram_pa t d0 ~write:true in
    let cfg = t.cfg in
    let worst = cfg.read_miss_penalty + (cfg.wb_depth * cfg.wb_drain) in
    if spa < 0 || dpa < 0
       || not (stub_off_page b dpa && t.cycles + 6 + worst < next_ev
               && lines_resident t (pa - 8) (pa + 20))
    then -1
    else begin
      let room va = ((Addr.page_mask - (va land Addr.page_mask)) lsr 2) + 1 in
      let kmax = Int.min (Int.min (room s0) (room d0)) (1 + ((budget - 6) / 8)) in
      let e = Array.unsafe_get regs stop in
      t.cycles <- t.cycles + 1;
      let v = ref (bb_dload t spa) in
      t.cycles <- t.cycles + 1;
      bb_dstore t dpa !v;
      t.cycles <- t.cycles + 4;
      let k = ref 1 in
      while !k < kmax && u32 (s0 + (4 * !k)) <> e && t.cycles + 8 + worst < next_ev do
        t.cycles <- t.cycles + 3;
        v := bb_dload t (spa + (4 * !k));
        t.cycles <- t.cycles + 1;
        bb_dstore t (dpa + (4 * !k)) !v;
        t.cycles <- t.cycles + 4;
        incr k
      done;
      let k = !k in
      Array.unsafe_set regs src (u32 (s0 + (4 * k)));
      Array.unsafe_set regs dst (u32 (d0 + (4 * k)));
      Array.unsafe_set regs tmp !v;
      let h = b.bb_va - 8 in
      t.pc <- h;
      t.npc <- h + 4;
      let ic = t.icache in
      ic.Cache.hits <- ic.Cache.hits + 5 + (8 * (k - 1));
      bb_credit t h (h + 32) (k - 1);
      (pa + 20) lsr ic.Cache.line_shift
    end
  | Spin { r } ->
    (* [k] iterations of three single-cycle instructions: as many as are
       left before the countdown exits (v for a positive v, else one,
       except that -2^31 wraps to 2^31 - 1), fit the budget, and end
       before the horizon. *)
    let v = Array.unsafe_get regs r in
    let left = 1 + (let x = u32 (v - 1) in if x < 0x80000000 then x else 0) in
    let k = Int.min left (Int.min (budget / 3) ((next_ev - t.cycles - 1) / 3)) in
    if k < 1 || not (lines_resident t pa (pa + 8)) then -1
    else begin
      t.cycles <- t.cycles + (3 * k);
      let v = u32 (v - k) in
      Array.unsafe_set regs r v;
      t.pc <- (if s32 v > 0 then b.bb_va else b.bb_va + 12);
      t.npc <- t.pc + 4;
      let ic = t.icache in
      ic.Cache.hits <- ic.Cache.hits + (3 * k) - 1;
      bb_credit t b.bb_va (b.bb_va + 12) (k - 1);
      (pa + 8) lsr ic.Cache.line_shift
    end

(* The replay loop, as a self-tail-recursive toplevel function: it
   compiles to a loop with the state in registers and allocates nothing
   (a closure inside [exec_block] would be rebuilt per block entry).
   Traps are caught once per [exec_block] call: [t.bb_blk]/[t.bb_k]
   track the executing uop (written only by uops that can trap) so the
   handler can reconstruct the faulting pc and delay-slot flag.  [ptag]
   is the icache line tag of the previous fetch (or -1): sequential
   fetches from a line just probed are hits by construction, so a tag
   compare replaces the probe.  [budget]/[lim]: instructions the caller
   still allows / how many fall in this block; a block completing on a
   sequential pc with budget left chains straight into its successor. *)
let rec bb_go t b lim budget k pa cur ce next_ev ptag =
    (* per-instruction fetch timing, as [fetch_timed] charges it *)
    let ptag =
      if b.bb_cached then begin
        let ic = t.icache in
        let tg = pa lsr ic.Cache.line_shift in
        if tg = ptag then ic.Cache.hits <- ic.Cache.hits + 1
        else begin
          let idx = tg land (ic.Cache.nlines - 1) in
          if Array.unsafe_get ic.Cache.tags idx = tg then
            ic.Cache.hits <- ic.Cache.hits + 1
          else begin
            ic.Cache.misses <- ic.Cache.misses + 1;
            Array.unsafe_set ic.Cache.tags idx tg;
            t.cycles <- t.cycles + t.cfg.read_miss_penalty
          end
        end;
        tg
      end
      else begin
        t.c.uncached_ifetches <- t.c.uncached_ifetches + 1;
        t.cycles <- t.cycles + t.cfg.uncached_penalty;
        -1
      end
    in
    (match t.ref_tracer with Some f -> f 0 cur | None -> ());
    (* [t.next_is_delay] is false here: branch uops set it and the
       between-instruction paths below clear it when they consume it, so
       no per-instruction clear is needed. *)
    t.pc <- t.npc;
    t.npc <- t.npc + 4;
    let u = Array.unsafe_get b.bb_uops k in
    (* Execute the pre-decoded instruction, then tail into the epilogue
       of its between-check class ([bb_fin] / [bb_fin_store] /
       [bb_fin_other]).  Bodies mirror [exec] exactly; register indices
       come from the 5-bit fields of [Encode.decode], hence the unsafe
       reads. *)
    match u with
       | U_alu (op, rd, rs, rt) ->
         let a = Array.unsafe_get t.regs rs
         and bv = Array.unsafe_get t.regs rt in
         let v =
           match (op : Insn.alu) with
           | ADD | ADDU -> a + bv
           | SUB | SUBU -> a - bv
           | AND -> a land bv
           | OR -> a lor bv
           | XOR -> a lxor bv
           | NOR -> lnot (a lor bv)
           | SLT -> if s32 a < s32 bv then 1 else 0
           | SLTU -> if a < bv then 1 else 0
           | SLLV -> a lsl (bv land 31)
           | SRLV -> a lsr (bv land 31)
           | SRAV -> s32 a asr (bv land 31)
           | MUL -> s32 a * s32 bv
           | MULH ->
             Int64.to_int
               (Int64.shift_right
                  (Int64.mul (Int64.of_int (s32 a)) (Int64.of_int (s32 bv)))
                  32)
           | DIV -> if s32 bv = 0 then 0 else s32 a / s32 bv
           | REM -> if s32 bv = 0 then 0 else Stdlib.Int.rem (s32 a) (s32 bv)
         in
         reg_set t rd v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_alui (op, rt, rs, imm) ->
         let a = Array.unsafe_get t.regs rs in
         let v =
           match (op : Insn.alui) with
           | ADDI | ADDIU -> a + imm
           | SLTI -> if s32 a < imm then 1 else 0
           | SLTIU -> if a < u32 imm then 1 else 0
           | ANDI -> a land imm
           | ORI -> a lor imm
           | XORI -> a lxor imm
         in
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_shift (op, rd, rt, sa) ->
         let v = Array.unsafe_get t.regs rt in
         reg_set t rd
           (match op with
           | SLL -> v lsl sa
           | SRL -> v lsr sa
           | SRA -> s32 v asr sa);
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lui (rt, imm) ->
         reg_set t rt (imm lsl 16);
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lw (rt, base, off) ->
         t.bb_k <- k;
         bb_load_word t rt (u32 (Array.unsafe_get t.regs base + off));
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lh (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 2 in
         let v = if v >= 0x8000 then v - 0x10000 else v in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lhu (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 2 in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lb (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 1 in
         let v = if v >= 0x80 then v - 0x100 else v in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_lbu (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_timed t va 1 in
         ref_trace t 1 va;
         reg_set t rt v;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_sw (rt, base, off) ->
         t.bb_k <- k;
         bb_store_word t
           (Array.unsafe_get t.regs rt)
           (u32 (Array.unsafe_get t.regs base + off));
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_sh (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         store_timed t va 2 (Array.unsafe_get t.regs rt);
         ref_trace t 2 va;
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_sb (rt, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         store_timed t va 1 (Array.unsafe_get t.regs rt);
         ref_trace t 2 va;
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_beq (rs, rt, a) ->
         t.next_is_delay <- true;
         if Array.unsafe_get t.regs rs = Array.unsafe_get t.regs rt then
           t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bne (rs, rt, a) ->
         t.next_is_delay <- true;
         if Array.unsafe_get t.regs rs <> Array.unsafe_get t.regs rt then
           t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_blez (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) <= 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bgtz (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) > 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bltz (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) < 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bgez (rs, a) ->
         t.next_is_delay <- true;
         if s32 (Array.unsafe_get t.regs rs) >= 0 then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bc1t a ->
         t.next_is_delay <- true;
         if t.fcc then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_bc1f a ->
         t.next_is_delay <- true;
         if not t.fcc then t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_j a ->
         t.next_is_delay <- true;
         t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jal a ->
         reg_set t Reg.ra (cur + 8);
         t.next_is_delay <- true;
         t.npc <- a;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jr rs ->
         t.next_is_delay <- true;
         t.npc <- Array.unsafe_get t.regs rs;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_jalr (rd, rs) ->
         let dest = Array.unsafe_get t.regs rs in
         reg_set t rd (cur + 8);
         t.next_is_delay <- true;
         t.npc <- dest;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_fload (ft, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         let v = load_double_timed t va in
         ref_trace t 1 va;
         t.fregs.(ft) <- v;
         Fpu.set_ready t.fpu ~now:t.cycles ft;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_fstore (ft, base, off) ->
         t.bb_k <- k;
         let va = u32 (Array.unsafe_get t.regs base + off) in
         fp_wait t t.fpu.Fpu.ready.(ft);
         store_double_timed t va t.fregs.(ft);
         ref_trace t 2 va;
         (* bumps the page generation: it may have overwritten this
            block *)
         bb_fin_store t b lim budget k pa cur ce next_ev ptag
       | U_fop (op, fd, fs, ft) ->
         let fpu = t.fpu in
         (match op with
         | FADD | FSUB | FMUL | FDIV ->
           let rs = fpu.Fpu.ready.(fs) and rt = fpu.Fpu.ready.(ft) in
           fp_wait t rs;
           fp_wait t rt
         | FABS | FNEG | FMOV | CVTDW | TRUNCWD -> fp_wait t fpu.Fpu.ready.(fs));
         t.cycles <- t.cycles + Fpu.issue fpu ~now:t.cycles ~op ~dst:fd;
         let a = t.fregs.(fs) and bv = t.fregs.(ft) in
         t.fregs.(fd) <-
           (match (op : Insn.fop) with
           | FADD -> a +. bv
           | FSUB -> a -. bv
           | FMUL -> a *. bv
           | FDIV -> a /. bv
           | FABS -> abs_float a
           | FNEG -> -.a
           | FMOV -> a
           | CVTDW -> a
           | TRUNCWD -> Float.of_int (int_of_float a));
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_fcmp (c, fs, ft) ->
         let fpu = t.fpu in
         let rs = fpu.Fpu.ready.(fs) and rt = fpu.Fpu.ready.(ft) in
         fp_wait t rs;
         fp_wait t rt;
         t.cycles <- t.cycles + Fpu.issue_compare fpu ~now:t.cycles;
         let a = t.fregs.(fs) and bv = t.fregs.(ft) in
         t.fcc <-
           (match (c : Insn.fcond) with
           | FEQ -> a = bv
           | FLT -> a < bv
           | FLE -> a <= bv);
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_mtc1 (rt, fs) ->
         t.fregs.(fs) <- float_of_int (s32 (Array.unsafe_get t.regs rt));
         Fpu.set_ready t.fpu ~now:t.cycles fs;
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_mfc1 (rt, fs) ->
         fp_wait t t.fpu.Fpu.ready.(fs);
         reg_set t rt (int_of_float t.fregs.(fs));
         bb_fin t b lim budget k pa cur ce next_ev ptag
       | U_stub st ->
         let n0 = t.c.instructions in
         let tg =
           if
             lim = Array.length b.bb_uops && (not ce)
             && (match (t.watchpoint, t.ref_tracer) with
                | None, None -> true
                | _ -> false)
           then stub_run t b st budget next_ev ptag
           else -1
         in
         if tg >= 0 then begin
           t.stub_runs <- t.stub_runs + 1;
           let kr = t.stub_kind_runs and i = Uop.stub_kind st in
           Array.unsafe_set kr i (Array.unsafe_get kr i + 1);
           (* a loop stub has credited its iterations beyond this
              block's: the chaining budget loses them too *)
           bb_end t b lim (budget - (t.c.instructions - n0)) lim
             (t.cycles >= next_ev) next_ev tg
         end
         else begin
           (* fall through: run slot 0's own instruction, as its scalar
              uop would *)
           t.stub_falls <- t.stub_falls + 1;
           match st with
           | Bb_head { rt; book; off; _ } | Mt_entry { r0 = rt; book; o0 = off; _ } ->
             t.bb_k <- k;
             bb_store_word t
               (Array.unsafe_get t.regs rt)
               (u32 (Array.unsafe_get t.regs book + off));
             bb_fin_store t b lim budget k pa cur ce next_ev ptag
           | Bb_resume { cursor; _ } | Mt_store { cursor; _ } ->
             reg_set t cursor (Array.unsafe_get t.regs cursor + 4);
             bb_fin t b lim budget k pa cur ce next_ev ptag
           | Kd_copy _ -> bb_fin t b lim budget k pa cur ce next_ev ptag
           | Spin { r } ->
             reg_set t r (Array.unsafe_get t.regs r - 1);
             bb_fin t b lim budget k pa cur ce next_ev ptag
         end
       | U_other insn ->
         t.bb_k <- k;
         (* [exec] (an hcall handler in particular) may observe the
            counters: close the pending span first *)
         bb_flush t b k;
         exec t cur insn;
         (* the mode may have flipped; [exec] flushed up to this uop, so
            the new span (starting with this uop) carries the new mode *)
         t.bb_um <- t.status land 0x2 <> 0;
         bb_fin_other t b lim budget k pa cur ce

(* Per-uop epilogue, split by between-check class: charge the base
   cycle, count, then exactly the between-instruction checks of the
   [run]+[step] loop for that class (halt, budget, device poll,
   interrupt sample, text-page staleness).

   Default class (ALU/shift/load/branch, and every FP uop but [s.d]):
   only the event horizon can have expired; [next_is_delay] set by a
   branch is consumed on the next iteration (the whole block was
   decoded, so the delay slot is there). *)
and bb_fin t b lim budget k pa cur ce next_ev ptag =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  let k = k + 1 in
  if k < lim then begin
    (* no halted check: only [U_other] and device stores can halt, and
       their classes ([bb_fin_other]/[bb_fin_store]) test it *)
    if t.cycles >= next_ev then begin
      bb_flush t b k;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if t.next_is_delay then begin
          (* The poll may have raised an irq line whose delivery is
             deferred past the delay slot (exactly as in [step]); a zero
             horizon forces the post-delay-slot boundary through the
             slow path, where the deferred sample runs. *)
          t.next_is_delay <- false;
          bb_go t b lim budget k (pa + 4) (cur + 4) ce 0 ptag
        end
        else if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) ptag
      end
    end
    else begin
      if t.next_is_delay then t.next_is_delay <- false;
      bb_go t b lim budget k (pa + 4) (cur + 4) ce next_ev ptag
    end
  end
  else bb_end t b lim budget k (t.cycles >= next_ev) next_ev ptag

(* Store class.  A store to RAM cannot reach a device: the interrupt
   lines and the event horizon are unchanged, so only the block's own
   text page needs re-validating (the store may have hit it).  A device
   store or a watchpoint callback sets [bb_dev] and takes the full
   poll + interrupt recheck.  Stores never set [next_is_delay]. *)
and bb_fin_store t b lim budget k pa cur ce next_ev ptag =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  let k = k + 1 in
  if k < lim then begin
    if t.halted then bb_flush t b k
    else if t.bb_dev || t.cycles >= next_ev then begin
      t.bb_dev <- false;
      bb_flush t b k;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) ptag
      end
    end
    else if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
    then bb_go t b lim budget k (pa + 4) (cur + 4) ce next_ev ptag
    else bb_flush t b k
  end
  else bb_end t b lim budget k (t.bb_dev || t.cycles >= next_ev) next_ev ptag

(* [U_other] may have done anything (CP0, hcall, devices, the icache):
   full recheck, and forget the resident fetch line (ptag := -1). *)
and bb_fin_other t b lim budget k pa cur ce =
  t.cycles <- t.cycles + 1;
  if ce then bb_count t cur;
  let k = k + 1 in
  if k < lim then begin
    if t.halted then bb_flush t b k
    else begin
      bb_flush t b k;
      t.bb_dev <- false;
      poll_devices t;
      if Array.unsafe_get t.bgen (b.bb_pa lsr Addr.page_shift) = b.bb_gen
      then begin
        if t.next_is_delay then begin
          (* deferred-interrupt case: see [bb_fin] *)
          t.next_is_delay <- false;
          bb_go t b lim budget k (pa + 4) (cur + 4) ce 0 (-1)
        end
        else if interrupt_pending t then
          enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
            ~cur:t.pc ~in_delay:false
        else bb_go t b lim budget k (pa + 4) (cur + 4) ce (bb_horizon t) (-1)
      end
    end
  end
  else bb_end t b lim budget k true 0 (-1)

(* Block complete on a sequential pc with budget left: chain into the
   successor block directly.  [budget > lim] implies the block ran to its
   real end ([lim] = block length), so exactly [lim] instructions were
   executed here.  [slow] carries the class-specific recheck condition,
   then the fetch checks of [bb_step] run for the new pc. *)
and bb_end t b lim budget k slow next_ev ptag =
  if
    budget > lim && (not t.halted) && (not t.next_is_delay)
    && t.npc = t.pc + 4
  then begin
    bb_flush t b k;
    if slow then begin
      t.bb_dev <- false;
      poll_devices t;
      if interrupt_pending t then
        enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
          ~cur:t.pc ~in_delay:false
      else bb_chain t b (budget - lim) (bb_horizon t) ptag
    end
    else bb_chain t b (budget - lim) next_ev ptag
  end
  else bb_flush t b k

(* Enter the block at [t.pc]: the fetch checks of [bb_step], then replay.
   Tail-called from [bb_go] when chaining, so the fetch-trap handler here
   must not wrap the replay itself.

   [bprev] is the block just replayed; its [bb_next] memoizes the block
   last entered from here.  The memo is valid only if the fetch
   micro-cache would translate [t.pc] to the memoized block's entry (the
   exact hit condition of [translate_i], which has no counter side
   effects) and the block's text page generation still matches —
   otherwise the full fetch-check + table-probe path runs and re-memoizes
   whatever it finds.  [bb_va = t.pc] implies alignment (blocks are only
   built at aligned pcs), and the bounds check held at build time for the
   same physical address. *)
and bb_chain t bprev budget next_ev ptag =
  let va = t.pc in
  let nb = bprev.bb_next in
  let tcc = t.tc in
  if
    nb.bb_va = va
    && tcc.f_vpn = va lsr Addr.page_shift
    && tcc.f_frame lor (va land Addr.page_mask) = nb.bb_pa
    && tcc.f_cached = nb.bb_cached
    && Array.unsafe_get t.bgen (nb.bb_pa lsr Addr.page_shift) = nb.bb_gen
  then begin
    t.tr_cached <- tcc.f_cached;
    (* [t.bb_um] is still current: nothing between the previous block's
       flush and this entry executes or touches CP0 status. *)
    t.bb_blk <- nb;
    t.bb_kf <- 0;
    let n = Array.length nb.bb_uops in
    let lim = if budget < n then budget else n in
    bb_go t nb lim budget 0 nb.bb_pa nb.bb_va t.cfg.count_exec next_ev ptag
  end
  else
    match
      (if va land 3 <> 0 then trap ~badva:va Exc.adel;
       let pa = translate_i t va ~write:false ~fetch:true in
       if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
       pa)
    with
    | exception Trap { code; badva; refill } ->
      t.cycles <- t.cycles + 1;
      enter_exception t ~code ~badva ~refill ~cur:va ~in_delay:false
    | pa ->
      let b = bb_lookup t ~va ~pa ~cached:t.tr_cached in
      bprev.bb_next <- b;
      t.bb_blk <- b;
      t.bb_kf <- 0;
      t.bb_um <- t.status land 0x2 <> 0;
      let n = Array.length b.bb_uops in
      let lim = if budget < n then budget else n in
      bb_go t b lim budget 0 pa va t.cfg.count_exec next_ev ptag

let exec_block t b ~budget =
  let n = Array.length b.bb_uops in
  let lim = if budget < n then budget else n in
  t.bb_blk <- b;
  t.bb_kf <- 0;
  t.bb_um <- t.status land 0x2 <> 0;
  match
    bb_go t b lim budget 0 b.bb_pa t.pc t.cfg.count_exec (bb_horizon t) (-1)
  with
  | () -> ()
  | exception Trap { code; badva; refill } ->
    t.cycles <- t.cycles + 1;
    let blk = t.bb_blk in
    let k = t.bb_k in
    (* uops [bb_kf, k) completed before the fault; uop k itself is not
       counted, exactly as in step mode *)
    bb_flush t blk k;
    let cur = blk.bb_va + (k * 4) in
    let in_delay =
      k > 0
      && (match Array.unsafe_get blk.bb_uops (k - 1) with
         | U_beq _ | U_bne _ | U_blez _ | U_bgtz _ | U_bltz _ | U_bgez _
         | U_bc1t _ | U_bc1f _ | U_j _ | U_jal _ | U_jr _ | U_jalr _ ->
           true
         | U_other i -> Insn.is_control i
         | _ -> false)
    in
    enter_exception t ~code ~badva ~refill ~cur ~in_delay

(* Block-mode counterpart of [step]: at a block entry the fetch checks run
   once (alignment, translation, bounds), then the cached block replays.
   Replays chain — a block ending in a taken jump whose target starts a
   fresh sequential pc re-enters directly, performing exactly the checks
   the [run]+[step] loop would (poll, interrupt sample, fresh fetch
   translation) without bouncing through [run].  Only called with
   [next_is_delay] false and [budget >= 1]. *)
let bb_step t ~budget =
  if t.npc <> t.pc + 4 then
    (* The harness set pc/npc out of line; the one-instruction path
       handles any pc/npc pair, so let the oracle run it. *)
    step t
  else begin
    let c = t.c in
    let start = c.instructions in
    let rec loop () =
      if t.cycles >= t.next_clock || Disk.next_event t.disk <= t.cycles then
        poll_devices t;
      if interrupt_pending t then
        enter_exception t ~code:Exc.interrupt ~badva:(-1) ~refill:false
          ~cur:t.pc ~in_delay:false
      else begin
        let va = t.pc in
        match
          (if va land 3 <> 0 then trap ~badva:va Exc.adel;
           let pa = translate_i t va ~write:false ~fetch:true in
           if not (phys_ok t pa 4) then trap ~badva:va Exc.adel;
           pa)
        with
        | pa ->
          let cached = t.tr_cached in
          exec_block t
            (bb_lookup t ~va ~pa ~cached)
            ~budget:(budget - (c.instructions - start));
          if
            (not t.halted)
            && (not t.next_is_delay)
            && c.instructions - start < budget
            && t.npc = t.pc + 4
          then loop ()
        | exception Trap { code; badva; refill } ->
          t.cycles <- t.cycles + 1;
          enter_exception t ~code ~badva ~refill ~cur:va ~in_delay:false
      end
    in
    loop ()
  end

type stop_reason = Halt | Limit

let run t ~max_insns =
  let start = t.c.instructions in
  if t.cfg.tier = Uop.Bcache then
    let rec go () =
      if t.halted then Halt
      else begin
        let executed = t.c.instructions - start in
        if executed >= max_insns then Limit
        else begin
          (* a pending delay slot (branch target unknown until it runs, or
             a branch straddling a page end) takes the one-instruction
             path *)
          if t.next_is_delay then step t
          else bb_step t ~budget:(max_insns - executed);
          go ()
        end
      end
    in
    go ()
  else
    let rec go () =
      if t.halted then Halt
      else if t.c.instructions - start >= max_insns then Limit
      else begin
        step t;
        go ()
      end
    in
    go ()

let halt t = t.halted <- true

(* ------------------------------------------------------------------ *)
(* Loading and inspection                                              *)

(* Copy an executable into physical memory at [pa_of] applied to its
   segment bases (identity for kernel images loaded via kseg0). *)
let load_exe_phys t (exe : Exe.t) ~text_pa ~data_pa =
  Array.iteri
    (fun idx w -> write_phys_u32 t (text_pa + (idx * 4)) w)
    exe.Exe.text;
  write_phys_bytes t data_pa (Bytes.to_string exe.Exe.data)

let console_contents t = Buffer.contents t.console

let arith_stalls t = t.fpu.Fpu.arith_stalls
let wb_stalls t = t.wb.Write_buffer.stall_cycles
let icache_misses t = t.icache.Cache.misses
let dcache_misses t = t.dcache.Cache.misses
