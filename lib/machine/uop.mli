(** The execution-engine uop IR: decode-to-uop lowering, basic-block
    formation, superblock peephole fusion, tier selection, and the
    per-page store-generation invalidation contract.

    This module owns everything about *what* a compiled block contains;
    {!Machine} owns the architectural state and *how* blocks replay.
    [Machine.step] remains the state-identical oracle for every tier. *)

open Systrace_isa

(** {2 Execution tiers}

    The interpreter tiers, each strictly a host-side accelerator over the
    one below it — simulated state, counters and console are bit-identical
    across all five (qcheck- and ablation-enforced):

    - [Step]: step-at-a-time oracle, full TLB walk on every access.
    - [Tcache]: + last-translation micro-cache per access class, with a
      hashed second level.
    - [Bcache]: + decode-once basic-block cache with successor memo.
    - [Super]: + superblock peephole fusion and stub uops over cached
      blocks.
    - [Trace]: + trace superblocks stitched over the successor memo with
      cross-seam register caching. *)
type tier = Step | Tcache | Bcache | Super | Trace

val all_tiers : tier list
val tier_name : tier -> string
val tier_of_string : string -> tier option

val tcache_enabled : tier -> bool
val bcache_enabled : tier -> bool

val fusion_enabled : tier -> bool
(** Fused uops are only built at [Super] and above; the block replay
    engine is shared, so the lower tiers never see a fused constructor. *)

val trace_enabled : tier -> bool
(** Trace superblocks are only formed and dispatched at [Trace]. *)

val tier_of_cli :
  tier:tier option -> no_bcache:bool -> (tier, string) result
(** Resolve the CLI tier selection.  [--interp-tier] wins when given
    alone; the deprecated [--no-bcache] alias alone maps to [Tcache];
    giving both is an error (the alias used to lose silently); neither
    means the default ([Super]). *)

(** {2 Stub shapes}

    The four user-variant blocks of epoxie's tracing runtime
    ([lib/epoxie/runtime.ml]) that carry the per-reference cost of a
    traced run, as decoded on cached text (registers: [rt]/[r0..r2] the
    scratch registers, [book] the bookkeeping base, [cursor]/[limit] the
    trace cursor and its high-water mark):

    - [Bb_head]: [sw rt, off(book); lw rt, -4(ra); andi rt, rt, 0xffff;
      sll rt, rt, 2; addu rt, cursor, rt; sltu rt, limit, rt;
      bne rt, $0, full; nop] — bbtrace's room check;
    - [Bb_resume]: [addiu cursor, cursor, 4; sw ra, -4(cursor);
      move at, ra; lw ra, ra_off(book); jr at; lw rt, off(book)] —
      bbtrace's record store and return;
    - [Mt_entry]: [sw r0, o0(book); sw r1, o1(book); sw r2, o2(book);
      lw r0, -4(ra); srl r1, r0, 21; andi r1, r1, 31; sll r1, r1, 2;
      lui r2, hi; ori r2, r2, lo; addu r2, r2, r1; lw r2, 0(r2);
      sll r0, r0, 16; jr r2; sra r0, r0, 16] — memtrace's decode of the
      delay-slot word and jump-table dispatch;
    - [Mt_store]: [addiu cursor, cursor, 4; sw r1, -4(cursor);
      lw r0, o0(book); lw r2, o2(book); move at, ra; lw ra, ra_off(book);
      jr at; lw r1, o1(book)] — memtrace's record store and return.

    The registers a shape names are pairwise distinct and none is $zero,
    $at or $ra.  The kernel variant's mfc0/mtc0 prologue never matches. *)
type stub =
  | Bb_head of { rt : int; book : int; off : int; cursor : int; limit : int; full : int }
  | Bb_resume of { cursor : int; book : int; ra_off : int; rt : int; off : int }
  | Mt_entry of {
      r0 : int; r1 : int; r2 : int; book : int;
      o0 : int; o1 : int; o2 : int; hi : int; lo : int;
    }
  | Mt_store of {
      cursor : int; r0 : int; r1 : int; r2 : int; book : int;
      o0 : int; o1 : int; o2 : int; ra_off : int;
    }

(** {2 The uop IR}

    One pre-decoded instruction (or fused run) of a cached basic block:
    operands resolved to plain ints at build time (immediates applied,
    branch targets absolute), dispatch pre-selected, so replay does no
    decode-cache probing and allocates nothing.  Anything without a
    specialised executor falls back to [U_other] and the full interpreter
    dispatch.

    The [U_li]..[U_j_nop] constructors are superblock fusions: one
    dispatch executes 2–3 instructions.  A fused uop sits in the slot of
    its first instruction; the covered slots keep their original scalar
    uops, so the executor can bail out mid-run (event horizon about to
    expire, block/budget boundary) after executing only a prefix and the
    generic loop resumes on the unfused tail.  Fusion rules
    (enforced by {!fuse}, qcheck-checked):

    - only cached blocks are fused, so fused bodies skip the per-uop
      cacheability test (they are specialised on [bb_cached = true]);
    - no covered instruction may be a store, except as the *final*
      element ([U_lmw]), so a fused run never crosses a
      store-generation bump — the post-store revalidation runs
      immediately after the dispatch;
    - no covered instruction may be a barrier or [U_other];
    - a branch may only be the final element ([U_slt_b]) or carry its
      own empty delay slot ([U_j_nop]);
    - at run time every inter-instruction seam inside the fused body
      re-checks the event horizon and falls back to the scalar tail if
      the next poll could be observable. *)
type t =
  | U_alu of Insn.alu * int * int * int    (* rd, rs, rt *)
  | U_alui of Insn.alui * int * int * int  (* rt, rs, imm *)
  | U_shift of Insn.shift * int * int * int
  | U_lui of int * int
  | U_lw of int * int * int                (* rt, base, off *)
  | U_lh of int * int * int
  | U_lhu of int * int * int
  | U_lb of int * int * int
  | U_lbu of int * int * int
  | U_sw of int * int * int
  | U_sh of int * int * int
  | U_sb of int * int * int
  | U_beq of int * int * int               (* rs, rt, absolute target *)
  | U_bne of int * int * int
  | U_blez of int * int
  | U_bgtz of int * int
  | U_bltz of int * int
  | U_bgez of int * int
  | U_bc1t of int
  | U_bc1f of int
  | U_j of int
  | U_jal of int
  | U_jr of int
  | U_jalr of int * int
  | U_li of int * int
      (** [lui rt; ori rt, rt, lo] — rt, full 32-bit immediate *)
  | U_addiu2 of int * int * int * int * int * int
      (** two consecutive addiu: rt1, rs1, imm1, rt2, rs2, imm2 *)
  | U_slt_b of bool * int * int * int * bool * int
      (** compare+branch: [slt(u) rd, rs, rt; bne/beq rd, $0, tgt] —
          unsigned, rd, rs, rt, branch-if-nonzero, target.  The compare
          result stays in an OCaml local for the branch decision. *)
  | U_lw_addiu of int * int * int * int * int * int
      (** load+use: [lw rt, off(base); addiu rt2, rs2, imm2] *)
  | U_lmw of int * int * int * int * int * int * int * int * int
      (** load-modify-store: [lw rt, off(base); addiu rt2, rs2, imm2;
          sw rt3, off3(base3)] — the store is the final element *)
  | U_j_nop of int
      (** [j tgt] with an empty (nop) delay slot *)
  | U_stub of stub
      (** A whole tracing-runtime block as one dispatch, in slot 0 of a
          block whose body matches the stub shape.  When the stub falls
          through, slot 0's own instruction runs (a store or the cursor
          bump, fixed by the shape); the covered slots keep their uops,
          as for fused uops. *)
  | U_other of Insn.t                      (* full interpreter dispatch *)

val of_insn : Insn.t -> t
(** Scalar lowering: never produces a fused constructor. *)

val barrier : Insn.t -> bool
(** Instructions that can change fetch semantics for their successors
    (mode, ASID, TLB contents, arbitrary host effects) end a block, so
    the next instruction re-enters through a fresh translation. *)

val fuse : t array -> t array
(** Peephole superblock fusion over a lowered block body, under the
    rules above.  Same length as the input: fused constructors replace
    the slot of their first instruction and every covered slot keeps its
    original scalar uop. *)

val width : t -> int
(** Instructions covered by one dispatch: the block length for
    [U_stub], 3 for [U_lmw], 2 for the other fused constructors, 1 for
    scalar uops. *)

val is_fused : t -> bool

(** {2 Blocks} *)

(** One straight-line run of instructions: from a block-entry pc up to
    the first control transfer (plus its delay slot) or block barrier,
    never crossing a page boundary — so one fetch translation covers the
    whole block.  Blocks are immutable; staleness is detected, never
    patched. *)
type block = {
  bb_pa : int;       (* physical address of the first instruction *)
  bb_va : int;       (* pc it was decoded at: branch targets (and the
                        shared per-word decode cache) depend on the va,
                        so an aliased mapping must not reuse the block *)
  bb_cached : bool;  (* cacheability of the fetch mapping at build time *)
  bb_gen : int;      (* page generation at build: stale => rebuild *)
  bb_uops : t array;
  mutable bb_next : block;
      (* memoized chain successor (last block entered from this block's
         end): re-validated on every use against the fetch micro-cache
         and the successor's own page generation, so it is only ever a
         shortcut past the block-table probe, never a source of truth *)
  mutable bb_hot : int;
      (* chain-entry heat at the [Trace] tier; reaching
         [trace_hot_threshold] triggers one trace-formation attempt *)
  mutable bb_trace : trace option;
      (* trace superblock headed by this block, if one formed *)
}

(** A trace superblock: a hot chain of blocks (found through the
    successor memo, loops unrolled) replayed as one unit.  The dispatcher
    performs the budget, event-horizon, watchpoint, store-generation and
    icache-residency checks *once* up front — [tr_insns]/[tr_wc] bound
    the whole pass, [tr_pages]/[tr_gens] snapshot every spanned text
    page, and [tr_lines] are the spanned icache lines, which the builder
    guarantees map to distinct cache indexes so an all-resident check
    makes every fetch in the pass a hit.  Inside the pass there are no
    per-element re-tests; any event that could invalidate the
    preconditions (device store, generation bump, recorded path
    diverging) takes a side exit that spills the register cache and
    returns to the generic loop.  [tr_regs] are the ≤4 hottest registers
    by def/use count; the executor keeps the top of the list in OCaml
    locals across internal seams, spilling only at side exits, traps,
    may-fault memory slow paths and trace end. *)
and trace = {
  tr_blocks : block array;  (* ≥ 2 constituent blocks, in path order *)
  tr_insns : int;           (* total instruction slots *)
  tr_wc : int;              (* worst-case cycles for one full pass *)
  tr_pages : int array;     (* distinct spanned text pages (page index) *)
  tr_gens : int array;      (* generation snapshot, parallel to tr_pages *)
  tr_pg_lo : int;           (* min spanned page: a store to a page outside
                               [tr_pg_lo, tr_pg_hi] cannot invalidate the
                               snapshot, so the in-pass recheck is two
                               compares on the common (data-page) store *)
  tr_pg_hi : int;           (* max spanned page *)
  tr_lines : int array;     (* distinct icache line tags, distinct index *)
  tr_regs : int array;      (* hottest registers, hottest first, ≤ 4 *)
  mutable tr_live : bool;   (* false after first invalidation: the head
                               deopts to plain [Super] dispatch *)
}

val dummy_block : block

val dummy_trace : trace
(** Never-live placeholder for dispatcher state (spans no blocks). *)

val trace_hot_threshold : int
(** Memo-chain entries into a block before trace formation is tried. *)

val trace_max_insns : int
(** Total-slot cap on one trace, independent of the block-count cap. *)

val trace_eligible : block -> bool
(** Blocks a trace may contain: cached RAM text, no [U_other] (barriers,
    FP, hcalls), no [U_stub], and no control transfer left open at the
    end by the page-end clamp. *)

val form_trace :
  head:block ->
  max_blocks:int ->
  wc_load:int ->
  wc_store:int ->
  line_shift:int ->
  nlines:int ->
  trace option
(** Walk the successor memo from [head], collecting up to [max_blocks]
    eligible blocks (at least 2, at most [trace_max_insns] slots), and
    build the trace superblock: page/generation snapshot, spanned icache
    lines, worst-case cycles (1 + [wc_load]/[wc_store] per memory
    instruction), def/use register ranking.  Returns [None] when the
    chain is too short, a spanned page has an inconsistent generation
    snapshot, or two spanned icache lines alias the same cache index
    (which would defeat the up-front residency check). *)

val max_block_insns : int
(** Straight-line runs longer than this are split; the tail re-enters
    through the block table, so nothing is lost but one lookup. *)

val build :
  decode:(va:int -> pa:int -> Insn.t) ->
  va:int -> pa:int -> cached:bool -> gen:int -> fuse:bool -> block
(** Form the block starting at [va]/[pa]: decode and lower until a
    control transfer (plus delay slot), barrier, page end or
    [max_block_insns].  A decode failure at the entry word re-raises; a
    later one ends the block before the bad word, so it raises exactly
    when step-at-a-time would reach it.  [fuse] applies {!fuse} and puts
    a [U_stub] in slot 0 of a block matching a stub shape — only
    honoured on cacheable text, which is what lets fused bodies and stub
    uops skip the cacheability test. *)

(** {2 The store-generation invalidation contract}

    One generation counter per physical page.  Every physical write —
    stores (including the block replay's inlined fast path), DMA
    completions, host pokes — must bump the written page(s).  A block is
    valid only while [bb_gen] matches its text page's current
    generation: the block table probe, the successor memo and the
    post-store recheck inside replay all compare against it, which is
    what makes self-modifying code, newly-loaded text and DMA into text
    pages safe with no explicit flush anywhere.  TLB remaps and mode
    switches need no generation traffic either: every block entry
    re-runs the fetch translation and blocks are keyed on its
    (pa, va, cacheability) result. *)
module Gens : sig
  type t = int array

  val create : mem_bytes:int -> t
  val bump : t -> int -> unit          (* one written address *)
  val bump_range : t -> int -> int -> unit  (* [pa, pa+len) *)
  val get : t -> int -> int            (* current generation of pa's page *)
end
