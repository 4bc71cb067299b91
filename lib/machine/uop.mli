(** The execution-engine uop IR: decode-to-uop lowering, basic-block
    formation with the tracing runtime's stub uops, tier selection, and
    the per-page store-generation invalidation contract.

    This module owns everything about *what* a compiled block contains;
    {!Machine} owns the architectural state and *how* blocks replay.
    [Machine.step] remains the state-identical oracle. *)

open Systrace_isa

(** {2 Execution tiers}

    The interpreter tiers; [Bcache] is strictly a host-side accelerator
    over [Step] — simulated state, counters and console are bit-identical
    at both (qcheck- and ablation-enforced):

    - [Step]: step-at-a-time oracle, full TLB walk on every access.
    - [Bcache]: the translation cache (last-translation micro-cache per
      access class, with a hashed second level), the decode-once
      basic-block cache with successor memo, and stub uops for the
      tracing runtime's blocks. *)
type tier = Step | Bcache

val all_tiers : tier list
val tier_name : tier -> string

(** {2 Stub shapes}

    The four blocks of epoxie's tracing runtime ([lib/epoxie/runtime.ml])
    that carry the per-reference cost of a traced run, and the kernel's
    two trace-buffer loops ([lib/kernel/ktraceops.ml]), as decoded on
    cached text (registers: [rt]/[r0..r2] the scratch registers, [book]
    the bookkeeping base, [cursor]/[limit] the trace cursor and its
    high-water mark):

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
      jr at; lw r1, o1(book)] — memtrace's record store and return;
    - [Kd_copy]: [nop; lw tmp, 0(src); sw tmp, 0(dst); addiu src, src, 4;
      j H; addiu dst, dst, 4] at H+8, whose head block at H, on the same
      page, is [beq src, stop, _; nop] — the drain's word copy from a
      user trace buffer into the kernel's ($kd_loop).  One dispatch
      copies a run of words and leaves pc at H;
    - [Spin]: [addiu r, r, -1; bgtz r, B; nop] at B — the analysis-mode
      countdown ($ka_spin).  One dispatch runs a run of iterations.

    The registers a runtime shape names are pairwise distinct and none
    is $zero, $at or $ra; [Kd_copy]'s four are pairwise distinct and not
    $zero, and [Spin]'s [r] is not $zero.  The kernel variant of the
    runtime matches where its blocks have the user shapes: its room
    check, the block after the mtc0 barrier that closes its prologue, is
    a [Bb_head]; its mfc0/mtc0 blocks match nothing. *)
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
  | Kd_copy of { src : int; dst : int; tmp : int; stop : int }
  | Spin of { r : int }

val stub_kinds : string array
(** The stub kinds' names, in constructor order. *)

val stub_kind : stub -> int
(** A stub's index in {!stub_kinds}. *)

(** {2 The uop IR}

    One pre-decoded instruction of a cached basic block: operands
    resolved to plain ints at build time (immediates applied, branch
    targets absolute), dispatch pre-selected, so replay does no
    decode-cache probing and allocates nothing.  Anything without a
    specialised executor falls back to [U_other] and the full interpreter
    dispatch. *)
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
  | U_fload of int * int * int             (* ft, base, off *)
  | U_fstore of int * int * int
  | U_fop of Insn.fop * int * int * int    (* fd, fs, ft *)
  | U_fcmp of Insn.fcond * int * int       (* fs, ft *)
  | U_mtc1 of int * int                    (* rt, fs *)
  | U_mfc1 of int * int
      (** The floating-point uops.  Their FP register numbers come from
          5-bit fields but there are {!Reg.nfregs} registers, so the
          executor keeps those accesses bounds-checked, as [exec] does. *)
  | U_stub of stub
      (** A whole tracing-runtime block, or a run of iterations of a
          kernel trace-buffer loop, as one dispatch, in slot 0 of a block
          whose body matches the stub shape.  When the stub falls
          through, slot 0's own instruction runs (a store, the cursor
          bump, a nop or the countdown, fixed by the shape); the covered
          slots keep their scalar uops. *)
  | U_other of Insn.t                      (* full interpreter dispatch *)

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
}

val dummy_block : block

val build :
  decode:(va:int -> pa:int -> Insn.t) ->
  va:int -> pa:int -> cached:bool -> gen:int -> block
(** Form the block starting at [va]/[pa]: decode and lower until a
    control transfer (plus delay slot), barrier, page end or 256
    instructions (a longer run is split; the tail re-enters through the
    block table, so nothing is lost but one lookup).  A decode failure
    at the entry word re-raises; a later one ends the block before the
    bad word, so it raises exactly when step-at-a-time would reach it.
    On cacheable text, a block matching a stub shape gets a [U_stub] in
    slot 0 — only there, which is what lets stub uops skip the
    cacheability test.  Matching [Kd_copy] decodes the two words before
    [pa] when they are on its page. *)

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
