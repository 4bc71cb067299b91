(* The uop IR of the execution engine: decode-to-uop lowering, block
   formation, superblock peephole fusion, tier selection, and the
   per-page store-generation invalidation contract.  See uop.mli for the
   contracts; Machine owns the architectural state and the replay loop. *)

open Systrace_isa

type tier = Step | Tcache | Bcache | Super | Trace

let all_tiers = [ Step; Tcache; Bcache; Super; Trace ]

let tier_name = function
  | Step -> "step"
  | Tcache -> "tcache"
  | Bcache -> "bcache"
  | Super -> "super"
  | Trace -> "trace"

let tier_of_string = function
  | "step" -> Some Step
  | "tcache" -> Some Tcache
  | "bcache" -> Some Bcache
  | "super" -> Some Super
  | "trace" -> Some Trace
  | _ -> None

let tcache_enabled = function
  | Step -> false
  | Tcache | Bcache | Super | Trace -> true

let bcache_enabled = function
  | Step | Tcache -> false
  | Bcache | Super | Trace -> true

let fusion_enabled = function
  | Step | Tcache | Bcache -> false
  | Super | Trace -> true

let trace_enabled = function
  | Step | Tcache | Bcache | Super -> false
  | Trace -> true

(* CLI tier resolution, shared with the deprecated [--no-bcache] alias.
   Combining the alias with an explicit tier used to resolve silently in
   favour of [--interp-tier]; now it is a hard error, so scripts cannot
   keep passing both and believe the alias still means something. *)
let tier_of_cli ~tier ~no_bcache =
  match (tier, no_bcache) with
  | Some _, true ->
    Error
      "--no-bcache is a deprecated alias for --interp-tier tcache and \
       cannot be combined with an explicit --interp-tier"
  | Some t, false -> Ok t
  | None, true -> Ok Tcache
  | None, false -> Ok Super

(* The four user-variant blocks of the tracing runtime (epoxie's
   runtime.ml), with the registers and bookkeeping offsets they use.
   See the mli for the shapes. *)
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

(* Pre-decoded instruction for the basic-block execution cache: operands
   are resolved to plain ints at block-build time (immediates applied,
   branch targets absolute) and dispatch is one flat match, so replaying
   a block does no decode-cache probing and allocates nothing.
   DESIGN.md §5e records the micro-bench against the closure-threaded
   alternative; §5h the fused constructors.  Anything without a
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
  | U_li of int * int
  | U_addiu2 of int * int * int * int * int * int
  | U_slt_b of bool * int * int * int * bool * int
  | U_lw_addiu of int * int * int * int * int * int
  | U_lmw of int * int * int * int * int * int * int * int * int
  | U_j_nop of int
  | U_stub of stub                         (* whole runtime block *)
  | U_other of Insn.t                      (* full interpreter dispatch *)

let of_insn (insn : Insn.t) : t =
  match insn with
  | Alu (op, rd, rs, rt) -> U_alu (op, rd, rs, rt)
  | Alui (op, rt, rs, Imm imm) -> U_alui (op, rt, rs, imm)
  | Shift (op, rd, rt, sa) -> U_shift (op, rd, rt, sa)
  | Lui (rt, Imm imm) -> U_lui (rt, imm)
  | Load (W, rt, base, Imm off) -> U_lw (rt, base, off)
  | Load (H, rt, base, Imm off) -> U_lh (rt, base, off)
  | Load (HU, rt, base, Imm off) -> U_lhu (rt, base, off)
  | Load (B, rt, base, Imm off) -> U_lb (rt, base, off)
  | Load (BU, rt, base, Imm off) -> U_lbu (rt, base, off)
  | Store (W, rt, base, Imm off) -> U_sw (rt, base, off)
  | Store ((H | HU), rt, base, Imm off) -> U_sh (rt, base, off)
  | Store ((B | BU), rt, base, Imm off) -> U_sb (rt, base, off)
  | Beq (rs, rt, Abs a) -> U_beq (rs, rt, a)
  | Bne (rs, rt, Abs a) -> U_bne (rs, rt, a)
  | Blez (rs, Abs a) -> U_blez (rs, a)
  | Bgtz (rs, Abs a) -> U_bgtz (rs, a)
  | Bltz (rs, Abs a) -> U_bltz (rs, a)
  | Bgez (rs, Abs a) -> U_bgez (rs, a)
  | Bc1t (Abs a) -> U_bc1t a
  | Bc1f (Abs a) -> U_bc1f a
  | J (Abs a) -> U_j a
  | Jal (Abs a) -> U_jal a
  | Jr rs -> U_jr rs
  | Jalr (rd, rs) -> U_jalr (rd, rs)
  | _ -> U_other insn

(* Instructions that can change fetch semantics for their successors
   (mode, ASID, TLB contents, arbitrary host effects) end a block, so the
   next instruction re-enters through a fresh translation.  [Tlbp] and
   [Mfc0] only write the index register / a GPR; [Cache] only changes
   timing, which is already charged per instruction. *)
let barrier (insn : Insn.t) =
  match insn with
  | Syscall | Break _ | Mtc0 _ | Tlbr | Tlbwi | Tlbwr | Rfe | Hcall _ -> true
  | _ -> false

let stub_len = function
  | Bb_head _ | Mt_store _ -> 8
  | Bb_resume _ -> 6
  | Mt_entry _ -> 14

let width = function
  | U_stub s -> stub_len s
  | U_lmw _ -> 3
  | U_li _ | U_addiu2 _ | U_slt_b _ | U_lw_addiu _ | U_j_nop _ -> 2
  | _ -> 1

let is_fused u = width u > 1

(* Greedy left-to-right peephole pass, widest pattern first at each slot.
   A fused constructor replaces the slot of its first instruction; the
   covered slots keep their scalar originals so replay can resume there
   after executing only a prefix of a fused run.

   The structural invariants (qcheck-enforced in test_machine):
   - a store only appears as the final element ([U_lmw]), so no fused
     run crosses a store-generation bump;
   - a branch only as the final element ([U_slt_b]) or with its own
     empty delay slot ([U_j_nop]);
   - never a barrier or [U_other] (none of the patterns match one);
   - runs never overlap (the scan advances by the fused width).

   A delay slot can never be silently swallowed: a slot is a delay slot
   only when the previous slot is a control transfer, and no pattern has
   a control transfer in a non-final position except [U_j_nop], which
   exists to cover exactly its own nop delay slot. *)
let fuse (uops : t array) : t array =
  let n = Array.length uops in
  let out = Array.copy uops in
  let i = ref 0 in
  while !i + 1 < n do
    let w =
      match (uops.(!i), uops.(!i + 1)) with
      | U_lw (rt, base, off), U_alui (Insn.ADDIU, rt2, rs2, i2) ->
        (match if !i + 2 < n then uops.(!i + 2) else U_other Insn.nop with
        | U_sw (rt3, base3, off3) ->
          out.(!i) <- U_lmw (rt, base, off, rt2, rs2, i2, rt3, base3, off3);
          3
        | _ ->
          out.(!i) <- U_lw_addiu (rt, base, off, rt2, rs2, i2);
          2)
      | U_lui (rt, hi), U_alui (Insn.ORI, rt2, rs2, lo)
        when rt <> 0 && rt2 = rt && rs2 = rt ->
        out.(!i) <- U_li (rt, ((hi lsl 16) lor (lo land 0xFFFF)) land 0xFFFFFFFF);
        2
      | U_alui (Insn.ADDIU, rt1, rs1, i1), U_alui (Insn.ADDIU, rt2, rs2, i2) ->
        out.(!i) <- U_addiu2 (rt1, rs1, i1, rt2, rs2, i2);
        2
      | U_alu ((Insn.SLT | Insn.SLTU) as op, rd, rs, rt), U_bne (bs, 0, tgt)
        when rd <> 0 && bs = rd ->
        out.(!i) <- U_slt_b (op = Insn.SLTU, rd, rs, rt, true, tgt);
        2
      | U_alu ((Insn.SLT | Insn.SLTU) as op, rd, rs, rt), U_beq (bs, 0, tgt)
        when rd <> 0 && bs = rd ->
        out.(!i) <- U_slt_b (op = Insn.SLTU, rd, rs, rt, false, tgt);
        2
      | U_j tgt, U_shift (Insn.SLL, 0, 0, 0) ->
        out.(!i) <- U_j_nop tgt;
        2
      | _ -> 1
    in
    i := !i + w
  done;
  out

(* ------------------------------------------------------------------ *)
(* Stub shapes                                                         *)

let rec distinct = function
  | [] -> true
  | r :: rest -> (not (List.mem r rest)) && distinct rest

let is_nop = function U_shift (Insn.SLL, 0, 0, 0) -> true | _ -> false

(* Match a lowered (unfused) block body against the four shapes.  The
   registers each shape names must be pairwise distinct and not $zero,
   $at or $ra: then every data address in the block is a function of the
   registers at block entry and of the one load the memtrace entry
   decodes, which is what lets the executor check all of them before
   applying any effect. *)
let stub_of (u : t array) =
  match u with
  | [| U_sw (rt, book, off);
       U_lw (rt1, 31, -4);
       U_alui (Insn.ANDI, rt2, rt3, 0xFFFF);
       U_shift (Insn.SLL, rt4, rt5, 2);
       U_alu (Insn.ADDU, rt6, cursor, rt7);
       U_alu (Insn.SLTU, rt8, limit, rt9);
       U_bne (rt10, 0, full);
       nop |]
    when is_nop nop
         && List.for_all (( = ) rt) [ rt1; rt2; rt3; rt4; rt5; rt6; rt7; rt8; rt9; rt10 ]
         && distinct [ rt; book; cursor; limit; 0; Reg.at; Reg.ra ] ->
    Some (Bb_head { rt; book; off; cursor; limit; full })
  | [| U_alui (Insn.ADDIU, cursor, cursor1, 4);
       U_sw (31, cursor2, -4);
       U_alu (Insn.ADDU, 1, 31, 0);
       U_lw (31, book, ra_off);
       U_jr 1;
       U_lw (rt, book1, off) |]
    when cursor1 = cursor && cursor2 = cursor && book1 = book
         && distinct [ cursor; book; rt; 0; Reg.at; Reg.ra ] ->
    Some (Bb_resume { cursor; book; ra_off; rt; off })
  | [| U_sw (r0, book, o0);
       U_sw (r1, book1, o1);
       U_sw (r2, book2, o2);
       U_lw (r0a, 31, -4);
       U_shift (Insn.SRL, r1a, r0b, 21);
       U_alui (Insn.ANDI, r1b, r1c, 31);
       U_shift (Insn.SLL, r1d, r1e, 2);
       U_lui (r2a, hi);
       U_alui (Insn.ORI, r2b, r2c, lo);
       U_alu (Insn.ADDU, r2d, r2e, r1f);
       U_lw (r2f, r2g, 0);
       U_shift (Insn.SLL, r0c, r0d, 16);
       U_jr r2h;
       U_shift (Insn.SRA, r0e, r0f, 16) |]
    when book1 = book && book2 = book
         && List.for_all (( = ) r0) [ r0a; r0b; r0c; r0d; r0e; r0f ]
         && List.for_all (( = ) r1) [ r1a; r1b; r1c; r1d; r1e; r1f ]
         && List.for_all (( = ) r2) [ r2a; r2b; r2c; r2d; r2e; r2f; r2g; r2h ]
         && distinct [ r0; r1; r2; book; 0; Reg.at; Reg.ra ] ->
    Some (Mt_entry { r0; r1; r2; book; o0; o1; o2; hi; lo })
  | [| U_alui (Insn.ADDIU, cursor, cursor1, 4);
       U_sw (r1, cursor2, -4);
       U_lw (r0, book, o0);
       U_lw (r2, book1, o2);
       U_alu (Insn.ADDU, 1, 31, 0);
       U_lw (31, book2, ra_off);
       U_jr 1;
       U_lw (r1a, book3, o1) |]
    when cursor1 = cursor && cursor2 = cursor && r1a = r1
         && List.for_all (( = ) book) [ book1; book2; book3 ]
         && distinct [ cursor; r0; r1; r2; book; 0; Reg.at; Reg.ra ] ->
    Some (Mt_store { cursor; r0; r1; r2; book; o0; o1; o2; ra_off })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

type block = {
  bb_pa : int;
  bb_va : int;
  bb_cached : bool;
  bb_gen : int;
  bb_uops : t array;
  mutable bb_next : block;
  mutable bb_hot : int;
  mutable bb_trace : trace option;
}

(* A trace superblock: a hot path of chained blocks replayed with one
   up-front budget/event-horizon/generation/residency check instead of
   per-element re-tests, and with the hottest registers cached in OCaml
   locals across the internal seams.  See the mli for the contract. *)
and trace = {
  tr_blocks : block array;
  tr_insns : int;
  tr_wc : int;
  tr_pages : int array;
  tr_gens : int array;
  tr_pg_lo : int;
  tr_pg_hi : int;
  tr_lines : int array;
  tr_regs : int array;
  mutable tr_live : bool;
}

let rec dummy_block =
  {
    bb_pa = -1;
    bb_va = -1;
    bb_cached = false;
    bb_gen = -1;
    bb_uops = [||];
    bb_next = dummy_block;
    bb_hot = 0;
    bb_trace = None;
  }

(* Placeholder for the dispatcher's current-trace slot (never dispatched:
   [tr_live] is false and it spans no blocks). *)
let dummy_trace =
  {
    tr_blocks = [| dummy_block |];
    tr_insns = 0;
    tr_wc = 0;
    tr_pages = [||];
    tr_gens = [||];
    tr_pg_lo = 1;
    tr_pg_hi = 0;
    tr_lines = [||];
    tr_regs = [||];
    tr_live = false;
  }

let max_block_insns = 256

let build ~decode ~va ~pa ~cached ~gen ~fuse:do_fuse =
  let max_words =
    let to_page_end = ((Addr.page_mask - (pa land Addr.page_mask)) lsr 2) + 1 in
    if to_page_end < max_block_insns then to_page_end else max_block_insns
  in
  let buf = Array.make max_words (U_other Insn.nop) in
  let n = ref 0 in
  let in_delay = ref false in
  let stop = ref false in
  while (not !stop) && !n < max_words do
    match decode ~va:(va + (!n * 4)) ~pa:(pa + (!n * 4)) with
    | insn ->
      buf.(!n) <- of_insn insn;
      incr n;
      if !in_delay then stop := true
      else if Insn.is_control insn then in_delay := true
      else if barrier insn then stop := true
    | exception e ->
      (* Decode failure past the entry word: end the block before it, so
         the bad word raises exactly when step-at-a-time would reach
         it.  At the entry word itself, raise now — [step] would too. *)
      if !n = 0 then raise e;
      stop := true
  done;
  let uops = if !n = max_words then buf else Array.sub buf 0 !n in
  (* Cacheability specialization: fused bodies and stub uops assume a
     cached fetch mapping, so only cacheable text is ever specialised.
     A stub uop takes slot 0 and, like a fused uop, leaves the scalar
     (or fused) uops of the slots it covers in place. *)
  let uops =
    if do_fuse && cached then begin
      let fused = fuse uops in
      (match stub_of uops with
      | Some s -> fused.(0) <- U_stub s
      | None -> ());
      fused
    end
    else uops
  in
  {
    bb_pa = pa;
    bb_va = va;
    bb_cached = cached;
    bb_gen = gen;
    bb_uops = uops;
    bb_next = dummy_block;
    bb_hot = 0;
    bb_trace = None;
  }

(* ------------------------------------------------------------------ *)
(* Trace superblocks                                                   *)

let trace_hot_threshold = 8
let trace_max_insns = 512

(* A block can join a trace when replaying it cannot change fetch or
   translation state mid-trace and cannot leave a control transfer
   pending at the end:
   - cached RAM text only (no device fetch, no uncached specialization);
   - no [U_other] (excludes barriers, FP, hcalls — anything that could
     switch mode, rewrite the TLB, or run arbitrary host effects);
   - the final uop must not be an open control transfer, i.e. one whose
     delay slot fell past the page-end clamp ([U_j_nop] carries its own
     delay slot and is fine). *)
let ends_open = function
  | U_beq _ | U_bne _ | U_blez _ | U_bgtz _ | U_bltz _ | U_bgez _
  | U_bc1t _ | U_bc1f _ | U_j _ | U_jal _ | U_jr _ | U_jalr _ | U_slt_b _ ->
    true
  | _ -> false

let trace_eligible b =
  let n = Array.length b.bb_uops in
  b.bb_pa >= 0 && b.bb_cached && n > 0
  && (not (ends_open b.bb_uops.(n - 1)))
  && Array.for_all (function U_other _ | U_stub _ -> false | _ -> true) b.bb_uops

(* Def/use accounting for the cross-seam register cache: every register
   operand read or written bumps its count.  Register 0 is never a
   candidate (it must stay hardwired zero). *)
let count_regs counts u =
  let bump r = if r > 0 then counts.(r) <- counts.(r) + 1 in
  match u with
  | U_alu (_, rd, rs, rt) -> bump rd; bump rs; bump rt
  | U_alui (_, rt, rs, _) -> bump rt; bump rs
  | U_shift (_, rd, rt, _) -> bump rd; bump rt
  | U_lui (rt, _) | U_li (rt, _) -> bump rt
  | U_lw (rt, base, _) | U_lh (rt, base, _) | U_lhu (rt, base, _)
  | U_lb (rt, base, _) | U_lbu (rt, base, _)
  | U_sw (rt, base, _) | U_sh (rt, base, _) | U_sb (rt, base, _) ->
    bump rt; bump base
  | U_beq (rs, rt, _) | U_bne (rs, rt, _) -> bump rs; bump rt
  | U_blez (rs, _) | U_bgtz (rs, _) | U_bltz (rs, _) | U_bgez (rs, _)
  | U_jr rs ->
    bump rs
  | U_bc1t _ | U_bc1f _ | U_j _ | U_j_nop _ -> ()
  | U_jal _ -> bump 31
  | U_jalr (rd, rs) -> bump rd; bump rs
  | U_addiu2 (rt1, rs1, _, rt2, rs2, _) ->
    bump rt1; bump rs1; bump rt2; bump rs2
  | U_slt_b (_, rd, rs, rt, _, _) -> bump rd; bump rs; bump rt
  | U_lw_addiu (rt, base, _, rt2, rs2, _) ->
    bump rt; bump base; bump rt2; bump rs2
  | U_lmw (rt, base, _, rt2, rs2, _, rt3, base3, _) ->
    bump rt; bump base; bump rt2; bump rs2; bump rt3; bump base3
  | U_stub _ | U_other _ -> ()

(* Worst-case cycle cost of one slot (scalar view), used for the single
   up-front event-horizon test: base 1 cycle per instruction plus the
   machine-supplied worst memory stall for loads and stores. *)
let wc_of_uop ~wc_load ~wc_store = function
  | U_lmw _ -> 3 + wc_load + wc_store
  | U_lw_addiu _ -> 2 + wc_load
  | U_li _ | U_addiu2 _ | U_slt_b _ | U_j_nop _ -> 2
  | U_lw _ | U_lh _ | U_lhu _ | U_lb _ | U_lbu _ -> 1 + wc_load
  | U_sw _ | U_sh _ | U_sb _ -> 1 + wc_store
  | _ -> 1

let form_trace ~head ~max_blocks ~wc_load ~wc_store ~line_shift ~nlines =
  if not (trace_eligible head) then None
  else begin
    (* Walk the successor memo greedily; a self-loop naturally unrolls
       the loop body up to [max_blocks] times. *)
    let rev = ref [ head ] in
    let nb = ref 1 in
    let insns = ref (Array.length head.bb_uops) in
    let cur = ref head in
    let go = ref true in
    while !go && !nb < max_blocks do
      let nxt = !cur.bb_next in
      if
        nxt != dummy_block && trace_eligible nxt
        && !insns + Array.length nxt.bb_uops <= trace_max_insns
      then begin
        rev := nxt :: !rev;
        incr nb;
        insns := !insns + Array.length nxt.bb_uops;
        cur := nxt
      end
      else go := false
    done;
    if !nb < 2 then None
    else begin
      let blocks = Array.of_list (List.rev !rev) in
      (* Distinct text pages with a consistent generation snapshot, and
         distinct icache lines that must map to distinct indexes so an
         all-resident entry check guarantees every fetch hits. *)
      let pages = ref [] and gens_ok = ref true in
      let lines = ref [] in
      let counts = Array.make 32 0 in
      let wc = ref 0 in
      Array.iter
        (fun b ->
          let p = b.bb_pa lsr Addr.page_shift in
          (match List.assoc_opt p !pages with
          | None -> pages := (p, b.bb_gen) :: !pages
          | Some g -> if g <> b.bb_gen then gens_ok := false);
          let n = Array.length b.bb_uops in
          let t0 = b.bb_pa lsr line_shift in
          let t1 = (b.bb_pa + ((n - 1) * 4)) lsr line_shift in
          for tg = t0 to t1 do
            if not (List.mem tg !lines) then lines := tg :: !lines
          done;
          let k = ref 0 in
          while !k < n do
            let u = b.bb_uops.(!k) in
            count_regs counts u;
            wc := !wc + wc_of_uop ~wc_load ~wc_store u;
            k := !k + width u
          done)
        blocks;
      let lines = !lines in
      let mask = nlines - 1 in
      let idx_distinct =
        let seen = Array.make nlines false in
        List.for_all
          (fun tg ->
            let i = tg land mask in
            if seen.(i) then false
            else begin
              seen.(i) <- true;
              true
            end)
          lines
      in
      if (not !gens_ok) || not idx_distinct then None
      else begin
        (* The <=4 hottest registers by def/use count; the executor pins
           the top of this list in OCaml locals across internal seams. *)
        let regs = ref [] in
        for _ = 1 to 4 do
          let best = ref 0 in
          for r = 1 to 31 do
            if counts.(r) > counts.(!best) then best := r
          done;
          if !best > 0 && counts.(!best) > 0 then begin
            regs := !best :: !regs;
            counts.(!best) <- 0
          end
        done;
        Some
          {
            tr_blocks = blocks;
            tr_insns = !insns;
            tr_wc = !wc;
            tr_pages = Array.of_list (List.map fst !pages);
            tr_gens = Array.of_list (List.map snd !pages);
            tr_pg_lo = List.fold_left (fun a (p, _) -> min a p) max_int !pages;
            tr_pg_hi = List.fold_left (fun a (p, _) -> max a p) (-1) !pages;
            tr_lines = Array.of_list lines;
            tr_regs = Array.of_list (List.rev !regs);
            tr_live = true;
          }
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Store-generation invalidation (see the mli for the contract)        *)

module Gens = struct
  type t = int array

  let create ~mem_bytes =
    Array.make (max 1 ((mem_bytes + Addr.page_mask) lsr Addr.page_shift)) 0

  let bump (g : t) pa =
    let p = pa lsr Addr.page_shift in
    g.(p) <- g.(p) + 1

  let bump_range (g : t) pa len =
    if len > 0 then
      for p = pa lsr Addr.page_shift to (pa + len - 1) lsr Addr.page_shift do
        g.(p) <- g.(p) + 1
      done

  let get (g : t) pa = g.(pa lsr Addr.page_shift)
end
