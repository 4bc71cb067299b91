(* The uop IR of the execution engine: decode-to-uop lowering, block
   formation with the runtime stub uops, tier selection, and the
   per-page store-generation invalidation contract.  See uop.mli for the
   contracts; Machine owns the architectural state and the replay loop. *)

open Systrace_isa

type tier = Step | Bcache

(* The four user-variant blocks of the tracing runtime (epoxie's
   runtime.ml) and the kernel's two trace-buffer loops (ktraceops.ml),
   with the registers and bookkeeping offsets they use.  See the mli for
   the shapes. *)
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

let stub_kinds = [| "bb_head"; "bb_resume"; "mt_entry"; "mt_store"; "kd_copy"; "spin" |]

let stub_kind = function
  | Bb_head _ -> 0
  | Bb_resume _ -> 1
  | Mt_entry _ -> 2
  | Mt_store _ -> 3
  | Kd_copy _ -> 4
  | Spin _ -> 5

(* Pre-decoded instruction for the basic-block execution cache: operands
   are resolved to plain ints at block-build time (immediates applied,
   branch targets absolute) and dispatch is one flat match, so replaying
   a block does no decode-cache probing and allocates nothing.
   DESIGN.md §5e records the micro-bench against the closure-threaded
   alternative; §5m the floating-point uops.  Anything without a
   specialised executor falls back to [U_other] and the full
   interpreter dispatch. *)
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
  | Fload (ft, base, Imm off) -> U_fload (ft, base, off)
  | Fstore (ft, base, Imm off) -> U_fstore (ft, base, off)
  | Fop (op, fd, fs, ft) -> U_fop (op, fd, fs, ft)
  | Fcmp (c, fs, ft) -> U_fcmp (c, fs, ft)
  | Mtc1 (rt, fs) -> U_mtc1 (rt, fs)
  | Mfc1 (rt, fs) -> U_mfc1 (rt, fs)
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

(* ------------------------------------------------------------------ *)
(* Stub shapes                                                         *)

let rec distinct = function
  | [] -> true
  | r :: rest -> (not (List.mem r rest)) && distinct rest

let is_nop = function U_shift (Insn.SLL, 0, 0, 0) -> true | _ -> false

(* Match a lowered block body, decoded at [va], against the shapes.
   The registers each runtime shape names must be pairwise distinct and
   not $zero, $at or $ra: then every data address in the block is a
   function of the registers at block entry and of the one load the
   memtrace entry decodes, which is what lets the executor check all of
   them before applying any effect.  The drain copy's body jumps back to
   a head block two words before it; [head ()] lowers those two words
   when they share the body's page, so the body's page generation
   covers both. *)
let stub_of ~va ~head (u : t array) =
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
  | [| nop;
       U_lw (tmp, src, 0);
       U_sw (tmp1, dst, 0);
       U_alui (Insn.ADDIU, src1, src2, 4);
       U_j h;
       U_alui (Insn.ADDIU, dst1, dst2, 4) |]
    when is_nop nop && h = va - 8 && tmp1 = tmp && src1 = src && src2 = src
         && dst1 = dst && dst2 = dst -> (
    match head () with
    | Some (U_beq (src3, stop, _), nop1)
      when is_nop nop1 && src3 = src && distinct [ src; dst; tmp; stop; 0 ] ->
      Some (Kd_copy { src; dst; tmp; stop })
    | _ -> None)
  | [| U_alui (Insn.ADDIU, r, r1, -1); U_bgtz (r2, b); nop |]
    when is_nop nop && r1 = r && r2 = r && b = va && r <> 0 ->
    Some (Spin { r })
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
}

let rec dummy_block =
  {
    bb_pa = -1;
    bb_va = -1;
    bb_cached = false;
    bb_gen = -1;
    bb_uops = [||];
    bb_next = dummy_block;
  }

let max_block_insns = 256

let build ~decode ~va ~pa ~cached ~gen =
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
  (* Cacheability specialization: stub uops assume a cached fetch
     mapping, so only cacheable text gets one.  A stub uop takes slot 0
     and leaves the scalar uops of the slots it covers in place. *)
  if cached then begin
    let head () =
      if pa land Addr.page_mask < 8 then None
      else
        match (decode ~va:(va - 8) ~pa:(pa - 8), decode ~va:(va - 4) ~pa:(pa - 4)) with
        | i0, i1 -> Some (of_insn i0, of_insn i1)
        | exception _ -> None
    in
    match stub_of ~va ~head uops with Some s -> uops.(0) <- U_stub s | None -> ()
  end;
  {
    bb_pa = pa;
    bb_va = va;
    bb_cached = cached;
    bb_gen = gen;
    bb_uops = uops;
    bb_next = dummy_block;
  }

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
