(* pixie-style instrumentation, as a baseline for text expansion (§3.2).

   pixie rewrites *executables*, not object files, so it lacks symbol and
   relocation information: address correction must partly happen at run
   time through a translation table, and registers cannot be stolen, so
   every trace point must spill and reload working registers around itself.
   The result is the 4-6x text growth the paper contrasts with epoxie's
   1.9-2.3x.

   The rewriter emits pixie's cost structure:
     - per basic block: an 8-instruction preamble that spills two
       registers, loads the buffer cursor from memory, stores the block id,
       bumps and writes back the cursor, and reloads the spills;
     - per memory instruction: a 6-instruction sequence doing the same
       dance to record the effective address.

   The cursor lives in memory (no stolen register to keep it in).  The
   output is measured for its text growth only: it is never linked or
   run. *)

open Systrace_isa

(* The per-block sequence.  [id] is the block's ordinal — pixie has no
   link-time labels to anchor to, which is the point. *)
let bb_seq id : Insn.t list =
  [
    (* spill t0/t1 *)
    Store (W, Reg.t0, Reg.gp, Imm 0);
    Store (W, Reg.t1, Reg.gp, Imm 4);
    (* cursor load, store id, bump, write back *)
    Load (W, Reg.t0, Reg.gp, Imm 8);
    Alui (ORI, Reg.t1, Reg.zero, Imm (id land 0xFFFF));
    Store (W, Reg.t1, Reg.t0, Imm 0);
    Alui (ADDIU, Reg.t0, Reg.t0, Imm 4);
    Store (W, Reg.t0, Reg.gp, Imm 8);
    (* reload spills *)
    Load (W, Reg.t0, Reg.gp, Imm 0);
  ]

let mem_seq base off : Insn.t list =
  [
    Store (W, Reg.t0, Reg.gp, Imm 0);
    Load (W, Reg.t1, Reg.gp, Imm 8);
    Alui (ADDIU, Reg.t0, base, Imm off);
    Store (W, Reg.t0, Reg.t1, Imm 0);
    Alui (ADDIU, Reg.t1, Reg.t1, Imm 4);
    Store (W, Reg.t1, Reg.gp, Imm 8);
  ]

(* pixie's $gp-relative scratch convention: the harness points $gp at a
   private page holding [spill0, spill1, cursor].  This mirrors pixie's
   reliance on a reserved-by-convention register rather than stolen
   registers. *)

let instrument_obj (obj : Objfile.t) ~first_id : Objfile.t * int =
  if obj.Objfile.no_instrument then (obj, first_id)
  else begin
    let blocks = Bb.analyze obj.text in
    let starts = Hashtbl.create 64 in
    List.iteri
      (fun k (b : Bb.block) -> Hashtbl.replace starts b.start (first_id + k))
      blocks;
    let out = ref [] in
    let emit x = out := x :: !out in
    let idx = ref 0 in
    let pending_control = ref false in
    List.iter
      (function
        | Objfile.Label l -> emit (Objfile.Label l)
        | Objfile.Insn insn ->
          let in_slot = !pending_control in
          pending_control := Insn.is_control insn;
          (match Hashtbl.find_opt starts !idx with
          | Some id when not in_slot ->
            List.iter (fun i -> emit (Objfile.Insn i)) (bb_seq id)
          | _ -> ());
          (if Insn.is_mem insn && not in_slot then
             match Insn.mem_base_offset insn with
             | Some (base, Insn.Imm off) when base <> Reg.gp ->
               List.iter (fun i -> emit (Objfile.Insn i)) (mem_seq base off)
             | _ -> ());
          emit (Objfile.Insn insn);
          incr idx)
      obj.text;
    let text = List.rev !out in
    (Objfile.validate { obj with text }, first_id + List.length blocks)
  end

let instrument_modules (mods : Objfile.t list) : Objfile.t list =
  let _, rev =
    List.fold_left
      (fun (id, acc) m ->
        let m', id' = instrument_obj m ~first_id:id in
        (id', m' :: acc))
      (0, []) mods
  in
  List.rev rev
