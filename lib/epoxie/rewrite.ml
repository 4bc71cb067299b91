(* Pre-instrumentation rewriting passes: delay-slot hoisting and register
   stealing.

   Register stealing (paper, section 3.5): epoxie operates on binaries
   after compilation, so the three registers the tracing system needs
   ($t7/$t8/$t9, see [Systrace_tracing.Abi]) must be stolen from the
   original code.  Uses of stolen registers are replaced with sequences that
   use a shadow value in memory (in the bookkeeping area pointed to by
   xreg_book).  $at is the designated scratch register: compiled code never
   carries a live value in $at across instructions (the assembler reserves
   it); when a second scratch is needed, $ra is borrowed and restored.

   Delay-slot hoisting: an instruction in a branch delay slot cannot have
   code inserted around it, so if the slot instruction needs steal-rewriting
   or memtrace wrapping it is hoisted to just before the branch (legal when
   the branch does not read anything the slot writes — a MIPS delay slot
   executes unconditionally, so ordering is otherwise immaterial) and the
   slot is refilled with a nop.

   Instructions inserted by these passes are tagged as non-original:
   their memory references belong to the tracing system, not to the traced
   program, and must not be wrapped with memtrace. *)

open Systrace_isa
open Systrace_tracing

exception Unrewritable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unrewritable s)) fmt

(* Items tagged with provenance: [true] = instruction of the original
   program; [false] = inserted by the tracing system. *)
type titem =
  | TLabel of string
  | TInsn of Insn.t * bool

let untag_items (items : titem list) : Objfile.titem list =
  List.map
    (function
      | TLabel l -> Objfile.Label l
      | TInsn (i, _) -> Objfile.Insn i)
    items

let is_stolen r = List.mem r Abi.stolen

let needs_steal insn =
  List.exists is_stolen (Insn.uses insn)
  || List.exists is_stolen (Insn.defs insn)

(* ------------------------------------------------------------------ *)
(* Delay-slot hoisting                                                  *)

let intersects a b = List.exists (fun x -> List.mem x b) a

let hoist_pass (items : titem list) : titem list =
  let rec go acc = function
    | [] -> List.rev acc
    | (TInsn (br, _) as bri) :: (TInsn (slot, stag) as sloti) :: rest
      when Insn.is_control br ->
      if needs_steal slot || Insn.is_mem slot then begin
        if Insn.is_control slot then
          fail "control instruction in delay slot: %s" (Insn.to_string slot);
        if intersects (Insn.defs slot) (Insn.uses br) then
          fail "delay slot %s defines a register read by %s"
            (Insn.to_string slot) (Insn.to_string br);
        ignore stag;
        go (TInsn (Insn.nop, false) :: bri :: sloti :: acc) rest
      end
      else go (sloti :: bri :: acc) rest
    | item :: rest -> go (item :: acc) rest
  in
  go [] items

(* ------------------------------------------------------------------ *)
(* Register stealing                                                    *)

let at = Reg.at

(* Map the register operands of an instruction through [f]. *)
let map_regs f (insn : Insn.t) : Insn.t =
  match insn with
  | Alu (op, rd, rs, rt) -> Alu (op, f rd, f rs, f rt)
  | Alui (op, rt, rs, im) -> Alui (op, f rt, f rs, im)
  | Shift (op, rd, rt, sa) -> Shift (op, f rd, f rt, sa)
  | Lui (rt, im) -> Lui (f rt, im)
  | Load (w, rt, base, off) -> Load (w, f rt, f base, off)
  | Store (w, rt, base, off) -> Store (w, f rt, f base, off)
  | Fload (ft, base, off) -> Fload (ft, f base, off)
  | Fstore (ft, base, off) -> Fstore (ft, f base, off)
  | Beq (rs, rt, t) -> Beq (f rs, f rt, t)
  | Bne (rs, rt, t) -> Bne (f rs, f rt, t)
  | Blez (rs, t) -> Blez (f rs, t)
  | Bgtz (rs, t) -> Bgtz (f rs, t)
  | Bltz (rs, t) -> Bltz (f rs, t)
  | Bgez (rs, t) -> Bgez (f rs, t)
  | Jr rs -> Jr (f rs)
  | Jalr (rd, rs) -> Jalr (f rd, f rs)
  | Mtc0 (rt, c) -> Mtc0 (f rt, c)
  | Mfc0 (rt, c) -> Mfc0 (f rt, c)
  | Mfc1 (rt, fs) -> Mfc1 (f rt, fs)
  | Mtc1 (rt, fs) -> Mtc1 (f rt, fs)
  | Cache (op, base, off) -> Cache (op, f base, off)
  | ( J _ | Jal _ | Syscall | Break _ | Hcall _ | Tlbr | Tlbwi | Tlbwr
    | Tlbp | Rfe | Fop _ | Fcmp _ | Bc1t _ | Bc1f _ ) as i -> i

let shadow_load dst r =
  Insn.Load (W, dst, Abi.xreg_book, Imm (Abi.shadow_slot r))

let shadow_store src r =
  Insn.Store (W, src, Abi.xreg_book, Imm (Abi.shadow_slot r))

(* Rewrite one original instruction that touches stolen registers into an
   equivalent sequence using shadow memory.  The core instruction keeps its
   original tag; inserted shadow accesses are tagged false. *)
let steal_rewrite_insn insn ~tag : titem list =
  let uses = List.sort_uniq compare (List.filter is_stolen (Insn.uses insn)) in
  let defs = List.filter is_stolen (Insn.defs insn) in
  match (uses, defs) with
  | [], [] -> [ TInsn (insn, tag) ]
  | _ ->
    let subst = Hashtbl.create 4 in
    let loads, saves, restores =
      match uses with
      | [] -> ([], [], [])
      | [ u ] ->
        Hashtbl.add subst u at;
        ([ shadow_load at u ], [], [])
      | [ u1; u2 ] ->
        (* Second scratch: $v1.  Never $ra — the tracing runtime restores
           $ra from the bookkeeping slot, which would clobber a borrowed
           value around a wrapped memory instruction.  Both sources are
           stolen registers here, so $v1 cannot itself be a source. *)
        let v1 = Reg.v1 in
        Hashtbl.add subst u1 at;
        Hashtbl.add subst u2 v1;
        if List.mem v1 (Insn.uses insn) then
          fail "instruction uses $v1 and two stolen registers: %s"
            (Insn.to_string insn);
        let defines_v1 = List.mem v1 (Insn.defs insn) in
        let saves, restores =
          if defines_v1 then ([], [])
          else
            ( [ Insn.Store (W, v1, Abi.xreg_book, Imm Abi.book_scratch0) ],
              [ Insn.Load (W, v1, Abi.xreg_book, Imm Abi.book_scratch0) ] )
        in
        ([ shadow_load at u1; shadow_load v1 u2 ], saves, restores)
      | _ ->
        fail "instruction uses three stolen registers: %s"
          (Insn.to_string insn)
    in
    (* Sources and destination are substituted independently: the same
       register name can be a stolen source (mapped to its shadow load's
       temporary) and the destination (always computed into $at). *)
    let f r = match Hashtbl.find_opt subst r with Some r' -> r' | None -> r in
    let stores =
      match defs with
      | [] -> []
      | [ d ] -> [ shadow_store at d ]
      | _ ->
        fail "instruction defines two stolen registers: %s"
          (Insn.to_string insn)
    in
    let replace_def d' (i : Insn.t) : Insn.t =
      match i with
      | Alu (op, _, rs, rt) -> Alu (op, d', rs, rt)
      | Alui (op, _, rs, im) -> Alui (op, d', rs, im)
      | Shift (op, _, rt, sa) -> Shift (op, d', rt, sa)
      | Lui (_, im) -> Lui (d', im)
      | Load (w, _, base, off) -> Load (w, d', base, off)
      | Mfc0 (_, c) -> Mfc0 (d', c)
      | Mfc1 (_, fs) -> Mfc1 (d', fs)
      | Jalr (_, rs) -> Jalr (d', rs)
      | i -> i
    in
    let core = map_regs f insn in
    let core = if defs = [] then core else replace_def at core in
    if Insn.is_control core && stores <> [] then
      fail "control instruction with stolen destination: %s"
        (Insn.to_string insn);
    List.map (fun i -> TInsn (i, false)) saves
    @ List.map (fun i -> TInsn (i, false)) loads
    @ [ TInsn (core, tag) ]
    @ List.map (fun i -> TInsn (i, false)) stores
    @ List.map (fun i -> TInsn (i, false)) restores

let steal_pass (items : titem list) : titem list =
  List.concat_map
    (function
      | TLabel _ as l -> [ l ]
      | TInsn (insn, tag) ->
        if needs_steal insn then steal_rewrite_insn insn ~tag
        else [ TInsn (insn, tag) ])
    items

(* Full pre-instrumentation rewrite. *)
let rewrite (items : titem list) : titem list = steal_pass (hoist_pass items)
