(* Assembler eDSL.

   The kernel, the tracing runtime, and all twelve workloads are written
   against this module.  It accumulates text/data items into an
   [Objfile.t].  Convenience emitters for control transfers append a [nop]
   delay slot; performance-sensitive code fills delay slots explicitly with
   [i] (the raw instruction emitter).

   Pseudo-instructions:
     [li]  — load 32-bit immediate (1-2 instructions)
     [la]  — load symbol address (lui + ori, so the linker never needs the
             sign-adjusted %hi trick; [Lo] is only legal in zero-extending
             contexts, which the linker enforces)                         *)

open Insn

type t = {
  name : string;
  mutable rev_text : Objfile.titem list;
  mutable rev_data : Objfile.ditem list;
  mutable globals : Objfile.SSet.t;
  mutable protected : Objfile.SSet.t;
  no_instrument : bool;
  mutable label_counter : int;
}

let create ?(no_instrument = false) name =
  {
    name;
    rev_text = [];
    rev_data = [];
    globals = Objfile.SSet.empty;
    protected = Objfile.SSet.empty;
    no_instrument;
    label_counter = 0;
  }

let global a l = a.globals <- Objfile.SSet.add l a.globals

let protect a l = a.protected <- Objfile.SSet.add l a.protected

let label a l = a.rev_text <- Objfile.Label l :: a.rev_text

(* A fresh module-unique local label, for compiled control structures. *)
let fresh_label a prefix =
  a.label_counter <- a.label_counter + 1;
  Printf.sprintf ".%s_%d" prefix a.label_counter

let i a insn = a.rev_text <- Objfile.Insn insn :: a.rev_text

let insn_count a =
  List.fold_left
    (fun n -> function Objfile.Insn _ -> n + 1 | Objfile.Label _ -> n)
    0 a.rev_text

(* Pad with nops until the module contains [n] instructions — used to place
   exception vectors at fixed offsets. *)
let pad_to a n =
  let cur = insn_count a in
  if cur > n then
    failwith
      (Printf.sprintf "%s: pad_to %d but already at %d instructions" a.name n cur);
  for _ = cur + 1 to n do
    a.rev_text <- Objfile.Insn Insn.nop :: a.rev_text
  done

let to_obj a : Objfile.t =
  Objfile.validate
    {
      name = a.name;
      text = List.rev a.rev_text;
      data = List.rev a.rev_data;
      globals = a.globals;
      protected = a.protected;
      no_instrument = a.no_instrument;
    }

(* ------------------------------------------------------------------ *)
(* Instruction emitters                                                 *)

let nop a = i a Insn.nop
let addu a rd rs rt = i a (Alu (ADDU, rd, rs, rt))
let add a rd rs rt = i a (Alu (ADD, rd, rs, rt))
let subu a rd rs rt = i a (Alu (SUBU, rd, rs, rt))
let and_ a rd rs rt = i a (Alu (AND, rd, rs, rt))
let or_ a rd rs rt = i a (Alu (OR, rd, rs, rt))
let xor_ a rd rs rt = i a (Alu (XOR, rd, rs, rt))
let slt a rd rs rt = i a (Alu (SLT, rd, rs, rt))
let sltu a rd rs rt = i a (Alu (SLTU, rd, rs, rt))
let mul a rd rs rt = i a (Alu (MUL, rd, rs, rt))
let div_ a rd rs rt = i a (Alu (DIV, rd, rs, rt))
let rem_ a rd rs rt = i a (Alu (REM, rd, rs, rt))
let sllv a rd rs rt = i a (Alu (SLLV, rd, rs, rt))
let srlv a rd rs rt = i a (Alu (SRLV, rd, rs, rt))
let addiu a rt rs v = i a (Alui (ADDIU, rt, rs, Imm v))
let andi a rt rs v = i a (Alui (ANDI, rt, rs, Imm v))
let ori a rt rs v = i a (Alui (ORI, rt, rs, Imm v))
let xori a rt rs v = i a (Alui (XORI, rt, rs, Imm v))
let slti a rt rs v = i a (Alui (SLTI, rt, rs, Imm v))
let sltiu a rt rs v = i a (Alui (SLTIU, rt, rs, Imm v))
let sll a rd rt sa = i a (Shift (SLL, rd, rt, sa))
let srl a rd rt sa = i a (Shift (SRL, rd, rt, sa))
let sra a rd rt sa = i a (Shift (SRA, rd, rt, sa))
let lui a rt v = i a (Lui (rt, Imm v))
let lw a rt off base = i a (Load (W, rt, base, Imm off))
let lh a rt off base = i a (Load (H, rt, base, Imm off))
let lhu a rt off base = i a (Load (HU, rt, base, Imm off))
let lb a rt off base = i a (Load (B, rt, base, Imm off))
let lbu a rt off base = i a (Load (BU, rt, base, Imm off))
let sw a rt off base = i a (Store (W, rt, base, Imm off))
let sh a rt off base = i a (Store (H, rt, base, Imm off))
let sb a rt off base = i a (Store (B, rt, base, Imm off))
let ld a ft off base = i a (Fload (ft, base, Imm off))
let sd a ft off base = i a (Fstore (ft, base, Imm off))
let move a rd rs = i a (Alu (ADDU, rd, rs, Reg.zero))
let mfc0 a rt c = i a (Mfc0 (rt, c))
let mtc0 a rt c = i a (Mtc0 (rt, c))
let mfc1 a rt fs = i a (Mfc1 (rt, fs))
let mtc1 a rt fs = i a (Mtc1 (rt, fs))
let fadd a fd fs ft = i a (Fop (FADD, fd, fs, ft))
let fsub a fd fs ft = i a (Fop (FSUB, fd, fs, ft))
let fmul a fd fs ft = i a (Fop (FMUL, fd, fs, ft))
let fdiv a fd fs ft = i a (Fop (FDIV, fd, fs, ft))
let fmov a fd fs = i a (Fop (FMOV, fd, fs, 0))
let cvtdw a fd fs = i a (Fop (CVTDW, fd, fs, 0))
let truncwd a fd fs = i a (Fop (TRUNCWD, fd, fs, 0))
let fcmp a c fs ft = i a (Fcmp (c, fs, ft))
let syscall a = i a Syscall
let tlbwr a = i a Tlbwr
let tlbwi a = i a Tlbwi
let tlbp a = i a Tlbp
let tlbr a = i a Tlbr
let rfe a = i a Rfe
let hcall a n = i a (Hcall n)

(* Control transfers with an automatic nop delay slot. *)
let beq a rs rt l = i a (Beq (rs, rt, Sym l)); nop a
let bne a rs rt l = i a (Bne (rs, rt, Sym l)); nop a
let beqz a rs l = beq a rs Reg.zero l
let bnez a rs l = bne a rs Reg.zero l
let blez a rs l = i a (Blez (rs, Sym l)); nop a
let bgtz a rs l = i a (Bgtz (rs, Sym l)); nop a
let bltz a rs l = i a (Bltz (rs, Sym l)); nop a
let bgez a rs l = i a (Bgez (rs, Sym l)); nop a
let bc1t a l = i a (Bc1t (Sym l)); nop a
let bc1f a l = i a (Bc1f (Sym l)); nop a
let j_ a l = i a (J (Sym l)); nop a
let jal a l = i a (Jal (Sym l)); nop a
let jr_ a rs = i a (Jr rs); nop a
let jalr a rs = i a (Jalr (Reg.ra, rs)); nop a
let ret a = jr_ a Reg.ra

(* ------------------------------------------------------------------ *)
(* Pseudo-instructions                                                  *)

(* Load a 32-bit constant. Accepts any value in [-2^31, 2^32). *)
let li a rt v =
  let v32 = v land 0xFFFFFFFF in
  if v >= -32768 && v <= 32767 then addiu a rt Reg.zero v
  else if v32 land 0xFFFF = 0 then lui a rt (v32 lsr 16)
  else begin
    lui a rt (v32 lsr 16);
    ori a rt rt (v32 land 0xFFFF)
  end

(* Load the address of a symbol: lui %hi + ori %lo (zero-extending, so no
   sign-adjustment is needed). *)
let la a rt sym =
  i a (Lui (rt, Hi sym));
  i a (Alui (ORI, rt, rt, Lo sym))

(* ------------------------------------------------------------------ *)
(* Function scaffolding                                                 *)

(* [func a name ~frame ~saves body] defines a function with a stack frame:
   ra and the listed callee-saved registers are spilled at the top of the
   frame; [frame] extra bytes are reserved below them for locals. *)
let func a name ~frame ~saves body =
  let nsave = 1 + List.length saves in
  let size = frame + (nsave * 4) in
  let size = (size + 7) land lnot 7 in
  global a name;
  label a name;
  addiu a Reg.sp Reg.sp (-size);
  sw a Reg.ra (size - 4) Reg.sp;
  List.iteri (fun k r -> sw a r (size - 8 - (4 * k)) Reg.sp) saves;
  body ();
  label a (name ^ "$epilogue");
  lw a Reg.ra (size - 4) Reg.sp;
  List.iteri (fun k r -> lw a r (size - 8 - (4 * k)) Reg.sp) saves;
  i a (Jr Reg.ra);
  addiu a Reg.sp Reg.sp size (* delay slot *)

(* Leaf function: no frame, no saves. *)
let leaf a name body =
  global a name;
  label a name;
  body ();
  ret a

(* ------------------------------------------------------------------ *)
(* Data emitters                                                        *)

let dlabel a l = a.rev_data <- Objfile.Dlabel l :: a.rev_data
let word a v = a.rev_data <- Objfile.Dword v :: a.rev_data
let addr ?(addend = 0) a sym = a.rev_data <- Objfile.Daddr (sym, addend) :: a.rev_data
let bytes a s = a.rev_data <- Objfile.Dbytes s :: a.rev_data
let asciiz a s = a.rev_data <- Objfile.Dbytes (s ^ "\000") :: a.rev_data
let space a n = a.rev_data <- Objfile.Dspace n :: a.rev_data
let align a n = a.rev_data <- Objfile.Dalign n :: a.rev_data

let words a vs = List.iter (word a) vs

(* Emit a double constant as two data words (little-endian word order). *)
let double a f =
  let bits = Int64.bits_of_float f in
  word a (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  word a (Int64.to_int (Int64.logand (Int64.shift_right_logical bits 32) 0xFFFFFFFFL))
