(* Instruction set of the simulated machine.

   The ISA is MIPS-I-flavoured: 32-bit fixed-width instructions, one branch
   delay slot, software-managed TLB, coprocessor 0 for system control and
   coprocessor 1 for floating point.  Deviations from real MIPS-I (documented
   in DESIGN.md):
     - integer multiply/divide are three-operand register instructions with
       no HI/LO registers;
     - floating point registers are 16 double registers; FP loads/stores move
       a whole 8-byte double and count as a single memory reference;
     - [Mtc1] converts the signed integer in the GPR to a double, and [Mfc1]
       truncates, so no bit-level reinterpretation is needed;
     - [Hcall] is a privileged "hypercall" used by the kernel to talk to the
       host harness (analysis-mode trace consumption, shutdown, debug).

   Instructions carry symbolic operands ([Lo]/[Hi]/[Sym]) until link time;
   this is the symbol/relocation information that lets epoxie distinguish
   addresses from coincidentally similar constants (paper, section 3.2). *)

type alu =
  | ADD | ADDU | SUB | SUBU | AND | OR | XOR | NOR | SLT | SLTU
  | SLLV | SRLV | SRAV | MUL | MULH | DIV | REM

type alui = ADDI | ADDIU | SLTI | SLTIU | ANDI | ORI | XORI

type shift = SLL | SRL | SRA

type width = B | BU | H | HU | W

type fop = FADD | FSUB | FMUL | FDIV | FABS | FNEG | FMOV | CVTDW | TRUNCWD

type fcond = FEQ | FLT | FLE

type cp0 =
  | C0_index | C0_random | C0_entrylo | C0_context | C0_badvaddr
  | C0_count | C0_entryhi | C0_status | C0_cause | C0_epc | C0_prid

(* 16-bit immediate operand, possibly a symbolic half of an address. *)
type imm = Imm of int | Lo of string | Hi of string

(* Branch / jump target. *)
type target = Abs of int | Sym of string

type t =
  | Alu of alu * int * int * int          (* rd, rs, rt *)
  | Alui of alui * int * int * imm        (* rt, rs, imm *)
  | Shift of shift * int * int * int      (* rd, rt, sa *)
  | Lui of int * imm                      (* rt, imm *)
  | Load of width * int * int * imm       (* rt, base, offset *)
  | Store of width * int * int * imm      (* rt, base, offset *)
  | Fload of int * int * imm              (* ft, base, offset; 8 bytes *)
  | Fstore of int * int * imm             (* ft, base, offset; 8 bytes *)
  | Beq of int * int * target             (* rs, rt, target *)
  | Bne of int * int * target
  | Blez of int * target
  | Bgtz of int * target
  | Bltz of int * target
  | Bgez of int * target
  | J of target
  | Jal of target
  | Jr of int
  | Jalr of int * int                     (* rd, rs *)
  | Syscall
  | Break of int
  | Mfc0 of int * cp0                     (* rt <- cp0 *)
  | Mtc0 of int * cp0                     (* cp0 <- rt *)
  | Tlbr | Tlbwi | Tlbwr | Tlbp | Rfe
  | Mfc1 of int * int                     (* rt <- trunc(f[fs]) *)
  | Mtc1 of int * int                     (* f[fs] <- float(rt) *)
  | Fop of fop * int * int * int          (* fd, fs, ft *)
  | Fcmp of fcond * int * int             (* fs, ft; sets FP condition *)
  | Bc1t of target
  | Bc1f of target
  | Cache of int * int * imm              (* op, base, offset *)
  | Hcall of int                          (* host call, privileged *)

let nop = Shift (SLL, 0, 0, 0)

(* The special epoxie no-op: a load-immediate to $zero whose immediate field
   carries the number of trace words the basic block will generate. *)
let trace_count_nop n = Alui (ADDIU, 0, 0, Imm n)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let is_load = function Load _ | Fload _ -> true | _ -> false
let is_store = function Store _ | Fstore _ -> true | _ -> false
let is_mem i = is_load i || is_store i

(* Base register and offset of a memory instruction. *)
let mem_base_offset = function
  | Load (_, _, base, off) | Store (_, _, base, off)
  | Fload (_, base, off) | Fstore (_, base, off) -> Some (base, off)
  | _ -> None

let mem_bytes = function
  | Load (w, _, _, _) | Store (w, _, _, _) ->
    (match w with B | BU -> 1 | H | HU -> 2 | W -> 4)
  | Fload _ | Fstore _ -> 8
  | _ -> invalid_arg "Insn.mem_bytes: not a memory instruction"

(* Control transfers: every one of these has a single delay slot. *)
let is_control = function
  | Beq _ | Bne _ | Blez _ | Bgtz _ | Bltz _ | Bgez _
  | J _ | Jal _ | Jr _ | Jalr _ | Bc1t _ | Bc1f _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Register uses and definitions (GPRs only), for epoxie's register
   stealing rewrite.                                                   *)

let uses = function
  | Alu (_, _, rs, rt) -> [ rs; rt ]
  | Alui (_, _, rs, _) -> [ rs ]
  | Shift (_, _, rt, _) -> [ rt ]
  | Lui _ -> []
  | Load (_, _, base, _) -> [ base ]
  | Store (_, rt, base, _) -> [ rt; base ]
  | Fload (_, base, _) -> [ base ]
  | Fstore (_, base, _) -> [ base ]
  | Beq (rs, rt, _) | Bne (rs, rt, _) -> [ rs; rt ]
  | Blez (rs, _) | Bgtz (rs, _) | Bltz (rs, _) | Bgez (rs, _) -> [ rs ]
  | J _ | Jal _ -> []
  | Jr rs -> [ rs ]
  | Jalr (_, rs) -> [ rs ]
  | Syscall | Break _ -> []
  | Mfc0 _ -> []
  | Mtc0 (rt, _) -> [ rt ]
  | Tlbr | Tlbwi | Tlbwr | Tlbp | Rfe -> []
  | Mfc1 _ -> []
  | Mtc1 (rt, _) -> [ rt ]
  | Fop _ | Fcmp _ | Bc1t _ | Bc1f _ -> []
  | Cache (_, base, _) -> [ base ]
  | Hcall _ -> []

let defs = function
  | Alu (_, rd, _, _) -> [ rd ]
  | Alui (_, rt, _, _) -> [ rt ]
  | Shift (_, rd, _, _) -> [ rd ]
  | Lui (rt, _) -> [ rt ]
  | Load (_, rt, _, _) -> [ rt ]
  | Jal _ -> [ 31 ]
  | Jalr (rd, _) -> [ rd ]
  | Mfc0 (rt, _) -> [ rt ]
  | Mfc1 (rt, _) -> [ rt ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let alu_name = function
  | ADD -> "add" | ADDU -> "addu" | SUB -> "sub" | SUBU -> "subu"
  | AND -> "and" | OR -> "or" | XOR -> "xor" | NOR -> "nor"
  | SLT -> "slt" | SLTU -> "sltu" | SLLV -> "sllv" | SRLV -> "srlv"
  | SRAV -> "srav" | MUL -> "mul" | MULH -> "mulh" | DIV -> "div"
  | REM -> "rem"

let alui_name = function
  | ADDI -> "addi" | ADDIU -> "addiu" | SLTI -> "slti" | SLTIU -> "sltiu"
  | ANDI -> "andi" | ORI -> "ori" | XORI -> "xori"

let shift_name = function SLL -> "sll" | SRL -> "srl" | SRA -> "sra"

let width_name ~store = function
  | B -> if store then "sb" else "lb"
  | BU -> if store then "sb" else "lbu"
  | H -> if store then "sh" else "lh"
  | HU -> if store then "sh" else "lhu"
  | W -> if store then "sw" else "lw"

let fop_name = function
  | FADD -> "add.d" | FSUB -> "sub.d" | FMUL -> "mul.d" | FDIV -> "div.d"
  | FABS -> "abs.d" | FNEG -> "neg.d" | FMOV -> "mov.d"
  | CVTDW -> "cvt.d.w" | TRUNCWD -> "trunc.w.d"

let fcond_name = function FEQ -> "c.eq.d" | FLT -> "c.lt.d" | FLE -> "c.le.d"

let cp0_name = function
  | C0_index -> "index" | C0_random -> "random" | C0_entrylo -> "entrylo"
  | C0_context -> "context" | C0_badvaddr -> "badvaddr" | C0_count -> "count"
  | C0_entryhi -> "entryhi" | C0_status -> "status" | C0_cause -> "cause"
  | C0_epc -> "epc" | C0_prid -> "prid"

let imm_to_string = function
  | Imm n -> string_of_int n
  | Lo s -> Printf.sprintf "%%lo(%s)" s
  | Hi s -> Printf.sprintf "%%hi(%s)" s

let target_to_string = function
  | Abs a -> Printf.sprintf "0x%x" a
  | Sym s -> s

let to_string i =
  let r = Reg.name in
  let f = Reg.fname in
  match i with
  | Alu (op, rd, rs, rt) ->
    Printf.sprintf "%-8s%s, %s, %s" (alu_name op) (r rd) (r rs) (r rt)
  | Alui (op, rt, rs, im) ->
    Printf.sprintf "%-8s%s, %s, %s" (alui_name op) (r rt) (r rs)
      (imm_to_string im)
  | Shift (op, rd, rt, sa) ->
    if i = nop then "nop"
    else Printf.sprintf "%-8s%s, %s, %d" (shift_name op) (r rd) (r rt) sa
  | Lui (rt, im) -> Printf.sprintf "%-8s%s, %s" "lui" (r rt) (imm_to_string im)
  | Load (w, rt, base, off) ->
    Printf.sprintf "%-8s%s, %s(%s)" (width_name ~store:false w) (r rt)
      (imm_to_string off) (r base)
  | Store (w, rt, base, off) ->
    Printf.sprintf "%-8s%s, %s(%s)" (width_name ~store:true w) (r rt)
      (imm_to_string off) (r base)
  | Fload (ft, base, off) ->
    Printf.sprintf "%-8s%s, %s(%s)" "l.d" (f ft) (imm_to_string off) (r base)
  | Fstore (ft, base, off) ->
    Printf.sprintf "%-8s%s, %s(%s)" "s.d" (f ft) (imm_to_string off) (r base)
  | Beq (rs, rt, t) ->
    Printf.sprintf "%-8s%s, %s, %s" "beq" (r rs) (r rt) (target_to_string t)
  | Bne (rs, rt, t) ->
    Printf.sprintf "%-8s%s, %s, %s" "bne" (r rs) (r rt) (target_to_string t)
  | Blez (rs, t) -> Printf.sprintf "%-8s%s, %s" "blez" (r rs) (target_to_string t)
  | Bgtz (rs, t) -> Printf.sprintf "%-8s%s, %s" "bgtz" (r rs) (target_to_string t)
  | Bltz (rs, t) -> Printf.sprintf "%-8s%s, %s" "bltz" (r rs) (target_to_string t)
  | Bgez (rs, t) -> Printf.sprintf "%-8s%s, %s" "bgez" (r rs) (target_to_string t)
  | J t -> Printf.sprintf "%-8s%s" "j" (target_to_string t)
  | Jal t -> Printf.sprintf "%-8s%s" "jal" (target_to_string t)
  | Jr rs -> Printf.sprintf "%-8s%s" "jr" (r rs)
  | Jalr (rd, rs) -> Printf.sprintf "%-8s%s, %s" "jalr" (r rd) (r rs)
  | Syscall -> "syscall"
  | Break n -> Printf.sprintf "%-8s%d" "break" n
  | Mfc0 (rt, c) -> Printf.sprintf "%-8s%s, $%s" "mfc0" (r rt) (cp0_name c)
  | Mtc0 (rt, c) -> Printf.sprintf "%-8s%s, $%s" "mtc0" (r rt) (cp0_name c)
  | Tlbr -> "tlbr"
  | Tlbwi -> "tlbwi"
  | Tlbwr -> "tlbwr"
  | Tlbp -> "tlbp"
  | Rfe -> "rfe"
  | Mfc1 (rt, fs) -> Printf.sprintf "%-8s%s, %s" "mfc1" (r rt) (f fs)
  | Mtc1 (rt, fs) -> Printf.sprintf "%-8s%s, %s" "mtc1" (r rt) (f fs)
  | Fop (op, fd, fs, ft) ->
    Printf.sprintf "%-8s%s, %s, %s" (fop_name op) (f fd) (f fs) (f ft)
  | Fcmp (c, fs, ft) ->
    Printf.sprintf "%-8s%s, %s" (fcond_name c) (f fs) (f ft)
  | Bc1t t -> Printf.sprintf "%-8s%s" "bc1t" (target_to_string t)
  | Bc1f t -> Printf.sprintf "%-8s%s" "bc1f" (target_to_string t)
  | Cache (op, base, off) ->
    Printf.sprintf "%-8s%d, %s(%s)" "cache" op (imm_to_string off) (r base)
  | Hcall n -> Printf.sprintf "%-8s%d" "hcall" n

(* An instruction is resolved when it has no symbolic operands and can be
   encoded to binary. *)
let imm_resolved = function Imm _ -> true | Lo _ | Hi _ -> false
let target_resolved = function Abs _ -> true | Sym _ -> false

let resolved = function
  | Alui (_, _, _, im) | Lui (_, im)
  | Load (_, _, _, im) | Store (_, _, _, im)
  | Fload (_, _, im) | Fstore (_, _, im)
  | Cache (_, _, im) -> imm_resolved im
  | Beq (_, _, t) | Bne (_, _, t) | Blez (_, t) | Bgtz (_, t)
  | Bltz (_, t) | Bgez (_, t) | J t | Jal t | Bc1t t | Bc1f t ->
    target_resolved t
  | _ -> true
