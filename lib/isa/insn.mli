(** Instruction set of the simulated machine.

    MIPS-I-flavoured: 32-bit fixed-width instructions, one branch delay
    slot, software-managed TLB (CP0), floating point (CP1).  Documented
    deviations from real MIPS-I are listed in the implementation header
    and DESIGN.md.

    Instructions carry symbolic operands ([Lo]/[Hi]/[Sym]) until link
    time — the symbol/relocation information that lets epoxie distinguish
    addresses from coincidentally similar constants (paper §3.2). *)

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

(** 16-bit immediate, possibly a symbolic half of an address. [Lo] is only
    legal in zero-extending contexts (ORI/ANDI/XORI); the linker enforces
    this. *)
type imm = Imm of int | Lo of string | Hi of string

type target = Abs of int | Sym of string

type t =
  | Alu of alu * int * int * int          (** rd, rs, rt *)
  | Alui of alui * int * int * imm        (** rt, rs, imm *)
  | Shift of shift * int * int * int      (** rd, rt, sa *)
  | Lui of int * imm
  | Load of width * int * int * imm       (** rt, base, offset *)
  | Store of width * int * int * imm
  | Fload of int * int * imm              (** ft, base, offset; 8 bytes *)
  | Fstore of int * int * imm
  | Beq of int * int * target
  | Bne of int * int * target
  | Blez of int * target
  | Bgtz of int * target
  | Bltz of int * target
  | Bgez of int * target
  | J of target
  | Jal of target
  | Jr of int
  | Jalr of int * int                     (** rd, rs *)
  | Syscall
  | Break of int
  | Mfc0 of int * cp0
  | Mtc0 of int * cp0
  | Tlbr | Tlbwi | Tlbwr | Tlbp | Rfe
  | Mfc1 of int * int
  | Mtc1 of int * int
  | Fop of fop * int * int * int          (** fd, fs, ft *)
  | Fcmp of fcond * int * int
  | Bc1t of target
  | Bc1f of target
  | Cache of int * int * imm              (** op, base, offset *)
  | Hcall of int                          (** host hypercall (privileged) *)

val nop : t

val trace_count_nop : int -> t
(** The special epoxie no-op: a load-immediate to $zero whose immediate
    carries the number of trace words the block generates. *)

(** {2 Classification} *)

val is_load : t -> bool
val is_mem : t -> bool

val mem_base_offset : t -> (int * imm) option
val mem_bytes : t -> int
(** Raises [Invalid_argument] on a non-memory instruction. *)

val is_control : t -> bool
(** Every control transfer has a single delay slot. *)

(** {2 Register uses and definitions (GPRs), for register stealing} *)

val uses : t -> int list
val defs : t -> int list

(** {2 Pretty printing and linking support} *)

val to_string : t -> string
val resolved : t -> bool
(** No symbolic operands remain: the instruction can be encoded. *)
