(** Assembler eDSL.

    The kernel, the tracing runtime and all workloads are written against
    this module; it accumulates text and data items into an
    {!Objfile.t}.  Convenience control-transfer emitters append a [nop]
    delay slot; performance-sensitive code fills delay slots explicitly
    with {!i}, the raw instruction emitter. *)

type t

val create : ?no_instrument:bool -> string -> t
(** [create name] starts an empty module; [~no_instrument:true] marks it
    as part of the tracing system (epoxie passes it through). *)

val global : t -> string -> unit
(** Export a label to other modules. *)

val protect : t -> string -> unit
(** Mark a function as too delicate for epoxie to instrument (it is still
    register-steal-rewritten). *)

val label : t -> string -> unit
val fresh_label : t -> string -> string
val i : t -> Insn.t -> unit

val insn_count : t -> int
val pad_to : t -> int -> unit
(** Pad with nops to a fixed instruction count — used to place exception
    vectors at fixed offsets. *)

val to_obj : t -> Objfile.t
(** Runs {!Objfile.validate}. *)

(** {2 Instruction emitters}

    Thin wrappers around {!i}; operand order follows the assembly syntax
    ([lw rt, off(base)] is [lw a rt off base]). *)

val nop : t -> unit
val add : t -> int -> int -> int -> unit
val addu : t -> int -> int -> int -> unit
val subu : t -> int -> int -> int -> unit
val and_ : t -> int -> int -> int -> unit
val or_ : t -> int -> int -> int -> unit
val xor_ : t -> int -> int -> int -> unit
val slt : t -> int -> int -> int -> unit
val sltu : t -> int -> int -> int -> unit
val mul : t -> int -> int -> int -> unit
val div_ : t -> int -> int -> int -> unit
val rem_ : t -> int -> int -> int -> unit
val sllv : t -> int -> int -> int -> unit
val srlv : t -> int -> int -> int -> unit
val addiu : t -> int -> int -> int -> unit
val andi : t -> int -> int -> int -> unit
val ori : t -> int -> int -> int -> unit
val xori : t -> int -> int -> int -> unit
val slti : t -> int -> int -> int -> unit
val sltiu : t -> int -> int -> int -> unit
val sll : t -> int -> int -> int -> unit
val srl : t -> int -> int -> int -> unit
val sra : t -> int -> int -> int -> unit
val lui : t -> int -> int -> unit
val lw : t -> int -> int -> int -> unit
val lh : t -> int -> int -> int -> unit
val lhu : t -> int -> int -> int -> unit
val lb : t -> int -> int -> int -> unit
val lbu : t -> int -> int -> int -> unit
val sw : t -> int -> int -> int -> unit
val sh : t -> int -> int -> int -> unit
val sb : t -> int -> int -> int -> unit
val ld : t -> int -> int -> int -> unit
val sd : t -> int -> int -> int -> unit
val move : t -> int -> int -> unit
val mfc0 : t -> int -> Insn.cp0 -> unit
val mtc0 : t -> int -> Insn.cp0 -> unit
val mfc1 : t -> int -> int -> unit
val mtc1 : t -> int -> int -> unit
val fadd : t -> int -> int -> int -> unit
val fsub : t -> int -> int -> int -> unit
val fmul : t -> int -> int -> int -> unit
val fdiv : t -> int -> int -> int -> unit
val fmov : t -> int -> int -> unit
val cvtdw : t -> int -> int -> unit
val truncwd : t -> int -> int -> unit
val fcmp : t -> Insn.fcond -> int -> int -> unit
val syscall : t -> unit
val tlbwr : t -> unit
val tlbwi : t -> unit
val tlbp : t -> unit
val tlbr : t -> unit
val rfe : t -> unit
val hcall : t -> int -> unit

(** {2 Control transfers (automatic nop delay slot)} *)

val beq : t -> int -> int -> string -> unit
val bne : t -> int -> int -> string -> unit
val beqz : t -> int -> string -> unit
val bnez : t -> int -> string -> unit
val blez : t -> int -> string -> unit
val bgtz : t -> int -> string -> unit
val bltz : t -> int -> string -> unit
val bgez : t -> int -> string -> unit
val bc1t : t -> string -> unit
val bc1f : t -> string -> unit
val j_ : t -> string -> unit
val jal : t -> string -> unit
val jr_ : t -> int -> unit
val jalr : t -> int -> unit
val ret : t -> unit

(** {2 Pseudo-instructions} *)

val li : t -> int -> int -> unit
(** Load a 32-bit constant (1-2 instructions). *)

val la : t -> int -> string -> unit
(** Load a symbol's address: [lui %hi] + [ori %lo]. *)

(** {2 Function scaffolding} *)

val func : t -> string -> frame:int -> saves:int list -> (unit -> unit) -> unit
(** [func a name ~frame ~saves body]: a global function with a stack
    frame spilling $ra and [saves]; an epilogue label [name$epilogue] is
    available as an early-exit target. *)

val leaf : t -> string -> (unit -> unit) -> unit
(** Frameless global function ending in [jr $ra]. *)

(** {2 Data emitters} *)

val dlabel : t -> string -> unit
val word : t -> int -> unit
val words : t -> int list -> unit
val addr : ?addend:int -> t -> string -> unit
val bytes : t -> string -> unit
val asciiz : t -> string -> unit
val space : t -> int -> unit
val align : t -> int -> unit
val double : t -> float -> unit
(** A float constant as two little-endian data words. *)
