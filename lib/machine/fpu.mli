(** Floating-point latency model (scoreboard): per-register ready times
    and a pipelined unit; stalls are the paper's "arithmetic stalls".
    Expressed in absolute cycles, so FP latency overlaps memory stalls in
    the machine model. *)

type t = {
  ready : int array;
  mutable unit_free : int;
  mutable arith_stalls : int;
  mutable ops : int;
}

val latency : Systrace_isa.Insn.fop -> int

val create : unit -> t

val wait_regs : t -> now:int -> int list -> int
(** Stall until the listed FP registers are ready. *)

val issue : t -> now:int -> op:Systrace_isa.Insn.fop -> dst:int -> int
val issue_compare : t -> now:int -> int
val set_ready : t -> now:int -> int -> unit
