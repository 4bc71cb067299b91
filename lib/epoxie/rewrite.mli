(** Pre-instrumentation rewriting: delay-slot hoisting and register
    stealing (paper §3.5).

    Uses of the three stolen registers are replaced with sequences using
    shadow values in the bookkeeping area; $at is the designated scratch
    (dead across instructions by convention) and $v1 is borrowed — never
    $ra, whose value the tracing runtime restores — when a second scratch
    is needed.  Instructions that cannot be rewritten raise
    {!Unrewritable} with an explanation. *)

open Systrace_isa

exception Unrewritable of string

(** Items tagged with provenance: [true] = instruction of the original
    program (its memory references are traced); [false] = inserted by the
    tracing system. *)
type titem =
  | TLabel of string
  | TInsn of Insn.t * bool

val untag_items : titem list -> Objfile.titem list

val rewrite : titem list -> titem list
(** Move steal-needing or memory instructions out of delay slots (legal
    when the branch reads nothing the slot writes), then replace every
    use of a stolen register. *)
