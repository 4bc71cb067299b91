(** Register numbering and the software calling convention.

    $k0/$k1 are reserved for exception stubs; $at for the assembler and
    epoxie's rewrites; $t7-$t9 are the registers the tracing system steals
    (see [Systrace_tracing.Abi]). *)

type t = int

val zero : t
val at : t
val v0 : t
val v1 : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t
val t0 : t
val t1 : t
val t2 : t
val t3 : t
val t4 : t
val t5 : t
val t6 : t
val t7 : t
val s0 : t
val s1 : t
val s2 : t
val s3 : t
val s4 : t
val s5 : t
val s6 : t
val s7 : t
val t8 : t
val t9 : t
val k0 : t
val k1 : t
val gp : t
val sp : t
val fp : t
val ra : t

val name : t -> string
val allocatable : t -> bool

(** Floating-point registers (16 double registers). *)

type f = int

val nfregs : int
val fname : f -> string
