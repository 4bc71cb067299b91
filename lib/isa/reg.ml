(* General-purpose register numbering and the MIPS-flavoured software
   calling convention used throughout the kernel and workloads.

   r26/r27 (k0/k1) are reserved for exception handlers and are never used by
   compiled (eDSL) code, mirroring the real MIPS convention the tracing
   system depends on: the exception stubs may clobber them at any moment. *)

type t = int (* 0..31 *)

let zero = 0
let at = 1 (* assembler temporary; used by register-stealing rewrites *)
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let t0 = 8
let t1 = 9
let t2 = 10
let t3 = 11
let t4 = 12
let t5 = 13
let t6 = 14
let t7 = 15
let s0 = 16
let s1 = 17
let s2 = 18
let s3 = 19
let s4 = 20
let s5 = 21
let s6 = 22
let s7 = 23
let t8 = 24
let t9 = 25
let k0 = 26
let k1 = 27
let gp = 28
let sp = 29
let fp = 30
let ra = 31

let names =
  [| "zero"; "at"; "v0"; "v1"; "a0"; "a1"; "a2"; "a3";
     "t0"; "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7";
     "s0"; "s1"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
     "t8"; "t9"; "k0"; "k1"; "gp"; "sp"; "fp"; "ra" |]

let name r =
  if r < 0 || r > 31 then invalid_arg "Reg.name"
  else "$" ^ names.(r)

let is_valid r = r >= 0 && r <= 31

(* Registers that eDSL-compiled code may use freely.  k0/k1 belong to the
   exception stubs.  [at] is reserved for the assembler (and for epoxie's
   register-stealing rewrites). *)
let allocatable r = is_valid r && r <> k0 && r <> k1 && r <> at && r <> zero

(* Floating-point registers: 16 double registers f0..f15. *)
type f = int

let nfregs = 16
let fname f =
  if f < 0 || f >= nfregs then invalid_arg "Reg.fname"
  else Printf.sprintf "$f%d" f
