(** Construction of the static basic-block lookup table for a traced
    program (paper §3.5): epoxie's descriptors are resolved against the
    linked instrumented and original executables. *)

open Systrace_isa
open Systrace_tracing

val build :
  instrumented:Exe.t ->
  original:Exe.t ->
  (string * Epoxie.bb_desc list) list ->
  Bbtable.t
(** [build ~instrumented ~original descs] requires both links to use the
    same module names; record addresses come from the instrumented image,
    original block addresses from the original one. *)
