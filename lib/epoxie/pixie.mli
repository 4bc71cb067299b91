(** pixie-style instrumentation baseline (paper §3.2).

    pixie rewrites executables, without symbol/relocation information:
    address correction partly happens at run time and registers cannot be
    stolen, so every trace point spills and reloads registers around
    itself — the 4-6x text growth the paper contrasts with epoxie. *)

open Systrace_isa

val instrument_obj : Objfile.t -> first_id:int -> Objfile.t * int
(** Returns the rewritten module and the next free block id. *)

val instrument_modules : Objfile.t list -> Objfile.t list
(** Its text growth is measured with {!Epoxie.expansion}. *)
