(** Mahler-style instrumentation: the Tunix/Titan system (paper §3.4).

    Registers are RESERVED at code generation time rather than stolen, so
    trace writes are short inline sequences with no hazard cases; block
    records carry the block length inline (two words), the format §3.5
    replaced with one-word records plus a static table. *)

open Systrace_isa
open Systrace_tracing

exception Reserved_register_used of string
(** Raised when code violates the Tunix compiler contract: a reserved
    register ($t7-$t9, $at) is used, or a memory instruction sits in a
    delay slot. *)

type bb_desc = Epoxie.bb_desc
(** The same descriptor as epoxie's, so {!Bbmap.build} makes the table. *)

val instrument_obj : Objfile.t -> Objfile.t * bb_desc list

val instrument_modules :
  Objfile.t list -> Objfile.t list * (string * bb_desc list) list

(** {2 Tunix trace parsing} *)

exception Corrupt of string

type stats = {
  mutable insts : int;
  mutable datas : int;
  mutable records : int;
}

val parse :
  table:Bbtable.t ->
  int array ->
  on_inst:(int -> unit) ->
  on_data:(int -> bool -> unit) ->
  stats
(** Parse a Tunix-format trace; the inline length words are validated
    against the table (part of the format's redundancy). *)
