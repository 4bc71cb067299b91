(** epoxie: link-time instrumentation for address tracing (paper §3.2).

    Rewrites object modules so that executing them generates an address
    trace: a three-instruction preamble at every basic block (save $ra,
    [jal bbtrace], a trace-word-count no-op in the delay slot) and a
    [jal memtrace] before every memory instruction of the original text,
    normally with the memory instruction riding in the delay slot.

    Because operands are still symbolic at this stage, all address
    correction implied by the text expansion happens statically in the
    linker — no runtime translation table, unlike pixie.  Text growth is
    1.9-2.3x for ordinary code.

    Functions in a module's [protected] set are register-steal-rewritten
    but not traced; [no_instrument] modules pass through untouched. *)

open Systrace_isa

(** Descriptor of one instrumented block, in terms of the ORIGINAL module:
    [anchor] labels the instrumented block body (the trace record address
    after linking); the rest describes the original block for the parsing
    library. *)
type bb_desc = {
  anchor : string;
  orig_index : int;
  ninsns : int;
  mems : (int * int * bool) array;
}

val sym_bbtrace : string
val sym_memtrace : string

val instrument_obj : Objfile.t -> Objfile.t * bb_desc list

val instrument_modules :
  Objfile.t list -> Objfile.t list * (string * bb_desc list) list
(** Instrument a set of modules; link the result together with the
    matching tracing runtime ({!Runtime.make}) and build the lookup table
    with {!Bbmap.build}. *)

val expansion : original:Objfile.t list -> instrumented:Objfile.t list -> float
(** Text growth factor. *)
