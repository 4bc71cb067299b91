(** Trace parsing library (paper §3.3, §4.3).

    Consumes the in-kernel trace buffer (streamed in chunks, one per
    trace-analysis phase) and reconstructs the exact interleaved
    instruction and data reference stream of the original, uninstrumented
    binaries, using the static basic-block tables.

    Kernel trace is parsed with a stack of in-progress blocks so that
    nested exceptions (bracketed by EXC markers) interleave correctly; user
    trace arrives in DRAIN blocks and each process's parse state persists
    across drains, so blocks split by an exception reassemble.

    Defensive tracing: every block record must exist in the right address
    space's table, and data words must arrive exactly where the static
    record promises.  Violations surface two ways:

    - strict mode (the default) raises {!Corrupt} and discards the rest of
      the phase;
    - recovery mode ([create ~recover:true ()]) builds a structured
      {!error} (read back with {!errors}), abandons the suspect source
      state, resynchronizes at the next marker word, counts the skipped
      words per {!source}, and keeps parsing.  {!feed} never
      raises in recovery mode, whatever the input.

    {!feed} is allocation-free (sentinel open blocks, non-allocating
    table lookups, markers dispatched on their raw kind field, the
    innermost kernel source cached instead of read through the exception
    stack).  The variant-based marker dispatch that used to ship as a
    parallel "debug" word loop lives on as a qcheck oracle in the test
    suite: markers are a fraction of a percent of any real trace, so the
    duplicated loop could never be measured apart and was folded away. *)

exception Corrupt of string

(** Where a trace word was attributed when a violation fired. *)
type source =
  | Kernel of int  (** exception-nesting depth, 0 = base level *)
  | User of int  (** pid *)
  | Stream  (** framing: markers, drain counts, END *)

(** One defensive-tracing diagnosis. *)
type error = {
  at : int;  (** word index in the whole fed stream *)
  source : source;
  expected : string;  (** what the format promised at this point *)
  got : int;  (** the offending word (or count/pid for framing errors) *)
  in_drain : int;  (** enclosing drain's pid, -1 when outside a drain *)
  exc_depth : int;  (** kernel exception-nesting depth at the violation *)
  message : string;  (** the strict-mode {!Corrupt} message *)
}

val source_name : source -> string

val describe : error -> string
(** One-line rendering of a diagnosis: the strict-mode message plus the
    structured context. *)

type handlers = {
  on_inst : int -> int -> bool -> unit;
      (** [on_inst addr pid kernel]: one instruction fetch of the original
          binary. *)
  on_data : int -> int -> bool -> bool -> int -> unit;
      (** [on_data addr pid kernel is_load bytes]. *)
}

type stats = {
  mutable words : int;
  mutable bb_records : int;
  mutable markers : int;
  mutable insts : int;
  mutable user_insts : int;
  mutable kernel_insts : int;
  mutable datas : int;
  mutable user_datas : int;
  mutable kernel_datas : int;
  mutable idle_insts : int;
  mutable drains : int;
  mutable pid_switches : int;
  mutable exc_markers : int;
  mutable max_exc_depth : int;
  mutable mode_transitions : int;
  mutable analysis_mode_words : int;
  mutable ended : bool;
  mutable parse_errors : int;
      (** diagnoses recorded (recovery mode; always 0 in strict mode) *)
  mutable skipped_words : int;
      (** words discarded while resynchronizing after a diagnosis *)
}

val fresh_stats : unit -> stats

type t

val create : ?recover:bool -> kernel_bbs:Bbtable.t -> unit -> t
(** [recover] (default [false]) turns format violations into recorded
    {!error} diagnoses followed by resynchronization, instead of a
    {!Corrupt} exception. *)

val null_handlers : handlers
(** Handlers that ignore every reference: a parser's own until
    {!set_handlers}. *)

val set_handlers : t -> handlers -> unit

val register_pid : t -> pid:int -> Bbtable.t -> unit
(** Register the block table for one process's binary. *)

val stats : t -> stats

val errors : t -> error list
(** Diagnoses recorded so far, in stream order (recovery mode). *)

val skipped : t -> (source * int) list
(** Words discarded per source while recovering, including each offending
    word itself.  Sums to [(stats t).skipped_words]. *)

val feed : t -> int array -> len:int -> unit
(** Feed one chunk of trace words.  Strict mode raises {!Corrupt} (or
    {!Format_.Bad_marker}) on format violations; recovery mode records
    diagnoses and never raises. *)

val finish : ?live:int list -> t -> unit
(** End-of-run check: every source must have completed its last block,
    except processes in [live] (e.g. a server still blocked in receive
    when the machine halted).  Violations raise {!Corrupt} in strict
    mode and are recorded as diagnoses in recovery mode. *)

val scan : int array -> error list
(** Table-free structural validation of a stored trace: marker kinds,
    drain framing, exception bracketing, END placement — everything
    checkable without the static block tables.  Never raises; reports
    every violation it can see (the first only, for trailing garbage
    after END) and keeps going.  Used by [systrace check] on traces whose
    binaries are not at hand. *)

type scanner
(** {!scan}'s state machine, exposed so a stored trace can be scanned
    chunk by chunk (e.g. through [Tracefile.fold_words]) in bounded
    memory.  The carried state is exactly what the scan threads between
    words, so chunking cannot change the diagnoses: for any split,
    feeding the pieces yields the same list {!scan} gives the
    concatenation. *)

val scanner : unit -> scanner

val scan_feed : scanner -> int array -> len:int -> unit
(** Scan the next [len] words.  Never raises. *)

val scan_finish : scanner -> error list
(** Run the end-of-input checks (truncated drain, unexited exception
    levels) and return every diagnosis in stream order. *)
