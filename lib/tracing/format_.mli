(** Trace word format (paper §3.3).

    Every trace entry is a single 32-bit word, so one store instruction
    records a complete entry and entries stay contiguous without locks:

    - a word below [0x80000000] is a user basic-block record or user data
      address (disambiguated by parser state);
    - a kseg0/kseg2 word is a kernel record or kernel data address;
    - words in a reserved slice of kseg1 are markers written by the
      kernel: pid switches, drained user-trace blocks, exception nesting
      brackets, and trace-generation/analysis mode transitions. *)

type marker =
  | Pid_switch of int     (** kernel scheduled user process [pid] *)
  | Drain of int          (** next word = count, then count user words *)
  | Exc_enter of int      (** kernel interrupted by exception [code] *)
  | Exc_exit
  | Mode of int           (** 0 = trace-generation, 1 = trace-analysis *)
  | Trace_onoff of int
  | Thread_switch of int
  | End

val is_marker : int -> bool
val is_user_addr : int -> bool

val marker_word : marker -> int
(** Encode a marker as a trace word. *)

exception Bad_marker of int

val decode_marker : int -> marker
(** Raises {!Bad_marker} if the word is not in the marker range or has an
    unknown kind. *)

(** Marker kind codes, for tests and low-level writers. *)

val kind_pid : int
val kind_drain : int
val kind_exc_enter : int
val kind_exc_exit : int
val kind_mode : int
val kind_onoff : int
val kind_thread : int
val kind_end : int

val make_marker : int -> int -> int
(** [make_marker kind arg] builds a marker word from raw fields; [arg]
    must fit in 12 bits. *)

val marker_kind : int -> int
val marker_arg : int -> int
(** Raw kind/arg fields of a marker word, for the parser's
    allocation-free fast path ([decode_marker] without the variant). *)
