(** Client side of the serve wire protocol: stream trace words at a
    daemon and read back its summary reply.  Used by the CLI's
    [--send] mode, the loopback load-generator bench, and the
    fault-injection test suite ({!send_raw} gives byte-level control
    for torn-frame experiments). *)

type addr = Unix_path of string | Tcp of string * int

val connect : addr -> Unix.file_descr
(** A connected blocking socket.  @raise Unix.Unix_error on refusal. *)

(** An open outgoing stream: one 1 MiB byte buffer, which
    {!Wire.writer} fills with the magic, frame headers and words and
    writes to the socket whenever it is full. *)
type stream

val start : Unix.file_descr -> stream
(** Begin a stream on a connected socket.  One {!send} range is split
    into frames of at most 65536 words. *)

val send : stream -> int array -> off:int -> len:int -> unit
(** Stream [len] words as one or more frames — the client-side drain.
    @raise Invalid_argument on a word outside the 32-bit range
      ({!Wire.write}). *)

(** The server's end-of-stream summary line, parsed. *)
type reply = {
  r_words : int;
  r_frames : int;
  r_dropped_words : int;
      (** always 0, as is [r_dropped_frames]: the server drops no word.
          The reply line keeps both fields for the clients that parse
          it. *)
  r_dropped_frames : int;
  r_diagnoses : int;
}

val finish_stream : stream -> reply option
(** Flush, send END, half-close the write side, and read the reply:
    [Some r] on an [ok] line, [None] if the server reported a wire
    fault or the connection died first.  Closes the socket. *)

val run : addr -> int array -> reply option
(** Connect, stream the whole array, finish.  One bench client. *)

val run_file : addr -> string -> reply option
(** {!run} with the words of a trace file ({!Systrace_tracing.Tracefile}
    load — any version), streamed chunk by chunk without materializing
    more than one block beyond the frame buffer. *)

val send_raw : addr -> string -> string option
(** Fault-injection client: connect, write exactly these bytes (any
    prefix/mangling of a valid stream), half-close, and return the
    server's raw reply line if one comes back.  Closes the socket. *)
