(** Wire framing for trace streams over a socket (`systrace serve`).

    A stream is a 4-byte magic followed by frames; every unit on the wire
    is a 4-byte little-endian word, so the decoder never has to reframe
    at odd granularities.  A frame is one header word — kind in the top
    byte, word count in the low 24 bits — followed by that many trace
    words.  Kind 0 carries words (a client-side drain, the serving analog
    of one ANALYZE phase); kind 1 with count 0 is the END frame, after
    which the server hands its pipeline the last words and replies with
    a summary line.

    The decoder is incremental and copy-free: {!decode} consumes raw
    socket bytes and writes trace words straight into a caller-supplied
    destination — in the server, the connection's chunk — so a batched
    read becomes the pipeline's chunk words with no intermediate array.
    Partial words and headers split across reads are carried in the
    decoder (at most 3 bytes), so feeding any byte-level re-chunking of a
    stream decodes to the identical word sequence.

    Malformed input never raises: protocol violations surface as a sticky
    {!error} ({!status} [Fault]), and a connection cut at an arbitrary
    byte boundary is classified after the fact by {!eof_error} — the
    defensive-tracing stance of paper §4.3 applied to the serving seam. *)

val magic : int
(** Stream magic, sent as one little-endian word ("SRV1"). *)

val max_frame_words : int
(** Largest word count one frame can carry (2^24 - 1). *)

(** One structured wire diagnosis. *)
type error = {
  at : int;  (** byte offset in the stream where the violation fired *)
  state : string;  (** what the decoder was reading *)
  message : string;
}

val describe : error -> string

type status =
  | Need_more  (** source exhausted mid-stream; feed more bytes *)
  | Dst_full  (** destination filled; provide fresh space and continue *)
  | Stream_end  (** the END frame was decoded; the stream is complete *)
  | Fault of error  (** protocol violation; sticky — decoding is over *)

type decoder

val decoder : unit -> decoder

val decode :
  decoder ->
  src:Bytes.t ->
  src_pos:int ref ->
  src_len:int ->
  dst:int array ->
  dst_pos:int ref ->
  dst_len:int ->
  status
(** Consume bytes [src.(!src_pos .. src_len-1)] (advancing [src_pos]) and
    write decoded trace words to [dst.(!dst_pos .. dst_len-1)] (advancing
    [dst_pos]), stopping at the first of: source exhausted, destination
    full, the END frame, or a protocol fault; frame boundaries do not
    stop it.  Total on any byte sequence; never raises.  After
    [Stream_end], further bytes are themselves a fault (trailing
    garbage).  Words are the full 32-bit range; the decoder applies no
    trace-format interpretation — that is the downstream pipeline's
    job. *)

val words : decoder -> int
(** Trace words decoded so far (delivered to any destination). *)

val frames : decoder -> int
(** Words frames completed so far (the END frame is not counted). *)

val bytes : decoder -> int
(** Bytes consumed so far. *)

val ended : decoder -> bool
(** The END frame was seen. *)

val fault : decoder -> error option
(** The sticky fault, if any. *)

val eof_error : decoder -> error option
(** Classify end-of-input: [None] after a clean END frame, otherwise the
    structured diagnosis for the cut — before/inside the magic, inside a
    frame header (or: closed without an END frame), or mid-frame with the
    word shortfall.  Use when the peer closes the connection. *)

(** {1 Encoding}

    One frame writer serves the client and {!encode}: it writes the
    magic, frame headers, trace words and the END frame as 4-byte
    little-endian units straight into a caller-supplied byte buffer,
    and hands the buffer's bytes to a flush function whenever the next
    unit does not fit, so a stream of any length goes out through one
    reused buffer. *)

type writer

val writer :
  ?frame_words:int -> Bytes.t -> flush:(Bytes.t -> int -> unit) -> writer
(** Begin a stream in [buf] and write its magic.  [flush buf n] must
    take the first [n] bytes of [buf] (the client writes them to its
    socket); the writer calls it whenever [buf] is full and at {!close}.
    One {!write} range goes out in frames of at most [frame_words]
    (default 65536) words.
    @raise Invalid_argument if [frame_words] is outside
      [1, {!max_frame_words}] or [buf] is shorter than 4 bytes. *)

val write : writer -> int array -> off:int -> len:int -> unit
(** Write words [off .. off+len-1] as one or more frames.
    @raise Invalid_argument if the range is outside the array, or on a
      word outside the 32-bit range, naming its index: a corrupt
      in-memory buffer must not leave the machine looking valid. *)

val close : writer -> unit
(** Write the END frame and flush. *)

val encode : ?frame_words:int -> int array -> string
(** A whole stream — magic, frames of at most [frame_words] (default
    65536), END — as one string, through one {!writer} on a buffer
    sized to hold it.  For tests and fault-injection clients that need
    byte-level control (e.g. cutting the stream at an arbitrary
    offset). *)
