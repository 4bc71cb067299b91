(** Streaming trace consumers (paper §4.3).

    The traced system alternates trace-generation and trace-analysis
    phases over a bounded in-kernel buffer; a whole trace never exists
    in one place.  A sink is the analysis side of that contract: it
    receives each ANALYZE phase's words as they are drained and is told
    when the run is over, so every consumer — parser, simulator, disk
    writer, counter — works online in O(chunk) memory instead of over a
    materialized O(trace) array.

    Sinks compose: {!tee} fans one stream out to several consumers in
    order (parse + count + write to disk in one pass), and the
    constructors below cover the common endpoints.  The materializing
    {!to_array} is the compatibility sink for consumers that genuinely
    need the whole trace (e.g. replaying one capture under many cache
    configurations). *)

type t = {
  on_words : int array -> len:int -> unit;
      (** Receives [words.(0 .. len-1)], one call per ANALYZE phase.
          The array is borrowed for the duration of the call: producers
          may reuse it, so a sink must copy what it keeps. *)
  finish : unit -> unit;
      (** The run is over; flush, close, or run end-of-stream checks.
          Called once, after the final chunk. *)
}

val make : ?finish:(unit -> unit) -> (int array -> len:int -> unit) -> t
(** [make on_words] with a no-op [finish] by default. *)

val null : t
(** Discards everything. *)

val tee : t list -> t
(** Fan-out: every chunk goes to every sink, in list order, so each
    branch sees the identical word sequence.  [finish] runs every
    branch's [finish] even if one raises — a failing parser must not
    leave a file sink unclosed — then re-raises the first exception. *)

val batching : ?words:int -> t -> t
(** [batching ~words sink] coalesces small chunks into batches of up to
    [words] (default 65536) before forwarding, so a consumer with
    per-call overhead (file writer, parser) sees a few big chunks
    instead of many small ANALYZE-phase ones.  Chunks of [words] or more
    are passed through directly after a flush, so the forwarded word
    sequence is always identical to the input sequence.  [finish]
    flushes the remainder, then finishes [sink].  Raises
    [Invalid_argument] if [words < 1]. *)

val counting : unit -> t * (unit -> int)
(** A sink that counts words, and the read side of the counter. *)

val peak : unit -> t * (unit -> int)
(** Records the largest single chunk delivered — the peak resident
    trace words of a streamed run (the materialized equivalent is the
    whole trace length). *)

val to_parser : ?live:int list -> Parser.t -> t
(** Feeds chunks to {!Parser.feed}; [finish] runs
    [Parser.finish ?live].  Attach handlers to the parser first to
    drive a simulator online during generation. *)

val to_array : unit -> t * (unit -> int array)
(** The compatibility sink: copies every chunk and hands back the
    concatenation — deliberately O(trace) memory. *)

val to_file : ?compress:bool -> string -> t
(** Streams chunks to a trace file through {!Tracefile.open_writer},
    coalescing small chunks with {!batching}; [finish] flushes and
    closes it (patching the header word count).  Memory stays bounded
    by the batch either way; [~compress:true] writes the indexed
    version-3 format block by block. *)
