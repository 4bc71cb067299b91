(** The trace-ingest daemon behind `systrace serve`.

    The paper's §4 bargain — analysis must keep pace with generation —
    restated as a serving problem: many producers stream trace words at
    one daemon, which runs a per-connection analysis pipeline
    ({!Systrace_tracing.Sink}) online.  The server accepts streams over
    Unix-domain and loopback TCP sockets, spreads connections across
    worker domains, and per connection decodes batched socket reads
    straight into one chunk of at most 16384 words — no intermediate
    copies ({!Wire}) — handing the chunk to the pipeline each time it
    fills and once more when the read is used up.

    Flow control is the paper's, one level up: the traced system never
    loses a reference, because generation stops until ANALYZE has
    drained the buffer (§4.2–4.3).  A worker reads a connection's socket
    again only after the pipeline has taken every word of the previous
    read, so when a client outruns its pipeline the kernel socket
    buffers fill and the client blocks.  No word is dropped.

    A control socket answers [stats] with aggregated counters — streams,
    words in and analyzed, peak resident words, fault diagnoses,
    drain-latency percentiles — and [shutdown] with a graceful stop. *)

(** One connection's analysis side: a sink fed the decoded word chunks,
    and a count of pipeline-level diagnoses to fold into the stream's
    reply (stable once the sink's [finish] has run). *)
type pipeline = {
  sink : Systrace_tracing.Sink.t;
  diagnoses : unit -> int;
}

type pipeline_factory = unit -> pipeline
(** Called once per accepted stream, on that stream's worker domain.
    Anything shared across factory results must be domain-safe. *)

val null_pipeline : pipeline_factory
(** Ingest and discard — the read/decode plumbing at full speed. *)

val scan_pipeline : pipeline_factory
(** Structural trace check: {!Systrace_tracing.Parser.scanner} per
    stream; diagnoses are the scan's end-of-stream error count. *)

val to_parser_pipeline :
  (unit -> Systrace_tracing.Parser.t) -> pipeline_factory
(** Full parse per stream; diagnoses are the parser's [parse_errors]
    after [finish].  The argument builds each stream's parser (recover
    mode recommended — a strict parser's exception faults the stream). *)

type config = {
  unix_path : string option;  (** Unix-domain listener (unlinked first) *)
  tcp : (string * int) option;  (** TCP listener; port 0 = ephemeral *)
  ctl_path : string option;  (** control socket ([stats] / [shutdown]) *)
  workers : int;  (** worker domains (clamped to at least 1) *)
  pipeline : pipeline_factory;
}

val default_config : pipeline_factory -> config
(** No listeners configured (set at least one); 2 workers.  Each
    connection reads the socket 64 KiB at a time and hands its pipeline
    chunks of at most 16384 words. *)

(** Aggregated counters, as served on the control socket. *)
type snapshot = {
  streams_total : int;
  streams_active : int;
  streams_faulted : int;  (** wire fault or cut before END *)
  words_in : int;  (** decoded off the wire *)
  words_analyzed : int;
      (** delivered to pipelines: every decoded word, so [words_in] *)
  words_dropped : int;
      (** always 0: no word is dropped.  Kept, with [frames_dropped], so
          that readers of the [stats] reply still find the field. *)
  frames_in : int;
  frames_dropped : int;  (** always 0 *)
  diagnoses : int;  (** wire + eof + pipeline diagnoses *)
  peak_resident_words : int;
      (** the largest chunk handed to a pipeline (at most 16384) *)
  drains : int;  (** chunk deliveries to pipelines *)
  drain_p50 : float;  (** seconds in the pipeline per delivery *)
  drain_p99 : float;
  drain_max : float;
}

val render : snapshot -> string
(** One [key value] line per field — the [stats] reply text. *)

type t

val max_workers : int
(** The most worker domains {!start} accepts (64), well inside the
    runtime's domain limit. *)

val start : config -> t
(** Bind the configured listeners, spawn the acceptor and worker
    domains, and return immediately.  Ignores [SIGPIPE] process-wide (a
    dying client must not kill the daemon).
    @raise Invalid_argument if no listener is configured or if
      [workers > max_workers]; nothing is bound or spawned then.
    @raise Unix.Unix_error if a bind fails (e.g. path in use). *)

val tcp_port : t -> int option
(** The bound TCP port — the actual one when the config said 0. *)

val stats : t -> snapshot

val wait : t -> unit
(** Join all domains (after {!stop} or a control-socket [shutdown]),
    then close listeners and unlink socket paths. *)

val stop : t -> unit
(** Ask every domain to finish in-flight streams and exit (listeners
    stop accepting at once), then {!wait}. *)
