(** The trace-ingest daemon behind `systrace serve`.

    The paper's §4 bargain — analysis must keep pace with generation or
    references are lost — restated as a serving problem: many producers
    stream trace words at one daemon, which runs a per-connection
    analysis pipeline ({!Systrace_tracing.Sink}) online.  The server
    accepts streams over Unix-domain and loopback TCP sockets, spreads
    connections across worker domains, and per connection decodes
    batched socket reads straight into a bounded {!Bqueue} — no
    intermediate copies ({!Wire}) — then drains queued chunks through
    the pipeline.

    Flow control is the paper's, one level up.  Lossless (default): when
    a client outruns its pipeline the bounded queue fills and the server
    simply reads that socket more slowly — kernel socket buffers fill
    and the client blocks, exactly the generation phase suspending until
    ANALYZE catches up.  [lossy]: the server never stalls the client;
    words arriving against a full queue are discarded and counted
    per-stream (dropped words and dropped drains), the lost-reference
    accounting of paper §4.2.

    A control socket answers [stats] with aggregated counters — streams,
    per-stream loss, peak resident words, fault diagnoses, drain-latency
    percentiles — and [shutdown] with a graceful stop. *)

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
(** Ingest and discard — the decode/queue plumbing at full speed. *)

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
  queue_slots : int;  (** bounded-queue ring slots per connection *)
  slot_words : int;  (** words per slot; queue capacity = slots*words *)
  lossy : bool;  (** drop-and-count instead of backpressure *)
  pipeline : pipeline_factory;
}

val default_config : pipeline_factory -> config
(** No listeners configured (set at least one); 2 workers, 4 slots of
    16384 words (one v3 block resident per full queue), lossless.  Each
    connection reads the socket 256 KiB at a time. *)

(** Aggregated counters, as served on the control socket. *)
type snapshot = {
  streams_total : int;
  streams_active : int;
  streams_faulted : int;  (** wire fault or cut before END *)
  words_in : int;  (** decoded off the wire, dropped ones included *)
  words_analyzed : int;  (** delivered to pipelines *)
  words_dropped : int;  (** lossy mode: lost-reference count *)
  frames_in : int;
  frames_dropped : int;  (** frames that lost at least one word *)
  diagnoses : int;  (** wire + eof + pipeline diagnoses *)
  peak_resident_words : int;  (** max over streams of queue high-water *)
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
    @raise Invalid_argument if no listener is configured, or if
      [queue_slots < 2], [slot_words < 1] or [workers > max_workers];
      nothing is bound or spawned then.
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
