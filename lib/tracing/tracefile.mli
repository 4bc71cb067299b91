(** On-disk trace files — the "traces on tape" of the paper's §3.4, for
    sharing and offline replay studies.  Three wire formats: raw words
    (version 1, read-only), {!Compress} delta/varint (version 2,
    read-only), and indexed self-contained compressed blocks (version 3
    — seekable, semantically preconditioned).  One streaming writer
    writes version 3, so every file it makes can be sought through its
    index; {!fold_words} reads all three, and {!load} is a whole-file
    fold, so v1/v2 files keep loading byte-identically. *)

exception Bad_file of string

val max_words : int
(** Hard cap on the stored word count (2^26, matching
    [Compress.decode]'s bound) — far beyond any real capture, so a
    corrupt header cannot force an oversized allocation. *)

val v3_block_words : int
(** Words per version-3 block (65536).  Each block compresses
    independently — own codec byte, fresh predictors, own CRC — so
    blocks seek and decode in isolation.  The writer packs every block
    with the semantic codec, or raw words when that is smaller; the
    reader also decodes the delta/varint blocks of earlier writers. *)

val save : string -> int array -> unit
(** Write a captured trace through the streaming writer in one chunk, as
    indexed blocks (version 3, typically 4-100x smaller than the raw
    words on real system traces).
    @raise Invalid_argument naming the offending index if any word is
    outside the 32-bit trace-word range (a corrupted in-memory buffer
    must not round-trip into a "valid" file); the check runs before the
    file is created. *)

val load : string -> int array
(** Read back any format: {!fold_words} over the whole file, collected
    into one array.  On ANY byte sequence this either returns a word
    array or raises {!Bad_file} — never [End_of_file],
    [Invalid_argument], or an attacker-sized allocation; header counts
    are checked against {!max_words} and the actual file size before any
    buffer is allocated, and a v3 file's index and per-block CRCs are
    verified before its blocks are decoded (fuzzed in the test suite).
    @raise Bad_file on bad magic, version, truncation, oversized or
    lying counts, index inconsistency (overlapping or gapped blocks,
    offsets past EOF, CRC mismatch), or corrupt payload. *)

(** {1 Streaming interfaces}

    {!save}/{!load} materialize the whole word array; the streaming
    pipeline must not.  The writer accepts ANALYZE-phase chunks as they
    arrive; the reader folds over a stored file chunk by chunk.  Peak
    memory on both sides is O(chunk), not O(trace). *)

type writer

val open_writer : string -> writer
(** Start a version-3 trace file (the header's counts are patched on
    close, so the destination must be seekable — a regular file, not a
    pipe).  It is compressed incrementally: a self-contained block every
    {!v3_block_words} words, and the index appended as a trailer on
    close.  Block boundaries depend only on the word stream, never on
    call chunking, so the streamed file is byte-identical to [save] of
    the concatenation. *)

val write : writer -> int array -> len:int -> unit
(** Append [words.(0 .. len-1)].  The array is consumed before return
    and never retained.
    @raise Invalid_argument on a word outside the 32-bit trace-word
    range (named by its stream index), on exceeding {!max_words}, or if
    the writer is closed. *)

val close_writer : writer -> int
(** Flush the pending block, write the v3 index trailer, patch the
    header counts, close the file; returns the total words written.
    Idempotent.  A writer closed after zero words produces a valid
    empty trace file (a header plus an empty index trailer) that
    round-trips through {!load} and {!fold_words}. *)

val fold_words :
  ?chunk_words:int ->
  ?from:int ->
  ?until:int ->
  string ->
  init:'a ->
  f:('a -> int array -> len:int -> 'a) ->
  'a
(** Fold [f] over a stored trace's words in chunks of at most
    [chunk_words] (default 65536), for every format — the one reader
    behind {!load}, with the same totality contract: any malformed input
    raises {!Bad_file} (possibly after some chunks were already
    delivered — a corrupt tail is only discovered when reached).  The
    chunk array is reused between calls; [f] must copy what it keeps.
    Exceptions raised by [f] itself propagate unchanged.

    [?from]/[?until] (word indices, default the whole trace, clamped to
    the stored count) restrict the fold to the window [from, until):
    v1 files seek straight to the window, v3 files seek to the covering
    block via the index, v2 files decode from the start but emit only
    the window and stop at [until].  With a window, bytes past what the
    fold needed are not read, so corruption beyond the window goes
    undetected — use {!load} or a full fold to audit a file.
    @raise Bad_file as {!load}.
    @raise Invalid_argument on a negative [from], [until < from], or
    non-positive [chunk_words]. *)

val slice : ?from:int -> ?until:int -> string -> string -> int
(** [slice ?from ?until src dst] extracts the window [from, until) of a
    stored trace into a fresh version-3 trace file, decoding only the
    covering blocks (the [systrace slice] back end).  Returns the
    number of words written.  A failed slice leaves no partial trace
    behind: when [dst] is absent or a plain file, the trace is written
    to a temporary file in [dst]'s directory and renamed over [dst] only
    after the last word, so on any exception [dst] is left as it was
    (absent, or its old contents) and the temporary file is removed.
    Anything else at [dst] (a device, a pipe, a symbolic link) is
    written in place.
    @raise Bad_file as {!load}; @raise Invalid_argument as
    {!fold_words}; @raise Sys_error if [src] cannot be opened or [dst]
    cannot be written. *)
