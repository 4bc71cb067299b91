(* On-disk trace files.

   The Tunix system "produced a collection of single and multi-task
   user-level traces on tape, which were made available to the community"
   (paper §3.4).  This module is the tape: a captured in-kernel trace is
   written to a host file and can be re-analyzed offline — against the
   paper's design philosophy for LONG traces ("trace analysis that must be
   done off-line against stored traces is unacceptable" for 64MB-a-phase
   volumes), but exactly right for sharing and for replay studies.

   Three formats behind one magic:
     version 1: "STRC", version, word count, words as little-endian 32-bit
     version 2: "STRC", version, word count, compressed byte count, then
                the {!Compress} delta/varint + LZSS stream
     version 3: "STRC", version, word count, payload byte count, then
                independently compressed blocks, then an index trailer:
                one 17-byte entry per block (word offset, file offset,
                packed length, codec byte, CRC-32 of the packed bytes)
                followed by a 12-byte footer (block count, CRC-32 of the
                index bytes, "SIDX").
   One streaming writer writes versions 1 and 3; version 2 is read-only.
   One reader, [fold_words], dispatches on the version, and [load] is a
   whole-file fold, so consumers never care which way a trace was dumped
   and v1/v2 files keep loading byte-identically forever.

   Version 3 exists because v2 is decode-forward-only: one sequential
   decoder, no seeking, and a single shared predictor chain from the
   first word to the last.  v3 blocks are self-contained — each one
   chooses its own codec (semantic preconditioning, plain delta/varint,
   or raw words, whichever packed smallest; see {!Compress}) and resets
   every predictor — so the index lets [fold_words ?from ?until] seek to
   the covering block, [fold_words ?jobs] decode blocks concurrently on
   the domain pool, and `systrace slice` cut a window without a full
   decode.

   Robustness contract (defensive tracing, §4.3, extended to the stored
   form): [load] and [fold_words] on ANY byte sequence either return
   words or raise {!Bad_file} — never [End_of_file], [Invalid_argument],
   or an attacker-sized allocation.  Header counts are validated against
   both a hard cap (the same 2^26-word bound as [Compress.decode]) and
   the actual file size before any buffer is allocated; the v3 index is
   CRC-checked and every entry validated (offsets contiguous from the
   first block to the trailer, word offsets strictly increasing, codecs
   known) before a single block is read, and each block's own CRC is
   checked before it is decoded.  [save] refuses words outside the
   32-bit trace-word range instead of silently truncating them through
   [Int32.of_int], so a corrupted in-memory buffer cannot round-trip
   into a "valid" trace file. *)

let magic = "STRC"
let index_magic = "SIDX"

exception Bad_file of string

let bad path fmt =
  Printf.ksprintf (fun m -> raise (Bad_file (path ^ ": " ^ m))) fmt

(* Same bound as [Compress.max_decoded_words]: far beyond any real
   capture (the paper's largest kernel buffer is 64 MB = 2^24 words). *)
let max_words = 1 lsl 26

(* v3 block geometry: 64K words (256KB raw) balances seek granularity,
   per-block predictor warmup, and parallel-decode grain.  One index
   entry per block = 17 bytes per 256KB of trace, noise. *)
let v3_block_words = 65536
let v3_entry_bytes = 17
let v3_footer_bytes = 12

(* ------------------------------------------------------------------ *)
(* v3 block codecs                                                     *)

(* Codec byte, recorded per block in the index:
     0 = delta/varint (fresh predictor) + LZSS  — the v2 stages
     1 = semantic preconditioning + LZSS        — the usual winner
     2 = raw little-endian words + LZSS         — incompressible fallback
   The packer tries 1 and 0 and keeps the smaller; if even that beat
   nothing (packed >= raw bytes) it tries 2.  The choice is recorded on
   the wire, so the reader never guesses. *)

let v3_pack_block (block : int array) ~len : int * string =
  let sem = Compress.lzss_pack (Compress.encode_semantic block ~pos:0 ~len) in
  let plain =
    let buf = Buffer.create ((len * 2) + 64) in
    let e = Compress.encoder () in
    Compress.encode_chunk e buf block ~len;
    Compress.encode_finish e buf;
    Compress.lzss_pack (Buffer.contents buf)
  in
  let codec, best =
    if String.length sem <= String.length plain then (1, sem) else (0, plain)
  in
  if String.length best >= len * 4 then begin
    let raw = Bytes.create (len * 4) in
    for i = 0 to len - 1 do
      Bytes.set_int32_le raw (i * 4) (Int32.of_int block.(i))
    done;
    let z = Compress.lzss_pack (Bytes.unsafe_to_string raw) in
    if String.length z < String.length best then (2, z) else (codec, best)
  end
  else (codec, best)

(* Decode one block's packed bytes back to exactly [expect] words.
   Every stage is bounded by [expect], so a lying index entry surfaces
   as [Compress.Corrupt] before an oversized allocation. *)
let v3_decode_block ~codec ~expect (z : string) : int array =
  match codec with
  | 0 ->
    let limit = (expect * Compress.max_delta_bytes_per_word) + 16 in
    Compress.decode ~expect (Compress.lzss_unpack ~limit z)
  | 1 ->
    (* body worst case: <= 5 run-token bytes + 10 stream bytes per word,
       plus the fixed header varints *)
    let limit = (expect * 15) + 64 in
    Compress.decode_semantic ~expect (Compress.lzss_unpack ~limit z)
  | 2 ->
    let s = Compress.lzss_unpack ~limit:(expect * 4) z in
    if String.length s <> expect * 4 then
      raise (Compress.Corrupt "raw block length mismatch");
    Array.init expect (fun i ->
        Int32.to_int (String.get_int32_le s (i * 4)) land 0xFFFFFFFF)
  | c -> raise (Compress.Corrupt (Printf.sprintf "unknown block codec %d" c))

(* ------------------------------------------------------------------ *)
(* v3 index                                                            *)

type v3_entry = {
  e_word_off : int;  (* stream index of the block's first word *)
  e_file_off : int;  (* absolute byte offset of the packed block *)
  e_len : int;       (* packed byte length *)
  e_codec : int;
  e_crc : int;       (* CRC-32 of the packed bytes *)
}

let v3_entry_write buf e =
  let b = Bytes.create v3_entry_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int e.e_word_off);
  Bytes.set_int32_le b 4 (Int32.of_int e.e_file_off);
  Bytes.set_int32_le b 8 (Int32.of_int e.e_len);
  Bytes.set b 12 (Char.chr e.e_codec);
  Bytes.set_int32_le b 13 (Int32.of_int e.e_crc);
  Buffer.add_bytes buf b

(* Parse and fully validate a v3 trailer.  Nothing is allocated
   proportional to any header field before that field has been proven
   consistent with the actual file length. *)
let v3_read_index ic ~file_len ~path ~n =
  let bad fmt = bad path fmt in
  let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
  let lenb = Bytes.create 4 in
  really_input ic lenb 0 4;
  let payload = Int32.to_int (Bytes.get_int32_le lenb 0) in
  if payload < 0 then bad "negative payload";
  if file_len < 16 + v3_footer_bytes then bad "truncated: no index footer";
  if payload > file_len - 16 - v3_footer_bytes then
    bad "truncated: header claims %d payload bytes, file holds %d" payload
      (file_len - 16 - v3_footer_bytes);
  seek_in ic (file_len - v3_footer_bytes);
  let fb = Bytes.create v3_footer_bytes in
  really_input ic fb 0 v3_footer_bytes;
  if Bytes.sub_string fb 8 4 <> index_magic then
    bad "bad index footer magic";
  let nblocks = u32 fb 0 in
  let index_crc = u32 fb 4 in
  if nblocks > max_words then bad "index claims %d blocks" nblocks;
  let index_bytes = file_len - 16 - payload - v3_footer_bytes in
  if nblocks * v3_entry_bytes <> index_bytes then
    bad "index size mismatch: %d blocks need %d bytes, trailer holds %d"
      nblocks (nblocks * v3_entry_bytes) index_bytes;
  if nblocks = 0 && (n <> 0 || payload <> 0) then
    bad "empty index for %d words, %d payload bytes" n payload;
  if nblocks > 0 && n = 0 then bad "%d blocks for zero words" nblocks;
  seek_in ic (16 + payload);
  let ib = really_input_string ic index_bytes in
  if Compress.crc32 ib <> index_crc then bad "index CRC mismatch";
  let entries =
    Array.init nblocks (fun k ->
        let b = Bytes.unsafe_of_string ib in
        let off = k * v3_entry_bytes in
        {
          e_word_off = u32 b off;
          e_file_off = u32 b (off + 4);
          e_len = u32 b (off + 8);
          e_codec = Char.code (Bytes.get b (off + 12));
          e_crc = u32 b (off + 13);
        })
  in
  (* Offsets must tile the payload exactly — no gaps, no overlaps, no
     block reaching past EOF — and word offsets must start at 0 and
     strictly increase below the word count. *)
  let fo = ref 16 in
  Array.iteri
    (fun k e ->
      if e.e_file_off <> !fo then
        bad "block %d at offset %d, expected %d (overlap or gap)" k
          e.e_file_off !fo;
      if e.e_len < 0 || e.e_file_off + e.e_len > 16 + payload then
        bad "block %d reaches past the payload" k;
      fo := e.e_file_off + e.e_len;
      let expected_word_off = if k = 0 then 0 else -1 in
      if k = 0 && e.e_word_off <> expected_word_off then
        bad "first block at word offset %d" e.e_word_off;
      if k > 0 && e.e_word_off <= entries.(k - 1).e_word_off then
        bad "block %d word offset %d not increasing" k e.e_word_off;
      if e.e_word_off >= n then
        bad "block %d word offset %d beyond word count %d" k e.e_word_off n;
      if e.e_codec > 2 then bad "block %d has unknown codec %d" k e.e_codec)
    entries;
  if nblocks > 0 && !fo <> 16 + payload then
    bad "blocks cover %d payload bytes, header claims %d" (!fo - 16) payload;
  (payload, entries)

(* Words covered by entry [k]: up to the next block's offset (or the
   file's word count for the last block). *)
let v3_entry_words entries ~n k =
  let e = entries.(k) in
  let next =
    if k + 1 < Array.length entries then entries.(k + 1).e_word_off else n
  in
  next - e.e_word_off

(* Block [k]'s packed bytes, CRC-checked.  Reads share the one channel,
   so they are sequential; [v3_decode] may then run on any domain. *)
let v3_read_packed ic entries ~path k =
  let e = entries.(k) in
  seek_in ic e.e_file_off;
  let z = really_input_string ic e.e_len in
  if Compress.crc32 z <> e.e_crc then bad path "block %d CRC mismatch" k;
  z

let v3_decode entries ~n ~path k z =
  let expect = v3_entry_words entries ~n k in
  try v3_decode_block ~codec:entries.(k).e_codec ~expect z
  with Compress.Corrupt msg -> bad path "block %d: %s" k msg

(* ------------------------------------------------------------------ *)
(* Streaming writer.

   The writer accepts ANALYZE-phase chunks as they arrive and patches
   the header counts on close, so peak memory is O(block), not
   O(trace); [save] is the same writer fed one chunk.  Version 1
   appends the raw words.  Version 3 buffers words (not bytes): every
   [v3_block_words] it packs a self-contained block, appends it to the
   file and its entry to the in-memory index, which [close_writer]
   writes as the trailer.  Block boundaries depend only on the word
   stream, never on how calls chunked it, so the streamed file is
   byte-identical to [save] of the concatenation. *)

type writer = {
  w_oc : out_channel;
  w_compress : bool;  (* version 3 if set, else version 1 *)
  (* v3 state *)
  w_block : int array;  (* words awaiting a block flush *)
  mutable w_fill : int;
  w_index : Buffer.t;  (* index entries of the flushed blocks *)
  mutable w_nblocks : int;
  mutable w_payload : int;  (* payload bytes written so far *)
  (* common *)
  mutable w_words : int;
  mutable w_closed : bool;
}

let open_writer ?(compress = false) path =
  let oc = open_out_bin path in
  output_string oc magic;
  (* word count (and v3 payload size) are patched by [close_writer] *)
  let hdr = Bytes.make (if compress then 12 else 8) '\000' in
  Bytes.set_int32_le hdr 0 (if compress then 3l else 1l);
  output_bytes oc hdr;
  {
    w_oc = oc;
    w_compress = compress;
    w_block = (if compress then Array.make v3_block_words 0 else [||]);
    w_fill = 0;
    w_index = Buffer.create (if compress then 1024 else 16);
    w_nblocks = 0;
    w_payload = 0;
    w_words = 0;
    w_closed = false;
  }

let writer_flush_v3 w =
  if w.w_fill > 0 then begin
    let len = w.w_fill in
    w.w_fill <- 0;
    let codec, z = v3_pack_block w.w_block ~len in
    v3_entry_write w.w_index
      {
        e_word_off = w.w_words - len;
        e_file_off = 16 + w.w_payload;
        e_len = String.length z;
        e_codec = codec;
        e_crc = Compress.crc32 z;
      };
    w.w_nblocks <- w.w_nblocks + 1;
    output_string w.w_oc z;
    w.w_payload <- w.w_payload + String.length z
  end

(* A word the 32-bit trace format cannot hold, named by its index. *)
let out_of_range ~what i w =
  invalid_arg
    (Printf.sprintf
       "Tracefile.%s: word %d (0x%x) outside the 32-bit trace-word range" what
       i w)

let write w (words : int array) ~len =
  if w.w_closed then invalid_arg "Tracefile.write: writer is closed";
  for i = 0 to len - 1 do
    let v = words.(i) in
    if v < 0 || v > 0xFFFFFFFF then out_of_range ~what:"write" (w.w_words + i) v
  done;
  if w.w_words + len > max_words then
    invalid_arg
      (Printf.sprintf "Tracefile.write: trace exceeds the %d-word cap"
         max_words);
  if w.w_compress then begin
    (* fill the pending block; flush whenever it reaches the block size,
       so boundaries depend only on the word stream *)
    let pos = ref 0 in
    while !pos < len do
      let k = min (v3_block_words - w.w_fill) (len - !pos) in
      Array.blit words !pos w.w_block w.w_fill k;
      w.w_fill <- w.w_fill + k;
      w.w_words <- w.w_words + k;
      pos := !pos + k;
      if w.w_fill = v3_block_words then writer_flush_v3 w
    done
  end
  else begin
    let buf = Bytes.create (len * 4) in
    for i = 0 to len - 1 do
      Bytes.set_int32_le buf (i * 4) (Int32.of_int words.(i))
    done;
    output_bytes w.w_oc buf;
    w.w_words <- w.w_words + len
  end

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Fun.protect
      ~finally:(fun () -> close_out w.w_oc)
      (fun () ->
        if w.w_compress then begin
          writer_flush_v3 w;
          (* trailer: index entries, then block count + index CRC + magic
             — so an empty trace is a header plus an empty trailer, and
             still a structurally valid v3 file *)
          let ib = Buffer.contents w.w_index in
          output_string w.w_oc ib;
          let fb = Bytes.create v3_footer_bytes in
          Bytes.set_int32_le fb 0 (Int32.of_int w.w_nblocks);
          Bytes.set_int32_le fb 4 (Int32.of_int (Compress.crc32 ib));
          Bytes.blit_string index_magic 0 fb 8 4;
          output_bytes w.w_oc fb
        end;
        seek_out w.w_oc 8;
        let tl = Bytes.create (if w.w_compress then 8 else 4) in
        Bytes.set_int32_le tl 0 (Int32.of_int w.w_words);
        if w.w_compress then
          Bytes.set_int32_le tl 4 (Int32.of_int w.w_payload);
        output_bytes w.w_oc tl)
  end;
  w.w_words

let save ?compress path (words : int array) =
  (* checked before the file is created, so a bad word leaves no file *)
  Array.iteri
    (fun i w -> if w < 0 || w > 0xFFFFFFFF then out_of_range ~what:"save" i w)
    words;
  let w = open_writer ?compress path in
  Fun.protect
    ~finally:(fun () -> ignore (close_writer w : int))
    (fun () -> write w words ~len:(Array.length words))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

(* Shared header parse: returns (version, word count, file length).
   Raises [Bad_file] on anything structurally wrong. *)
let read_header ic ~path =
  let file_len = in_channel_length ic in
  let m = really_input_string ic 4 in
  if m <> magic then bad path "not a trace file";
  let hdr = Bytes.create 8 in
  really_input ic hdr 0 8;
  let v = Int32.to_int (Bytes.get_int32_le hdr 0) in
  let n = Int32.to_int (Bytes.get_int32_le hdr 4) in
  if n < 0 then bad path "negative length";
  if n > max_words then
    bad path "word count %d exceeds the %d-word cap" n max_words;
  (v, n, file_len)

(* [open_in_bin] opens a directory too, and the first length query on it
   then fails with an unrelated "Value too large" error: name the
   problem instead. *)
let open_trace path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": Is a directory"));
  open_in_bin path

(* Exceptions raised by the caller's [f] must escape the fold as
   themselves, not be swallowed into [Bad_file] by the totality net
   below. *)
exception Escape of exn

(* Raised internally when [?until] is satisfied: the remaining tail is
   not read (that is the point of stopping early), so a corrupt tail
   past the window goes unreported. *)
exception Early_stop

let check_window ~from ~until =
  if from < 0 then invalid_arg "Tracefile: negative ?from";
  match until with
  | Some u when u < from -> invalid_arg "Tracefile: ?until before ?from"
  | _ -> ()

let fold_words ?(chunk_words = 65536) ?(from = 0) ?until ?(jobs = 1) path
    ~init ~f =
  if chunk_words <= 0 then
    invalid_arg "Tracefile.fold_words: chunk_words must be positive";
  if jobs <= 0 then invalid_arg "Tracefile.fold_words: jobs must be positive";
  check_window ~from ~until;
  let ic = open_trace path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref init in
      let apply chunk len =
        match f !acc chunk ~len with
        | a -> acc := a
        | exception e -> raise (Escape e)
      in
      try
        let v, n, file_len = read_header ic ~path in
        let until = match until with Some u -> min u n | None -> n in
        let from = min from n in
        (match v with
        | 1 ->
          if file_len - 12 < n * 4 then
            bad path
              "truncated: header claims %d words, file holds %d bytes of \
               payload"
              n (file_len - 12);
          (* raw words: seek straight to the window *)
          seek_in ic (12 + (from * 4));
          let want = until - from in
          let chunk = Array.make (max 1 (min chunk_words (max want 1))) 0 in
          let buf = Bytes.create (Array.length chunk * 4) in
          let remaining = ref want in
          while !remaining > 0 do
            let k = min (Array.length chunk) !remaining in
            really_input ic buf 0 (k * 4);
            for i = 0 to k - 1 do
              chunk.(i) <-
                Int32.to_int (Bytes.get_int32_le buf (i * 4)) land 0xFFFFFFFF
            done;
            apply chunk k;
            remaining := !remaining - k
          done
        | 2 ->
          let lenb = Bytes.create 4 in
          really_input ic lenb 0 4;
          let len = Int32.to_int (Bytes.get_int32_le lenb 0) in
          if len < 0 then bad path "negative payload";
          if file_len - 16 < len then
            bad path "truncated: header claims %d payload bytes, file holds %d"
              len (file_len - 16);
          (* forward-only stream: decode from the start and emit only the
             window.  A window ending before the last word stops there; a
             fold to the end decodes every byte, so trailing garbage or a
             count mismatch is reported.  A file flushed in ~1 MB blocks
             is a concatenation of complete LZSS streams, which the LZSS
             decoder reads as one stream (see {!Compress}). *)
          let chunk = Array.make chunk_words 0 in
          let fill = ref 0 in
          let seen = ref 0 in
          let flush () =
            if !fill > 0 then begin
              let k = !fill in
              fill := 0;
              apply chunk k
            end
          in
          let emit_word w =
            if !seen >= from && !seen < until then begin
              chunk.(!fill) <- w;
              incr fill;
              if !fill = chunk_words then flush ()
            end;
            incr seen;
            if !seen >= until && until < n then begin
              flush ();
              raise Early_stop
            end
          in
          let d = Compress.decoder ~expect:n ~emit:emit_word () in
          let lz_limit = (n * Compress.max_delta_bytes_per_word) + 16 in
          let z =
            Compress.lz_decoder ~limit:lz_limit ~emit:(Compress.decode_byte d)
              ()
          in
          (try
             let left = ref len in
             while !left > 0 do
               let k = min !left 65536 in
               let s = really_input_string ic k in
               Compress.lz_decode_bytes z s ~pos:0 ~len:k;
               left := !left - k
             done;
             Compress.lz_decode_finish z;
             Compress.decode_finish d
           with
          | Compress.Corrupt msg -> bad path "%s" msg
          | Early_stop -> ());
          flush ()
        | 3 ->
          let _payload, entries = v3_read_index ic ~file_len ~path ~n in
          let nblocks = Array.length entries in
          (* binary search for the block covering [from] *)
          let first =
            let lo = ref 0 and hi = ref nblocks in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              let e = entries.(mid) in
              if e.e_word_off + v3_entry_words entries ~n mid <= from then
                lo := mid + 1
              else hi := mid
            done;
            !lo
          in
          let last = ref first in
          while !last < nblocks && entries.(!last).e_word_off < until do
            incr last
          done;
          (* clip block [k] to the window, then re-chunk *)
          let deliver k words =
            let nw = Array.length words in
            let lo = max 0 (from - entries.(k).e_word_off) in
            let hi = min nw (until - entries.(k).e_word_off) in
            let pos = ref lo in
            while !pos < hi do
              let c = min chunk_words (hi - !pos) in
              let slice =
                if !pos = 0 && c = nw then words else Array.sub words !pos c
              in
              apply slice c;
              pos := !pos + c
            done
          in
          (* Batches of [2 * jobs] blocks are read on this channel,
             decoded on the pool, then delivered in stream order, so the
             chunks do not depend on [jobs] and peak memory is
             O(jobs * block).  [jobs = 1] is the same loop one block at a
             time, decoded on the calling domain. *)
          let batch = if jobs = 1 then 1 else 2 * jobs in
          let k = ref first in
          while !k < !last do
            let b = min batch (!last - !k) in
            let packed =
              List.init b (fun i ->
                  (!k + i, v3_read_packed ic entries ~path (!k + i)))
            in
            let decoded =
              Systrace_util.Pool.map ~jobs
                (fun (i, z) -> v3_decode entries ~n ~path i z)
                packed
            in
            List.iteri (fun i words -> deliver (!k + i) words) decoded;
            k := !k + b
          done
        | v -> bad path "version %d unsupported" v);
        !acc
      with
      | Escape e -> raise e
      | End_of_file -> bad path "truncated file"
      | Invalid_argument _ -> bad path "malformed header")

let load path : int array =
  Array.concat
    (List.rev
       (fold_words path ~init:[] ~f:(fun acc chunk ~len ->
            Array.sub chunk 0 len :: acc)))

(* Extract the window [from, until) of a stored trace into a fresh v3
   trace file, decoding only the covering blocks (the `systrace slice`
   back end).  Returns the number of words written. *)
let slice ?from ?until src dst =
  let w = open_writer ~compress:true dst in
  Fun.protect
    ~finally:(fun () -> ignore (close_writer w : int))
    (fun () ->
      fold_words ?from ?until src ~init:() ~f:(fun () words ~len ->
          write w words ~len));
  w.w_words
