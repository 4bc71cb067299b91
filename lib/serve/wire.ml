(* Wire framing for trace streams over a socket.

   Everything on the wire is a 4-byte little-endian unit (magic, frame
   headers, trace words), so the incremental decoder only ever has to
   carry at most 3 bytes of a split unit between feeds.  The hot path is
   the bulk word copy: while inside a frame with no partial unit pending,
   words go straight from the read buffer into the caller's destination
   array with one [Bytes.get_int32_le] per word — no intermediate
   allocation, whatever the socket read chunking was. *)

let magic = 0x31565253 (* "SRV1" little-endian *)
let max_frame_words = (1 lsl 24) - 1
let kind_words = 0
let kind_end = 1

type error = { at : int; state : string; message : string }

let describe e =
  Printf.sprintf "byte %d: %s: %s" e.at e.state e.message

type status =
  | Need_more
  | Dst_full
  | Stream_end
  | Fault of error

(* phase: 0 = expecting magic, 1 = expecting a frame header, 2 = inside a
   words frame, 3 = ended (END frame seen), 4 = faulted (sticky). *)
type decoder = {
  mutable phase : int;
  mutable part : int;  (* partial little-endian unit, low bytes first *)
  mutable part_have : int;  (* bytes of [part] received, 0..3 *)
  mutable remaining : int;  (* words left in the current frame *)
  mutable bytes_in : int;
  mutable frames_in : int;
  mutable words_in : int;
  mutable flt : error option;
}

let decoder () =
  {
    phase = 0;
    part = 0;
    part_have = 0;
    remaining = 0;
    bytes_in = 0;
    frames_in = 0;
    words_in = 0;
    flt = None;
  }

let words d = d.words_in
let frames d = d.frames_in
let bytes d = d.bytes_in
let ended d = d.phase = 3
let fault d = d.flt

let fail d state message =
  let e = { at = d.bytes_in; state; message } in
  d.phase <- 4;
  d.flt <- Some e;
  Fault e

(* Pull bytes into the partial-unit accumulator; true when complete. *)
let gather d src src_pos src_len =
  while d.part_have < 4 && !src_pos < src_len do
    d.part <-
      d.part lor (Char.code (Bytes.unsafe_get src !src_pos) lsl (8 * d.part_have));
    d.part_have <- d.part_have + 1;
    incr src_pos;
    d.bytes_in <- d.bytes_in + 1
  done;
  d.part_have = 4

let take_unit d =
  let u = d.part in
  d.part <- 0;
  d.part_have <- 0;
  u

let decode d ~src ~src_pos ~src_len ~dst ~dst_pos ~dst_len =
  let rec go () =
    match d.phase with
    | 4 -> Fault (Option.get d.flt)
    | 3 ->
      if !src_pos < src_len then begin
        let extra = src_len - !src_pos in
        src_pos := src_len;
        fail d "after END"
          (Printf.sprintf "%d trailing byte(s) after the END frame" extra)
      end
      else Stream_end
    | 2 ->
      (* frame payload *)
      if d.part_have > 0 then
        (* finish a word split across reads *)
        if !dst_pos >= dst_len then Dst_full
        else if not (gather d src src_pos src_len) then Need_more
        else begin
          Array.unsafe_set dst !dst_pos (take_unit d);
          incr dst_pos;
          d.words_in <- d.words_in + 1;
          d.remaining <- d.remaining - 1;
          if d.remaining = 0 then begin
            d.phase <- 1;
            d.frames_in <- d.frames_in + 1
          end;
          go ()
        end
      else begin
        let src_words = (src_len - !src_pos) / 4 in
        let k = min d.remaining (min src_words (dst_len - !dst_pos)) in
        if k > 0 then begin
          let sp = !src_pos and dp = !dst_pos in
          for i = 0 to k - 1 do
            Array.unsafe_set dst (dp + i)
              (Int32.to_int (Bytes.get_int32_le src (sp + (4 * i)))
              land 0xFFFFFFFF)
          done;
          src_pos := sp + (4 * k);
          dst_pos := dp + k;
          d.bytes_in <- d.bytes_in + (4 * k);
          d.words_in <- d.words_in + k;
          d.remaining <- d.remaining - k
        end;
        if d.remaining = 0 then begin
          d.phase <- 1;
          d.frames_in <- d.frames_in + 1;
          go ()
        end
        else if !dst_pos >= dst_len then Dst_full
        else begin
          (* fewer than 4 source bytes left: stash them *)
          ignore (gather d src src_pos src_len : bool);
          Need_more
        end
      end
    | _ ->
      (* 0 (magic) or 1 (frame header): need one whole unit *)
      if not (gather d src src_pos src_len) then Need_more
      else begin
        let u = take_unit d in
        if d.phase = 0 then
          if u = magic then begin
            d.phase <- 1;
            go ()
          end
          else
            fail d "stream header"
              (Printf.sprintf "bad magic 0x%08x (want 0x%08x)" u magic)
        else begin
          let kind = (u lsr 24) land 0xFF and n = u land 0xFFFFFF in
          if kind = kind_words then
            if n = 0 then begin
              (* an empty drain is legal, just pointless *)
              d.frames_in <- d.frames_in + 1;
              go ()
            end
            else begin
              d.remaining <- n;
              d.phase <- 2;
              go ()
            end
          else if kind = kind_end then
            if n <> 0 then
              fail d "END frame"
                (Printf.sprintf "END frame carries count %d (want 0)" n)
            else begin
              d.phase <- 3;
              Stream_end
            end
          else fail d "frame header" (Printf.sprintf "unknown frame kind %d" kind)
        end
      end
  in
  go ()

let eof_error d =
  match d.phase with
  | 3 -> None
  | 4 -> d.flt
  | 0 ->
    Some
      {
        at = d.bytes_in;
        state = "stream header";
        message =
          (if d.bytes_in = 0 then "connection closed before the stream magic"
           else "connection closed inside the stream magic");
      }
  | 1 ->
    Some
      {
        at = d.bytes_in;
        state = "frame header";
        message =
          (if d.part_have = 0 then
             "connection closed between frames without an END frame"
           else "connection closed inside a frame header");
      }
  | _ ->
    Some
      {
        at = d.bytes_in;
        state = "frame payload";
        message =
          Printf.sprintf "connection cut mid-frame: %d word(s) short"
            d.remaining;
      }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

(* The one frame writer: units go straight into the caller's byte
   buffer, and [flush] takes the buffer's bytes whenever the next unit
   does not fit.  A frame's words may straddle a flush; only the byte
   stream is the protocol, not where it was cut into writes. *)
type writer = {
  buf : Bytes.t;
  mutable len : int;  (* bytes of [buf] written, not yet flushed *)
  frame_words : int;
  flush : Bytes.t -> int -> unit;
}

let check_frame_words who n =
  if n < 1 || n > max_frame_words then
    invalid_arg (Printf.sprintf "Wire.%s: frame_words %d" who n)

let flush w =
  if w.len > 0 then begin
    w.flush w.buf w.len;
    w.len <- 0
  end

let put_unit w u =
  if w.len + 4 > Bytes.length w.buf then flush w;
  Bytes.set_int32_le w.buf w.len (Int32.of_int u);
  w.len <- w.len + 4

let writer ?(frame_words = 65536) buf ~flush =
  check_frame_words "writer" frame_words;
  if Bytes.length buf < 4 then invalid_arg "Wire.writer: buffer under one unit";
  let w = { buf; len = 0; frame_words; flush } in
  put_unit w magic;
  w

(* Store [ws.(i .. fin-1)] in [buf] from byte [pos]: one range check
   and one store per word.  A function of its own, with no call on its
   path but the one that raises, so its loop keeps every variable in a
   register. *)
let rec copy_words (ws : int array) i fin buf pos =
  if i < fin then begin
    let x = Array.unsafe_get ws i in
    if x < 0 || x > 0xFFFFFFFF then
      raise
        (Invalid_argument
           (Printf.sprintf "Wire.put_words: word %d = 0x%x outside 32-bit range"
              i x));
    Bytes.set_int32_le buf pos (Int32.of_int x);
    copy_words ws (i + 1) fin buf (pos + 4)
  end

(* [n] words of [ws] from [off] into the buffer, flushing it whenever it
   is full. *)
let put_words w ws ~off ~n =
  let fin = off + n in
  let i = ref off in
  while !i < fin do
    if w.len + 4 > Bytes.length w.buf then flush w;
    let k = min (fin - !i) ((Bytes.length w.buf - w.len) / 4) in
    copy_words ws !i (!i + k) w.buf w.len;
    w.len <- w.len + (4 * k);
    i := !i + k
  done

let write w ws ~off ~len =
  if off < 0 || len < 0 || off > Array.length ws - len then
    invalid_arg "Wire.write: range outside the array";
  let sent = ref 0 in
  while !sent < len do
    let n = min w.frame_words (len - !sent) in
    put_unit w ((kind_words lsl 24) lor n);
    put_words w ws ~off:(off + !sent) ~n;
    sent := !sent + n
  done

let close w =
  put_unit w (kind_end lsl 24);
  flush w

let encode ?(frame_words = 65536) ws =
  check_frame_words "encode" frame_words;
  let n = Array.length ws in
  let frames = (n + frame_words - 1) / frame_words in
  (* room for the whole stream, so the writer flushes only at [close] *)
  let b = Bytes.create (4 * (n + frames + 2)) in
  let w = writer ~frame_words b ~flush:(fun _ _ -> ()) in
  write w ws ~off:0 ~len:n;
  close w;
  Bytes.unsafe_to_string b
