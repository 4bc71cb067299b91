(* Deterministic fault injection over trace word streams and stored trace
   files.

   The paper's defensive-tracing argument (§4.3) is that the one-word trace
   format carries enough redundancy to *detect* corruption with very high
   probability rather than silently mis-simulate.  This module supplies the
   corruption: a catalogue of fault kinds covering the realistic failure
   modes of a trace path (bit rot on the store, lost/duplicated/reordered
   buffer words, truncated files, scribbled markers, damaged drain
   framing), each applied at an [Systrace_util.Rng]-chosen position and tagged with
   its injection index so a detection can be attributed to the fault that
   caused it.

   All choice is driven by the caller's generator: equal seeds give equal
   faulted streams, so every detection-rate experiment and every qcheck
   counterexample replays exactly.

   Position selection is framing-aware.  A drain payload word and a marker
   word can only be told apart by tracking the drain protocol (DRAIN marker,
   then a count word, then count payload words), so the injector runs the
   same lightweight scan as the parser to classify positions before
   choosing targets — otherwise "mutate a marker" could hit a user address
   that merely lands in the marker range. *)

type kind =
  | Bit_flip      (* flip one bit of one word *)
  | Word_drop     (* delete one word *)
  | Word_dup      (* duplicate one word in place *)
  | Word_swap     (* exchange two adjacent words *)
  | Truncate      (* cut the stream at a position *)
  | Marker_kind   (* rewrite a marker's kind field *)
  | Marker_arg    (* rewrite a marker's argument field *)
  | Drain_count   (* corrupt the count word after a DRAIN marker *)
  | Drain_split   (* split one drain block into two valid halves *)

let all_kinds =
  [
    Bit_flip;
    Word_drop;
    Word_dup;
    Word_swap;
    Truncate;
    Marker_kind;
    Marker_arg;
    Drain_count;
    Drain_split;
  ]

let kind_name = function
  | Bit_flip -> "bit_flip"
  | Word_drop -> "word_drop"
  | Word_dup -> "word_dup"
  | Word_swap -> "word_swap"
  | Truncate -> "truncate"
  | Marker_kind -> "marker_kind"
  | Marker_arg -> "marker_arg"
  | Drain_count -> "drain_count"
  | Drain_split -> "drain_split"

type injection = {
  kind : kind;
  pos : int;       (* word index in the stream the fault was applied at *)
  detail : string; (* human-readable what-changed *)
}

let describe inj =
  Printf.sprintf "%s@%d: %s" (kind_name inj.kind) inj.pos inj.detail

(* ------------------------------------------------------------------ *)
(* Framing-aware position classification                               *)

type pos_class =
  | Marker_pos       (* a marker word outside any drain *)
  | Drain_count_pos  (* the count word following a DRAIN marker *)
  | Payload_pos      (* a word inside a drain payload *)
  | Kernel_pos       (* a kernel-stream word (record or data) *)

(* Classify every word of a well-formed stream by running the drain
   protocol.  On streams that are already malformed the classification is
   best-effort — fine for an injector, whose output is malformed anyway. *)
let classify (words : int array) : pos_class array =
  let n = Array.length words in
  let cls = Array.make n Kernel_pos in
  let drain_left = ref 0 in
  for i = 0 to n - 1 do
    let w = words.(i) in
    if !drain_left = -2 then begin
      cls.(i) <- Drain_count_pos;
      drain_left := if w >= 0 && w <= 1 lsl 24 then w else 0
    end
    else if !drain_left > 0 then begin
      cls.(i) <- Payload_pos;
      decr drain_left
    end
    else if Format_.is_marker w then begin
      cls.(i) <- Marker_pos;
      if Format_.marker_kind w = Format_.kind_drain then drain_left := -2
    end
  done;
  cls

let positions_of cls want =
  let acc = ref [] in
  Array.iteri (fun i c -> if c = want then acc := i :: !acc) cls;
  Array.of_list (List.rev !acc)

(* Position of each DRAIN marker whose payload has at least 2 words, all
   of them in the stream (the only drains a split can divide: a stream
   cut inside a payload, by [Truncate] or as a prefix, holds none of the
   words past the cut), as (marker_pos, count). *)
let splittable_drains (words : int array) cls =
  let acc = ref [] in
  Array.iteri
    (fun i c ->
      if
        c = Marker_pos
        && Format_.marker_kind words.(i) = Format_.kind_drain
        && i + 1 < Array.length words
        && cls.(i + 1) = Drain_count_pos
        && words.(i + 1) >= 2
        && i + 1 + words.(i + 1) < Array.length words
      then acc := (i, words.(i + 1)) :: !acc)
    cls;
  Array.of_list (List.rev !acc)

let pick rng a =
  if Array.length a = 0 then None else Some a.(Systrace_util.Rng.int rng (Array.length a))

(* ------------------------------------------------------------------ *)
(* Single-fault application                                            *)

let mask32 w = w land 0xFFFFFFFF

(* Apply one fault of [kind] to [words], choosing the site with [rng].
   Returns the faulted stream (a fresh array; the input is never mutated)
   and the injection tag, or [None] when the stream has no site for this
   kind (e.g. no markers to mutate). *)
let inject_one rng kind (words : int array) : (int array * injection) option =
  let n = Array.length words in
  if n = 0 then None
  else
    let cls = lazy (classify words) in
    match kind with
    | Bit_flip ->
      let pos = Systrace_util.Rng.int rng n in
      let bit = Systrace_util.Rng.int rng 32 in
      let out = Array.copy words in
      out.(pos) <- mask32 (out.(pos) lxor (1 lsl bit));
      Some
        ( out,
          {
            kind;
            pos;
            detail =
              Printf.sprintf "0x%x -> 0x%x (bit %d)" words.(pos) out.(pos) bit;
          } )
    | Word_drop ->
      let pos = Systrace_util.Rng.int rng n in
      let out = Array.init (n - 1) (fun i -> if i < pos then words.(i) else words.(i + 1)) in
      Some (out, { kind; pos; detail = Printf.sprintf "dropped 0x%x" words.(pos) })
    | Word_dup ->
      let pos = Systrace_util.Rng.int rng n in
      let out =
        Array.init (n + 1) (fun i ->
            if i <= pos then words.(i) else words.(i - 1))
      in
      Some
        (out, { kind; pos; detail = Printf.sprintf "duplicated 0x%x" words.(pos) })
    | Word_swap ->
      if n < 2 then None
      else
        let pos = Systrace_util.Rng.int rng (n - 1) in
        if words.(pos) = words.(pos + 1) then
          (* Swapping equal words is the identity; still a valid "fault
             landed in dead redundancy" case, keep it. *)
          Some
            ( Array.copy words,
              { kind; pos; detail = "swapped equal words (no-op)" } )
        else begin
          let out = Array.copy words in
          let tmp = out.(pos) in
          out.(pos) <- out.(pos + 1);
          out.(pos + 1) <- tmp;
          Some
            ( out,
              {
                kind;
                pos;
                detail =
                  Printf.sprintf "swapped 0x%x <-> 0x%x" words.(pos)
                    words.(pos + 1);
              } )
        end
    | Truncate ->
      let pos = Systrace_util.Rng.int rng n in
      Some
        ( Array.sub words 0 pos,
          { kind; pos; detail = Printf.sprintf "cut %d trailing words" (n - pos) }
        )
    | Marker_kind -> (
      match pick rng (positions_of (Lazy.force cls) Marker_pos) with
      | None -> None
      | Some pos ->
        let w = words.(pos) in
        let old_kind = Format_.marker_kind w in
        (* A different kind, possibly an undefined one (kinds 8-15). *)
        let k' = (old_kind + 1 + Systrace_util.Rng.int rng 15) land 0xF in
        let out = Array.copy words in
        out.(pos) <- w land lnot (0xF lsl 12) lor (k' lsl 12);
        Some
          ( out,
            {
              kind;
              pos;
              detail = Printf.sprintf "marker kind %d -> %d" old_kind k';
            } ))
    | Marker_arg -> (
      match pick rng (positions_of (Lazy.force cls) Marker_pos) with
      | None -> None
      | Some pos ->
        let w = words.(pos) in
        (* Nonzero xor in the 12-bit arg field: always changes the arg. *)
        let x = 1 + Systrace_util.Rng.int rng 0xFFF in
        let out = Array.copy words in
        out.(pos) <- w lxor x;
        Some
          ( out,
            {
              kind;
              pos;
              detail =
                Printf.sprintf "marker arg 0x%x -> 0x%x" (Format_.marker_arg w)
                  (Format_.marker_arg out.(pos));
            } ))
    | Drain_count -> (
      match pick rng (positions_of (Lazy.force cls) Drain_count_pos) with
      | None -> None
      | Some pos ->
        let w = words.(pos) in
        let w' =
          if Systrace_util.Rng.bool rng then mask32 (w lxor (1 lsl Systrace_util.Rng.int rng 32))
          else (w + 1 + Systrace_util.Rng.int rng 16) land 0xFFFFFF
        in
        let w' = if w' = w then w + 1 else w' in
        let out = Array.copy words in
        out.(pos) <- w';
        Some
          (out, { kind; pos; detail = Printf.sprintf "drain count %d -> %d" w w' })
      )
    | Drain_split -> (
      match pick rng (splittable_drains words (Lazy.force cls)) with
      | None -> None
      | Some (mpos, count) ->
        (* [DRAIN(p); n; w1..wn] -> [DRAIN(p); k; w1..wk; DRAIN(p); n-k;
           wk+1..wn] — a *valid* transform of the stream (drains are
           resumable), exercising the protocol's dead redundancy: the
           parser must reconstruct the identical reference stream. *)
        let k = 1 + Systrace_util.Rng.int rng (count - 1) in
        let marker = words.(mpos) in
        let out = Array.make (n + 2) 0 in
        Array.blit words 0 out 0 (mpos + 2 + k);
        out.(mpos + 1) <- k;
        out.(mpos + 2 + k) <- marker;
        out.(mpos + 3 + k) <- count - k;
        Array.blit words (mpos + 2 + k) out (mpos + 4 + k) (n - (mpos + 2 + k));
        Some
          ( out,
            {
              kind;
              pos = mpos;
              detail = Printf.sprintf "drain of %d split at %d" count k;
            } ))

(* ------------------------------------------------------------------ *)
(* Multi-fault application                                             *)

(* Apply [n] faults drawn uniformly from [kinds] (default: all).  Faults
   compose left to right on the progressively-faulted stream; kinds with
   no remaining site (e.g. [Truncate] emptied the stream) are skipped.
   Returns the final stream and the injections actually applied, in
   order. *)
let inject rng ~n ?(kinds = all_kinds) (words : int array) :
    int array * injection list =
  if kinds = [] then invalid_arg "Faults.inject: empty kind list";
  let karr = Array.of_list kinds in
  let cur = ref words in
  let injs = ref [] in
  for _ = 1 to n do
    let kind = karr.(Systrace_util.Rng.int rng (Array.length karr)) in
    match inject_one rng kind !cur with
    | Some (out, inj) ->
      cur := out;
      injs := inj :: !injs
    | None -> ()
  done;
  (!cur, List.rev !injs)

(* ------------------------------------------------------------------ *)
(* Stored-file mangling                                                *)

(* Corrupt a stored trace file's *bytes* (header, compressed payload,
   anything): byte flips, truncation, appended garbage, or an overwritten
   window.  For fuzzing [Tracefile.load]'s every-malformed-input-raises-
   [Bad_file] guarantee. *)
let mangle rng (s : string) : string =
  let n = String.length s in
  match Systrace_util.Rng.int rng 4 with
  | 0 when n > 0 ->
    (* flip one bit of one byte *)
    let pos = Systrace_util.Rng.int rng n in
    let b = Bytes.of_string s in
    Bytes.set b pos
      (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Systrace_util.Rng.int rng 8)));
    Bytes.to_string b
  | 1 when n > 0 ->
    (* truncate *)
    String.sub s 0 (Systrace_util.Rng.int rng n)
  | 2 ->
    (* append garbage *)
    let extra = 1 + Systrace_util.Rng.int rng 64 in
    s ^ String.init extra (fun _ -> Char.chr (Systrace_util.Rng.int rng 256))
  | _ when n > 0 ->
    (* overwrite a window with garbage *)
    let pos = Systrace_util.Rng.int rng n in
    let len = min (1 + Systrace_util.Rng.int rng 16) (n - pos) in
    let b = Bytes.of_string s in
    for i = pos to pos + len - 1 do
      Bytes.set b i (Char.chr (Systrace_util.Rng.int rng 256))
    done;
    Bytes.to_string b
  | _ -> s ^ String.init 4 (fun _ -> Char.chr (Systrace_util.Rng.int rng 256))

(* v3-trailer-targeted mangling.  Blind byte mangling almost always dies
   on the first CRC check; the interesting decode-path bugs live behind
   it, in the entry validation — so half these faults *recompute* the
   index CRC after lying, forcing the reader to reject the entry on its
   own merits (offsets past EOF, overlaps, non-monotone word offsets,
   unknown codecs) rather than on a checksum.  Returns the mangled bytes
   and a description of what was done; falls back to {!mangle} when the
   input is not a well-formed v3 file. *)
let mangle_v3 rng (s : string) : string * string =
  let n = String.length s in
  let u32 off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF in
  let fallback () = (mangle rng s, "blind byte mangle") in
  if
    n < 28
    || String.sub s 0 4 <> "STRC"
    || u32 4 <> 3
    || String.sub s (n - 4) 4 <> "SIDX"
  then fallback ()
  else begin
    let nblocks = u32 (n - 12) in
    let payload = u32 12 in
    let index_off = 16 + payload in
    let index_bytes = 17 * nblocks in
    if index_off + index_bytes + 12 <> n then fallback ()
    else begin
      let b = Bytes.of_string s in
      let set32 off v = Bytes.set_int32_le b off (Int32.of_int v) in
      let flip_byte pos =
        Bytes.set b pos
          (Char.chr
             (Char.code (Bytes.get b pos)
             lxor (1 lsl Systrace_util.Rng.int rng 8)))
      in
      let fix_index_crc () =
        set32 (n - 8)
          (Compress.crc32_update 0
             (Bytes.unsafe_to_string b)
             ~pos:index_off ~len:index_bytes)
      in
      let entry k = index_off + (17 * k) in
      match Systrace_util.Rng.int rng 9 with
      | 0 ->
        (* cut inside the trailer: index or footer goes missing *)
        let cut = index_off + Systrace_util.Rng.int rng (index_bytes + 12) in
        ( String.sub s 0 cut,
          Printf.sprintf "trailer truncated at %d/%d" cut n )
      | 1 when nblocks > 0 ->
        flip_byte (index_off + Systrace_util.Rng.int rng index_bytes);
        (Bytes.to_string b, "index bit rot (index CRC mismatch)")
      | 2 when nblocks > 0 ->
        let k = Systrace_util.Rng.int rng nblocks in
        let off = entry k in
        set32 (off + 8)
          (u32 (off + 8) + payload + 1 + Systrace_util.Rng.int rng 1000);
        fix_index_crc ();
        ( Bytes.to_string b,
          Printf.sprintf "block %d length past EOF (index CRC fixed)" k )
      | 3 when nblocks > 1 ->
        let k = 1 + Systrace_util.Rng.int rng (nblocks - 1) in
        let off = entry k in
        set32 (off + 4)
          (max 16 (u32 (off + 4) - 1 - Systrace_util.Rng.int rng 16));
        fix_index_crc ();
        ( Bytes.to_string b,
          Printf.sprintf "block %d overlaps its predecessor (index CRC fixed)"
            k )
      | 4 when nblocks > 0 && payload > 0 ->
        flip_byte (16 + Systrace_util.Rng.int rng payload);
        (Bytes.to_string b, "payload bit rot (block CRC mismatch)")
      | 5 ->
        let nb' =
          match Systrace_util.Rng.int rng 3 with
          | 0 -> nblocks + 1 + Systrace_util.Rng.int rng 100
          | 1 -> (nblocks + 1) land 0xFFFFFF (* any different value *)
          | _ -> 0x7FFFFFFF (* oversized: must be rejected pre-allocation *)
        in
        set32 (n - 12) (if nb' = nblocks then nblocks + 1 else nb');
        ( Bytes.to_string b,
          Printf.sprintf "footer block count %d -> %d" nblocks
            (if nb' = nblocks then nblocks + 1 else nb') )
      | 6 ->
        flip_byte (n - 4 + Systrace_util.Rng.int rng 4);
        (Bytes.to_string b, "footer magic scribbled")
      | 7 when nblocks > 1 ->
        let k = 1 + Systrace_util.Rng.int rng (nblocks - 1) in
        set32 (entry k) (u32 (entry (k - 1)));
        fix_index_crc ();
        ( Bytes.to_string b,
          Printf.sprintf "block %d word offset clamped to predecessor (index \
                          CRC fixed)"
            k )
      | 8 when nblocks > 0 ->
        let k = Systrace_util.Rng.int rng nblocks in
        Bytes.set b (entry k + 12)
          (Char.chr (3 + Systrace_util.Rng.int rng 253));
        fix_index_crc ();
        ( Bytes.to_string b,
          Printf.sprintf "block %d codec byte invalid (index CRC fixed)" k )
      | _ -> fallback ()
    end
  end
