(* Direct-mapped, physically-indexed, physically-tagged cache model.

   Used for both the instruction and the data cache.  The data cache is
   write-through with no write-allocate (stores update a line only if it is
   already present), as on the DECstation 5000/200; the write path itself is
   modelled by [Write_buffer].

   Only hit/miss behaviour is modelled — no data is stored; the simulated
   memory is always authoritative.  The default geometry is scaled down with
   the workloads (see DESIGN.md, "Scale substitutions"). *)

type t = {
  line_shift : int;
  nlines : int;
  tags : int array;            (* -1 = invalid *)
  mutable hits : int;
  mutable misses : int;
}

let create ~size_bytes ~line_bytes =
  if size_bytes mod line_bytes <> 0 then
    invalid_arg "Cache.create: size not a multiple of line size";
  let line_shift =
    let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
    if line_bytes land (line_bytes - 1) <> 0 then
      invalid_arg "Cache.create: line size not a power of two"
    else log2 line_bytes 0
  in
  let nlines = size_bytes / line_bytes in
  if nlines land (nlines - 1) <> 0 then
    invalid_arg "Cache.create: line count not a power of two";
  {
    line_shift;
    nlines;
    tags = Array.make nlines (-1);
    hits = 0;
    misses = 0;
  }

let line_index t pa = (pa lsr t.line_shift) land (t.nlines - 1)
let tag t pa = pa lsr t.line_shift

(* Read access: returns [true] on hit; on miss the line is filled. *)
let read t pa =
  let idx = line_index t pa in
  let tg = tag t pa in
  if t.tags.(idx) = tg then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.tags.(idx) <- tg;
    false
  end

(* Write access (write-through, no allocate): the cache state only changes
   if the line is absent — then nothing happens.  Returns [true] if the line
   was present. Not counted in hit/miss statistics (write misses are free in
   a no-allocate cache). *)
let write t pa =
  let idx = line_index t pa in
  t.tags.(idx) = tag t pa

(* Invalidate the line containing [pa] (the cache instruction). *)
let invalidate t pa =
  let idx = line_index t pa in
  if t.tags.(idx) = tag t pa then t.tags.(idx) <- -1

let size_bytes t = t.nlines lsl t.line_shift
