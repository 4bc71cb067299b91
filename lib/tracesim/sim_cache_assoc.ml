(* Set-associative cache model for trace-replay studies.

   The DECstation 5000/200 the paper traces has direct-mapped caches.  But
   the point of collecting complete system traces was to drive studies of
   memory systems *other* than the host's — the companion work ([7], Chen
   & Bershad SOSP'93) replays these traces over associative organizations
   to separate conflict from capacity misses.  This model supports those
   studies: N-way set-associative, true-LRU replacement, the same
   write-through/no-write-allocate policy as the host so that a 1-way
   instance is reference-equal to a direct-mapped cache (a qcheck property
   in the test suite holds it to the direct-mapped reference model kept
   there).

   Each set is kept in recency order, most recently used first.  A hit at
   depth 0 — the common case — changes nothing; a hit deeper down rotates
   the line to the front; a miss evicts the last way and pushes the new
   line in at the front.  Invalid ways (-1) sink to the back and are
   evicted before any valid line.  The dirty bit travels inside the slot
   (bit 0, line number above it), so a rotation moves it with its tag for
   free.  A qcheck property holds this model to the stamp-based LRU
   reference kept in the test suite, under both policies. *)

(* Write policy: the DECstation (and the validation models) are
   write-through/no-write-allocate; Write_back/write-allocate is the other
   classic organization these traces were collected to study — stores
   allocate and dirty the line, and the memory traffic is the dirty
   evictions ([writebacks]) rather than every store. *)
type policy = Write_through | Write_back

type t = {
  line_bytes : int;
  line_shift : int;   (* log2 line_bytes, cached off the hot path *)
  ways : int;
  nsets : int;
  set_mask : int;     (* nsets - 1 when nsets is a power of two, else -1 *)
  policy : policy;
  slots : int array;  (* nsets * ways, MRU first: (line lsl 1) lor dirty,
                         -1 = invalid *)
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(policy = Write_through) ~size_bytes ~line_bytes ~ways () =
  if
    size_bytes <= 0 || line_bytes <= 0 || ways <= 0
    || line_bytes land (line_bytes - 1) <> 0
    || size_bytes mod (line_bytes * ways) <> 0
  then invalid_arg "Sim_cache_assoc.create";
  let nsets = size_bytes / (line_bytes * ways) in
  {
    line_bytes;
    line_shift = log2 line_bytes;
    ways;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    policy;
    slots = Array.make (nsets * ways) (-1);
    read_hits = 0;
    read_misses = 0;
    write_hits = 0;
    write_misses = 0;
    writebacks = 0;
  }

(* Depth of the line whose slot key is [key] (= line lsl 1 lor 1) in the
   set at [base], or -1.  [lor 1] ignores the dirty bit and never matches
   an invalid slot.  A top-level loop: no closure is allocated per probe. *)
let rec depth slots base ways key d =
  if d >= ways then -1
  else if Array.unsafe_get slots (base + d) lor 1 = key then d
  else depth slots base ways key (d + 1)

(* Move the slot at depth [d] to the front, shifting the ones above it
   down one way; returns the moved slot. *)
let to_front slots base d =
  let s = Array.unsafe_get slots (base + d) in
  for k = base + d downto base + 1 do
    Array.unsafe_set slots k (Array.unsafe_get slots (k - 1))
  done;
  Array.unsafe_set slots base s;
  s

(* A dirty valid victim is a writeback. *)
let evict t victim =
  if victim >= 0 && victim land 1 = 1 then t.writebacks <- t.writebacks + 1

(* Evict the LRU way and push [slot] in at the front. *)
let fill t base slot =
  let last = base + t.ways - 1 in
  evict t (Array.unsafe_get t.slots last);
  for k = last downto base + 1 do
    Array.unsafe_set t.slots k (Array.unsafe_get t.slots (k - 1))
  done;
  Array.unsafe_set t.slots base slot

(* The per-access index arithmetic: a shift for the line number and — for
   the universal power-of-two set count — a mask instead of a hardware
   divide. *)
let base_of t ln =
  (if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets) * t.ways

(* A read below the front way, in one pass: every slot passed is shifted
   down a way as the scan goes, so a hit only has to drop its slot in at
   the front, and a miss has already made room — the slot carried off the
   end is the LRU victim.  Returns [true] on hit. *)
let read_deep t base key =
  let slots = t.slots in
  let carry = ref (Array.unsafe_get slots base) in
  let d = ref 1 and found = ref (-1) in
  while !found < 0 && !d < t.ways do
    let cur = Array.unsafe_get slots (base + !d) in
    Array.unsafe_set slots (base + !d) !carry;
    if cur lor 1 = key then found := cur
    else begin
      carry := cur;
      incr d
    end
  done;
  if !found >= 0 then begin
    Array.unsafe_set slots base !found;
    true
  end
  else begin
    evict t !carry;
    Array.unsafe_set slots base (key - 1);
    false
  end

let read t pa =
  let ln = pa lsr t.line_shift in
  let base = base_of t ln in
  let key = (ln lsl 1) lor 1 in
  if Array.unsafe_get t.slots base lor 1 = key || read_deep t base key then begin
    t.read_hits <- t.read_hits + 1;
    true
  end
  else begin
    t.read_misses <- t.read_misses + 1;
    false
  end

(* Write_through: no write-allocate, state changes only on hit — matching
   the host machine, so 1-way instances equal a direct-mapped cache.
   Write_back: write-allocate; the line is dirtied and a dirty victim on
   any later fill counts as a writeback. *)
let write t pa =
  let ln = pa lsr t.line_shift in
  let base = base_of t ln in
  let d = depth t.slots base t.ways ((ln lsl 1) lor 1) 0 in
  if d >= 0 then begin
    t.write_hits <- t.write_hits + 1;
    let s = if d > 0 then to_front t.slots base d else Array.unsafe_get t.slots base in
    if t.policy = Write_back then Array.unsafe_set t.slots base (s lor 1);
    true
  end
  else begin
    t.write_misses <- t.write_misses + 1;
    if t.policy = Write_back then fill t base ((ln lsl 1) lor 1);
    false
  end

(* Per-set access, for a sweep that keeps one shared cache and private
   copies of the sets some configurations see differently: [b] must have
   [a]'s geometry. *)
let set_of t pa =
  let ln = pa lsr t.line_shift in
  if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets

let at_front t pa =
  let ln = pa lsr t.line_shift in
  Array.unsafe_get t.slots (base_of t ln) lor 1 = (ln lsl 1) lor 1

let copy_set a b set =
  Array.blit a.slots (set * a.ways) b.slots (set * a.ways) a.ways

let rec same_from (x : int array) (y : int array) i stop =
  i >= stop
  || (Array.unsafe_get x i = Array.unsafe_get y i && same_from x y (i + 1) stop)

let same_set a b set =
  let base = set * a.ways in
  same_from a.slots b.slots base (base + a.ways)
