(* Mattson-style LRU stack for a family of nested cache geometries.

   A read-only reference stream through N set-associative LRU caches that
   share a line size and a set count — differing only in associativity —
   obeys the stack inclusion property: the content of the W-way cache's
   set is exactly the W most-recently-used lines of that set.  One stack
   of max(W) entries per set therefore simulates the whole family: the
   depth at which a line is found decides, for every member at once,
   whether that member hit (depth < ways) or missed.

   The inclusion argument needs every access to move its line to the top
   of the stack in every member — true for reads (hit: LRU touch; miss:
   fill at MRU) but NOT for the write-through/no-write-allocate write
   path, where a write hit touches the line in members that hold it while
   members that miss do not allocate.  After such a write the members'
   contents are no longer nested (DESIGN.md 5f gives a counterexample),
   so this fast path is only used for instruction caches, whose stream is
   read-only by construction. *)

type t = {
  line_shift : int;
  nsets : int;
  set_mask : int;             (* nsets - 1 when a power of two, else -1 *)
  maxw : int;                 (* stack capacity = largest member's ways *)
  stacks : int array;         (* nsets * maxw line numbers, MRU first; -1 empty *)
  miss_at : int array;        (* depth -> bitmask of members that miss there *)
  all_miss : int;             (* bitmask when the line is absent entirely *)
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~line_bytes ~nsets ~ways =
  let n = Array.length ways in
  if line_bytes <= 0 || nsets <= 0 || n = 0 || n > Sys.int_size - 2 then
    invalid_arg "Sim_stack.create";
  Array.iteri
    (fun i w ->
      if w <= 0 || (i > 0 && ways.(i - 1) >= w) then
        invalid_arg "Sim_stack.create: ways must be ascending")
    ways;
  let maxw = ways.(n - 1) in
  (* a line found at 0-based depth d has d more-recent lines above it:
     member i hits iff its associativity exceeds d *)
  let miss_at =
    Array.init maxw (fun d ->
        let m = ref 0 in
        Array.iteri (fun i w -> if w <= d then m := !m lor (1 lsl i)) ways;
        !m)
  in
  {
    line_shift = log2 line_bytes;
    nsets;
    set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
    maxw;
    stacks = Array.make (nsets * maxw) (-1);
    miss_at;
    all_miss = (1 lsl n) - 1;
  }

(* depth of [ln] in the stack at [base], or -1; a top-level loop, so no
   closure is allocated per read *)
let rec find (stacks : int array) base maxw (ln : int) d =
  if d >= maxw then -1
  else if Array.unsafe_get stacks (base + d) = ln then d
  else find stacks base maxw ln (d + 1)

(* a read below the top of its stack: move the line up, report who missed *)
let push t base ln =
  let d = find t.stacks base t.maxw ln 1 in
  let stop = if d < 0 then t.maxw - 1 else d in
  for k = base + stop downto base + 1 do
    Array.unsafe_set t.stacks k (Array.unsafe_get t.stacks (k - 1))
  done;
  Array.unsafe_set t.stacks base ln;
  if d < 0 then t.all_miss else Array.unsafe_get t.miss_at d

(* One read by the whole family: returns the miss bitmask (bit i set =
   member i, in [ways] order, missed).  The line moves to the stack top,
   which is simultaneously the LRU touch of every hitting member and the
   MRU fill of every missing one. *)
let read t pa =
  let ln = pa lsr t.line_shift in
  let set = if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets in
  let base = set * t.maxw in
  if Array.unsafe_get t.stacks base = ln then 0 else push t base ln

let reset t = Array.fill t.stacks 0 (Array.length t.stacks) (-1)
