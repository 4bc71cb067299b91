(* Write-buffer model for the trace-driven simulator.

   Deliberately simpler than the machine's: the simulated CPU's clock
   advances by one cycle per reference and by the full penalty on every
   stall, with no notion of overlap with floating-point latency.  The
   missing overlap is exactly the modelling gap the paper identifies for
   liv: "the prediction error is caused by the overlapping of write buffer
   and floating point activity that is not modeled in the simulator".

   The caller owns that clock (the sweep derives it from shared event
   counters instead of ticking it), so between stores the buffer costs
   nothing.  Entries live in a fixed ring of ascending retirement times —
   never more than [depth] of them.  A store first retires every entry at
   or before the clock; if the buffer is still full, it stalls until the
   oldest entry retires; then it queues its own retirement [drain] cycles
   after the later of the clock and the newest entry.  So a store whose
   clock is past the newest entry leaves that store's entry alone, which
   [restart] sets directly: a caller that knows the buffer had emptied
   may skip such a store and rebuild the ring only when it needs it.
   The eager list-based model this replaced lives on in the test suite
   as its oracle. *)

type t = {
  depth : int;
  drain : int;
  buf : int array;            (* circular, ascending retirement times *)
  mutable head : int;
  mutable count : int;
}

let create ~depth ~drain_cycles =
  if depth <= 0 then invalid_arg "Sim_wb.create";
  { depth; drain = drain_cycles; buf = Array.make depth 0; head = 0; count = 0 }

(* ring index arithmetic without a divide: every index is < 2 * depth *)
let wrap t i = if i >= t.depth then i - t.depth else i

let pop t =
  t.head <- wrap t (t.head + 1);
  t.count <- t.count - 1

let store t ~clock =
  while t.count > 0 && Array.unsafe_get t.buf t.head <= clock do
    pop t
  done;
  let stall =
    if t.count < t.depth then 0
    else begin
      let oldest = Array.unsafe_get t.buf t.head in
      pop t;
      oldest - clock
    end
  in
  let clock = clock + stall in
  let last =
    if t.count > 0 then Array.unsafe_get t.buf (wrap t (t.head + t.count - 1))
    else clock
  in
  Array.unsafe_set t.buf
    (wrap t (t.head + t.count))
    ((if clock >= last then clock else last) + t.drain);
  t.count <- t.count + 1;
  stall

(* the buffer a store at [clock] leaves when every entry has retired *)
let restart t ~clock =
  Array.unsafe_set t.buf 0 (clock + t.drain);
  t.head <- 0;
  t.count <- 1

let busy t ~clock =
  if t.count = 0 then 0
  else
    let last = Array.unsafe_get t.buf (wrap t (t.head + t.count - 1)) in
    if last > clock then last - clock else 0
