(* Write buffer between the write-through data cache and memory.

   Four entries; each retires to memory in [drain_cycles] of memory time,
   strictly in order.  A store issued when all four entries are occupied
   stalls the CPU until the oldest entry retires.  The buffer is modelled
   as a queue of absolute retirement times, which lets write-buffer drain
   overlap with floating-point latency in the machine model — the overlap
   the paper's trace-driven simulator does NOT model, and the cause of the
   liv prediction error in Figure 3.

   The queue is a ring of ints rather than a list: [store] runs once per
   simulated store inside the interpreter's hottest loop, and the ring
   keeps that path allocation-free. *)

type t = {
  depth : int;
  drain_cycles : int;
  ring : int array;            (* absolute retire cycles, ascending *)
  mutable head : int;          (* index of the oldest entry *)
  mutable count : int;
  mutable stall_cycles : int;
  mutable stores : int;
}

let create ?(depth = 4) ?(drain_cycles = 6) () =
  {
    depth;
    drain_cycles;
    ring = Array.make depth 0;
    head = 0;
    count = 0;
    stall_cycles = 0;
    stores = 0;
  }

let reset t =
  t.head <- 0;
  t.count <- 0;
  t.stall_cycles <- 0;
  t.stores <- 0

(* Ring index arithmetic uses compare-and-subtract, not [mod]: integer
   division by the run-time [depth] costs more than everything else the
   store path does.  All indices stay in [0, 2*depth), so one subtract
   wraps them. *)
let[@inline] wrap t i = if i >= t.depth then i - t.depth else i

(* Drop entries that have retired by [now] (they are ascending, so a
   prefix of the ring). *)
let expire t now =
  while t.count > 0 && t.ring.(t.head) <= now do
    t.head <- wrap t (t.head + 1);
    t.count <- t.count - 1
  done

(* Issue a store at absolute cycle [now]; returns the stall in cycles the
   CPU suffers (0 if a buffer slot is free). *)
let store t ~now =
  expire t now;
  t.stores <- t.stores + 1;
  let stall, now =
    if t.count < t.depth then (0, now)
    else begin
      (* Stall until the oldest entry retires. *)
      let oldest = t.ring.(t.head) in
      t.head <- wrap t (t.head + 1);
      t.count <- t.count - 1;
      (oldest - now, oldest)
    end
  in
  let last =
    if t.count = 0 then now else t.ring.(wrap t (t.head + t.count - 1))
  in
  let retire = max now last + t.drain_cycles in
  t.ring.(wrap t (t.head + t.count)) <- retire;
  t.count <- t.count + 1;
  t.stall_cycles <- t.stall_cycles + stall;
  stall

let pending t ~now =
  expire t now;
  t.count
