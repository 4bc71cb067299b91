(* TLB model for the trace-driven simulator.

   64 entries, fully associative, random replacement.  The replacement
   index is driven by a reference counter rather than the machine's cycle
   counter, so the simulated TLB's eviction decisions diverge from the
   hardware's — one of the acknowledged sources of error in the paper's
   Table 3 ("the TLB uses a random replacement policy; the miss rates
   predicted by the simulator demonstrate a certain amount of error").

   The simulator does not see the kernel's explicit TLB writes
   (tlbdropin / tlb_map_random): "in the simulator, which does not know
   about these writes, all TLB fills are caused by TLB misses" — the other
   Table 3 error source, reproduced simply by not modelling them. *)

type t = {
  size : int;
  wired : int;
  vpns : int array;       (* vpn of each entry, -1 invalid *)
  asids : int array;
  globals : bool array;
  (* A positive memo over [find]: slot [memo_slot vpn] records a
     (vpn, asid) pair known to match some entry.  TLB content only changes
     on a refill, and a refill drops the memo slot of the vpn it evicts,
     so a memo hit is always a true hit and the hit/miss/replacement
     sequence is bit-identical to the plain scan.  This matters because
     the fully-associative scan is the top per-reference cost once the
     multi-configuration sweep keeps several TLB models hot at once. *)
  memo_vpns : int array;
  memo_asids : int array;
  mutable refcount : int;
  mutable user_misses : int;
  mutable kernel_misses : int;  (* kseg2 *)
  mutable hits : int;
}

let memo_slots = 64

(* xor-fold: the text, data, stack and kseg2 page-table regions all start
   on aligned vpns, which a plain [land] would pile onto slot 0 *)
let memo_slot vpn = (vpn lxor (vpn lsr 6) lxor (vpn lsr 12)) land (memo_slots - 1)

let create ?(size = 64) ?(wired = 8) () =
  if size <= wired then invalid_arg "Sim_tlb.create: size <= wired";
  {
    size;
    wired;
    vpns = Array.make size (-1);
    asids = Array.make size 0;
    globals = Array.make size false;
    memo_vpns = Array.make memo_slots (-1);
    memo_asids = Array.make memo_slots 0;
    refcount = 0;
    user_misses = 0;
    kernel_misses = 0;
    hits = 0;
  }

(* The associative scan, as a top-level loop: a local recursive closure
   over [t]/[vpn]/[asid] would be heap-allocated on every memo miss. *)
let rec find t vpn asid i =
  if i >= t.size then -1
  else if
    Array.unsafe_get t.vpns i = vpn
    && (Array.unsafe_get t.globals i || Array.unsafe_get t.asids i = asid)
  then i
  else find t vpn asid (i + 1)

(* Access a mapped address; refills on miss (the software handler always
   refills exactly one entry). Returns [true] on hit. *)
let access t ~vpn ~asid ~global ~user =
  t.refcount <- t.refcount + 1;
  let m = memo_slot vpn in
  if
    Array.unsafe_get t.memo_vpns m = vpn
    && Array.unsafe_get t.memo_asids m = asid
  then begin
    t.hits <- t.hits + 1;
    true
  end
  else if find t vpn asid 0 >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set t.memo_vpns m vpn;
    Array.unsafe_set t.memo_asids m asid;
    true
  end
  else begin
    if user then t.user_misses <- t.user_misses + 1
    else t.kernel_misses <- t.kernel_misses + 1;
    let slot = t.wired + (t.refcount mod (t.size - t.wired)) in
    (* the evicted entry may be the one behind a memoed pair: every pair
       for its vpn sits in one slot *)
    let old = t.vpns.(slot) in
    if old >= 0 && t.memo_vpns.(memo_slot old) = old then
      t.memo_vpns.(memo_slot old) <- -1;
    t.vpns.(slot) <- vpn;
    t.asids.(slot) <- asid;
    t.globals.(slot) <- global;
    false
  end
