(* Trace-driven memory-system simulator.

   Consumes the reconstructed reference stream from the trace parsing
   library and drives the independent cache/TLB/write-buffer models.  The
   paper's key modelling decisions are reproduced:

   - Caches are physically indexed: virtual addresses are translated
     through the page map extracted from the running system (§4.2).
   - The user TLB miss handler is NOT in the trace (its behaviour under
     the doubled traced text would be unrepresentative); instead, a miss
     in the simulated TLB synthesizes the handler's activity — its
     instruction fetches at the UTLB vector and its page-table entry load
     (§4.1).  KTLB misses synthesize the general-vector fast path the same
     way.
   - The kernel's explicit TLB writes are invisible, and the replacement
     point differs from the hardware's, giving Table 3's error modes.
   - Write-buffer stalls never overlap with anything (Figure 3 / liv).

   There is one engine: a sweep over a list of configurations, a single
   configuration being a one-element sweep.  The straightforward
   one-configuration simulator it is proved against lives in the test
   suite as its oracle. *)

open Systrace_tracing

type config = {
  icache_bytes : int;
  icache_line : int;
  icache_ways : int;  (* 1 = the DECstation's direct-mapped caches *)
  dcache_bytes : int;
  dcache_line : int;
  dcache_ways : int;
  read_miss_penalty : int;
  uncached_penalty : int;
  wb_depth : int;
  wb_drain : int;
  (* Address-space knowledge: translate a mapped VA for [pid]; -1 for an
     unmapped page (counted, translated as [va land 0xFFFFFF]). *)
  pagemap : int -> int -> int;
  (* kseg2 linear page-table base for each pid, for synthesizing the UTLB
     handler's PTE load. *)
  pt_base : int -> int;
  utlb_handler_insns : int;  (* instructions synthesized per UTLB miss *)
  ktlb_handler_insns : int;
  tlb_entries : int;         (* 64 on the DECstation *)
}

type stats = {
  mutable insts : int;              (* from the trace *)
  mutable datas : int;
  (* per-mode split, for kernel-vs-user CPI (paper, §3.4) *)
  mutable kernel_insts : int;
  mutable user_insts : int;
  mutable kernel_stall : int;
  mutable user_stall : int;
  mutable synth_insts : int;        (* synthesized handler instructions *)
  mutable icache_misses : int;
  mutable dcache_read_misses : int;
  mutable uncached_reads : int;
  mutable uncached_writes : int;
  mutable wb_stalls : int;
  mutable utlb_misses : int;
  mutable ktlb_misses : int;
  mutable unmapped : int;
}

let kuseg_limit = 0x80000000
let kseg1_base = 0xA0000000
let kseg2_base = 0xC0000000

let asid_of_pid pid = pid + 1

(* ================================================================== *)
(* The engine: every configuration in one trace pass.

   Evaluating K configurations by K independent replays decodes and
   translates the same trace K times; the engine does the shared work
   once per reference and keeps only the per-configuration state that
   actually differs.  The decomposition follows the dependence structure
   of the one-configuration simulator:

   - Reference classification (kuseg/kseg0/kseg1/kseg2) and the per-mode
     instruction counts depend only on the trace: they are computed once
     per engine.  The page map is read once per kuseg or kseg2 reference,
     in the branch that classifies it.
   - The TLB access stream — including the synthesized handler references
     a miss injects — depends only on the trace and the TLB parameters,
     so configurations sharing (tlb_entries, handler lengths) share one
     TLB and one synthesized stream ("groups" below).
   - Cache contents depend on the trace and the group's synthesized
     stream.  Each distinct geometry is one unit, simulated once for
     every group that names it, and icache families that nest (same line
     size and set count, ascending ways) collapse into a single Mattson
     LRU stack ({!Sim_stack}), one state update for the whole family.
     The dcache's write-through/no-allocate write path breaks the stack's
     inclusion property (DESIGN.md 5f), so dcache geometries stay one
     unit each.  A unit's state is shared by its groups: trace references
     update it once, and a group holds a private copy of a set only while
     the synthesized references make its set differ (below).
   - The write buffer depends on everything above plus the penalties, but
     its clock is a pure sum of counted events: rather than ticking every
     lane's buffer on every reference, each lane derives its clock from
     the shared counters on demand ({!Sim_wb}).  Most stores do not even
     touch the lanes: a group whose shared clock part has advanced since
     the previous store by at least its bound (how long any of its
     buffers can stay busy) knows that every buffer has emptied, so none
     can stall and each holds just the store's own entry; only a store
     closer than that rebuilds the rings and runs them ([g_store]).

   Per-configuration [stats] are assembled at the end as arithmetic over
   the unit counters; a qcheck property in the test suite holds them
   byte-identical to K independent one-configuration runs.  Nothing on
   the per-reference path allocates: plain [for] loops and top-level
   recursive functions, never closures over the reference. *)

(* The engine's trace stores so far, shared by its counters.  It is the
   engine's own, not the module's: sweeps run on several domains at
   once. *)
type epoch = { mutable stores : int }

(* miss counters split by what the one-configuration simulator would have
   charged: synthesized-handler references are never charged to
   kernel/user stall, trace references are charged by mode.  [c_total]
   as it was at the last trace store is kept too, for a write buffer
   rebuilt from that store's clock: the first change after a store saves
   it. *)
type miss_ctr = {
  mutable c_synth : int;
  mutable c_kernel : int;
  mutable c_user : int;
  mutable c_total : int;
  c_epoch : epoch;
  mutable c_seen : int;     (* the store count at the last change *)
  mutable c_at_seen : int;  (* [c_total] when that count was reached *)
}

let ctr epoch =
  {
    c_synth = 0;
    c_kernel = 0;
    c_user = 0;
    c_total = 0;
    c_epoch = epoch;
    c_seen = -1;
    c_at_seen = 0;
  }

let ctx_synth = 0
let ctx_kernel = 1
let ctx_user = 2

let add m ctx d =
  let stores = m.c_epoch.stores in
  if m.c_seen <> stores then begin
    m.c_seen <- stores;
    m.c_at_seen <- m.c_total
  end;
  m.c_total <- m.c_total + d;
  if ctx = ctx_synth then m.c_synth <- m.c_synth + d
  else if ctx = ctx_kernel then m.c_kernel <- m.c_kernel + d
  else m.c_user <- m.c_user + d

(* [c_total] as the last trace store saw it *)
let[@inline] total_at_store m =
  if m.c_seen = m.c_epoch.stores then m.c_at_seen else m.c_total

(* add [d] to the counter of every stack member whose bit is set in
   [mask] (a plain cache is a one-member family: mask 1 is a miss) *)
let rec add_mask ms ctx d mask i =
  if mask <> 0 then begin
    if mask land 1 = 1 then add (Array.unsafe_get ms i) ctx d;
    add_mask ms ctx d (mask lsr 1) (i + 1)
  end

(* A unit: one cache geometry (a {!Sim_cache_assoc}) or one nesting
   icache family (a {!Sim_stack}), for every group that names it.

   The unit's state is one group's own, its owner's: the group with the
   largest TLB, which takes the fewest misses.  Trace references and the
   owner's synthesized references (the handler fetches at pa 0x0-0x1C
   and 0x80-0xDC, the PTE loads, the 0x9000 root-table load) update it.
   The other groups are its guests.  A set that a guest's own
   synthesized reference would change, or that the owner's would change
   under it, is first copied into the guest's view — a cache of the same
   geometry of which only the copied sets are ever read — and from then
   on the guest reads and writes its copy, beside the shared set: every
   trace reference to the set updates both.  The copy is dropped as soon
   as the two sets are equal again, line for line in recency order; the
   groups are run owner first, so a guest that synthesizes what the
   owner just did (a miss in every TLB, the cold ones above all) drops
   the copy at once.  The shared counts are the trace references'
   misses on the shared state; a group's counts add its correction: its
   synthesized misses, and +1/-1 wherever a trace reference missed in
   its copy and hit in the shared set or the reverse.

   The unit remembers the line it last touched, which is then at the
   front of its set, shared and private copies alike: a repeat of that
   line is a hit that changes no cache state, so it is not probed at all
   (the caches' own hit counters, which nothing reports, skip it). *)
type 'c cunit = {
  u_shift : int;
  mutable u_last : int;
  mutable u_ndiv : int;           (* private copies held *)
  u_cache : 'c;                   (* the shared state *)
  u_ctrs : miss_ctr array;        (* its trace misses, per family member *)
  u_guests : int;                 (* bit i = user i is a guest (not 0) *)
  u_views : 'c array;             (* per user, owner (0) first: private sets *)
  u_corr : miss_ctr array array;  (* per user: its counts - the shared *)
  u_div : int array;              (* per set: bit i = user i has a copy *)
}

let plain_read c pa = if Sim_cache_assoc.read c pa then 0 else 1

let converge u set i =
  Array.unsafe_set u.u_div set (Array.unsafe_get u.u_div set land lnot (1 lsl i));
  u.u_ndiv <- u.u_ndiv - 1

(* The guests in [d] (bit i = user i) hold a copy of [set], which a trace
   reference has just read with miss mask [mask] in the shared state:
   read each copy too, correct the guest's counts where it disagrees,
   and drop the copies the read made equal to the shared set.  The cache
   operations are parameters: this runs only on sets that differ. *)
let rec guests_read read same u set pa ctx mask d i =
  if d <> 0 then begin
    if d land 1 = 1 then begin
      let v = Array.unsafe_get u.u_views i in
      let mv = read v pa in
      if mv <> mask then begin
        let m = Array.unsafe_get u.u_corr i in
        add_mask m ctx 1 (mv land lnot mask) 0;
        add_mask m ctx (-1) (mask land lnot mv) 0
      end;
      if same u.u_cache v set then converge u set i
    end;
    guests_read read same u set pa ctx mask (d lsr 1) (i + 1)
  end

(* A synthesized read by guest [i]: on its copy of the set if it has one;
   otherwise on a copy taken now.  Either way, a line that already leads
   the set the guest sees is a hit that changes nothing. *)
let guest_synth read at_front copy_set same u i set pa =
  let bit = 1 lsl i and d = Array.unsafe_get u.u_div set in
  let mine = d land bit <> 0 and v = Array.unsafe_get u.u_views i in
  if not (at_front (if mine then v else u.u_cache) pa) then begin
    u.u_last <- -1;
    if not mine then begin
      copy_set u.u_cache v set;
      Array.unsafe_set u.u_div set (d lor bit);
      u.u_ndiv <- u.u_ndiv + 1
    end;
    let mv = read v pa in
    if mv <> 0 then add_mask (Array.unsafe_get u.u_corr i) ctx_synth 1 mv 0;
    if mine && same u.u_cache v set then converge u set i
  end

(* The owner's synthesized read is about to change [set] of the shared
   state: every guest without a copy takes one first, as the read is not
   in its stream. *)
let rec snapshot copy_set u set missing i =
  if missing <> 0 then begin
    if missing land 1 = 1 then begin
      copy_set u.u_cache (Array.unsafe_get u.u_views i) set;
      u.u_ndiv <- u.u_ndiv + 1
    end;
    snapshot copy_set u set (missing lsr 1) (i + 1)
  end

let owner_synth at_front copy_set u set pa =
  let d = Array.unsafe_get u.u_div set in
  if d <> u.u_guests && not (at_front u.u_cache pa) then begin
    snapshot copy_set u set (u.u_guests land lnot d) 0;
    Array.unsafe_set u.u_div set u.u_guests
  end

let plain_guests u pa ctx miss =
  let set = Sim_cache_assoc.set_of u.u_cache pa in
  guests_read plain_read Sim_cache_assoc.same_set u set pa ctx miss
    (Array.unsafe_get u.u_div set) 0

let stack_guests u pa ctx mask =
  let set = Sim_stack.set_of u.u_cache pa in
  guests_read Sim_stack.read Sim_stack.same_set u set pa ctx mask
    (Array.unsafe_get u.u_div set) 0

(* A trace read of a line other than the unit's last: the shared state,
   then the guests' copies of the set, if any. *)
let[@inline] plain_probe u pa ctx =
  if Sim_cache_assoc.read u.u_cache pa then begin
    if u.u_ndiv > 0 then plain_guests u pa ctx 0
  end
  else begin
    add (Array.unsafe_get u.u_ctrs 0) ctx 1;
    if u.u_ndiv > 0 then plain_guests u pa ctx 1
  end

let[@inline] stack_probe u pa ctx =
  let mask = Sim_stack.read u.u_cache pa in
  if mask <> 0 then add_mask u.u_ctrs ctx 1 mask 0;
  if u.u_ndiv > 0 then stack_guests u pa ctx mask

(* a trace read by every dcache unit *)
let plain_reads units pa ctx =
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift in
    if ln <> u.u_last then begin
      u.u_last <- ln;
      plain_probe u pa ctx
    end
  done

(* A synthesized read by one group, its user index in each unit in
   [users].  The owner's read leaves the last line to units with no
   guest: where a guest holds a copy, the line does not lead it. *)
let plain_synths units users pa =
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift and k = Array.unsafe_get users i in
    if k = 0 then begin
      if ln <> u.u_last then begin
        let c = u.u_cache in
        if u.u_guests <> 0 then
          owner_synth Sim_cache_assoc.at_front Sim_cache_assoc.copy_set u
            (Sim_cache_assoc.set_of c pa) pa;
        u.u_last <- (if u.u_guests = 0 then ln else -1);
        if not (Sim_cache_assoc.read c pa) then
          add (Array.unsafe_get (Array.unsafe_get u.u_corr 0) 0) ctx_synth 1
      end
    end
    else
      guest_synth plain_read Sim_cache_assoc.at_front Sim_cache_assoc.copy_set
        Sim_cache_assoc.same_set u k (Sim_cache_assoc.set_of u.u_cache pa) pa
  done

let stack_synths units users pa =
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift and k = Array.unsafe_get users i in
    if k = 0 then begin
      if ln <> u.u_last then begin
        let st = u.u_cache in
        if u.u_guests <> 0 then
          owner_synth Sim_stack.at_front Sim_stack.copy_set u
            (Sim_stack.set_of st pa) pa;
        u.u_last <- (if u.u_guests = 0 then ln else -1);
        let mask = Sim_stack.read st pa in
        if mask <> 0 then
          add_mask (Array.unsafe_get u.u_corr 0) ctx_synth 1 mask 0
      end
    end
    else
      guest_synth Sim_stack.read Sim_stack.at_front Sim_stack.copy_set
        Sim_stack.same_set u k (Sim_stack.set_of u.u_cache pa) pa
  done

(* write-through/no-allocate: a store only moves the caches' own write
   counters, which a qcheck property ties to the returned hit/miss; a
   write miss leaves its set as it was.  The guests' copies of the set
   take the store too.  [acc]: bit 1 = some copy hit, bit 0 = some
   missed. *)
let rec guests_write u set pa d i acc =
  if d = 0 then acc
  else
    let acc =
      if d land 1 = 0 then acc
      else begin
        let v = Array.unsafe_get u.u_views i in
        if Sim_cache_assoc.write v pa then begin
          if Sim_cache_assoc.same_set u.u_cache v set then converge u set i;
          acc lor 2
        end
        else acc lor 1
      end
    in
    guests_write u set pa (d lsr 1) (i + 1) acc

let plain_writes units pa =
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift in
    if ln <> u.u_last then begin
      let c = u.u_cache in
      let hit = Sim_cache_assoc.write c pa in
      if u.u_ndiv = 0 then (if hit then u.u_last <- ln)
      else begin
        let set = Sim_cache_assoc.set_of c pa in
        let r =
          guests_write u set pa (Array.unsafe_get u.u_div set) 0
            (if hit then 2 else 1)
        in
        (* the line leads every copy of its set only if every copy hit;
           a hit in some copies only may have reordered them under the
           last line *)
        if r = 2 then u.u_last <- ln else if r = 3 then u.u_last <- -1
      end
    end
  done

(* configurations whose TLB parameters agree see the same reference
   stream (trace + synthesized handlers) *)
(* A TLB access known to hit again: [m_vpn] and [m_asid] were found or
   refilled when the TLB had taken [m_miss] misses, and only a miss
   refills (evicts). *)
type tlb_memo = {
  mutable m_vpn : int;
  mutable m_asid : int;
  mutable m_miss : int;
}

type group = {
  gr_tlb : Sim_tlb.t;
  gr_mi : tlb_memo;  (* the last user ifetch's page, user data's, kseg2's *)
  gr_md : tlb_memo;
  gr_mk : tlb_memo;
  gr_utlb_insns : int;
  gr_ktlb_insns : int;
  (* the units its lanes name, and its user index in each (0: it owns
     the unit): icache units of one geometry and nesting families, dcache
     units *)
  gr_icp : Sim_cache_assoc.t cunit array;
  gr_icp_user : int array;
  gr_ics : Sim_stack.t cunit array;
  gr_ics_user : int array;
  gr_dc : Sim_cache_assoc.t cunit array;
  gr_dc_user : int array;
  mutable gr_lanes : lane array;
  gr_drain : int;             (* its lanes' largest drain *)
  mutable gr_utlb : int;
  mutable gr_ktlb : int;
  mutable gr_synth : int;
  mutable gr_unmapped : int;  (* synthesized PTE loads off the page map *)
  (* the write buffers as of the last trace store ([g_store]): the
     lanes' shared clock part then, the most that any lane's newest
     entry can outlast its lane's clock, and whether the rings were
     left behind (each buffer then holds that store's entry alone) *)
  mutable gr_wb_base : int;
  mutable gr_wb_bound : int;
  mutable gr_wb_stale : bool;
}

(* one configuration's view: its group, its cache-unit counters, and its
   own write buffer (the only state no two distinct configs can share) *)
and lane = {
  la_rmp : int;  (* read-miss and uncached penalties *)
  la_up : int;
  la_group : group;
  la_ic : miss_ctr;   (* the shared count of its icache geometry *)
  la_icx : miss_ctr;  (* and its group's correction *)
  la_dc : miss_ctr;
  la_dcx : miss_ctr;
  la_wb : Sim_wb.t;
  mutable la_stall : int;
  mutable la_stall_k : int;  (* the kernel's share of [la_stall] *)
}

type sweep = {
  e_groups : group array;
  e_icp : Sim_cache_assoc.t cunit array;
  e_ics : Sim_stack.t cunit array;
  e_dc : Sim_cache_assoc.t cunit array;
  e_lanes : lane array;  (* in configuration order *)
  e_pagemap : int -> int -> int;
  e_pt_base : int -> int;
  e_epoch : epoch;                (* the trace stores, shared by counters *)
  mutable e_unc_at_store : int;   (* the uncached events at the last one *)
  mutable e_lane_runs : int;      (* group stores that ran the lanes *)
  (* trace-only counters, identical for every configuration *)
  mutable sv_insts : int;
  mutable sv_datas : int;
  mutable sv_kernel_insts : int;
  mutable sv_user_insts : int;
  mutable sv_unc_ifetch : int;
  mutable sv_unc_dload : int;
  mutable sv_unc_dstore : int;
  mutable sv_unc_kernel : int;  (* uncached events, by mode, for charging *)
  mutable sv_unc_user : int;
  mutable sv_dloads_cached : int;
  mutable sv_unmapped : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let memo () = { m_vpn = -1; m_asid = -1; m_miss = -1 }

(* Lines are indexed by shifting ([log2 line]), so a line size that is not
   a power of two would be simulated as the next smaller one. *)
let nsets_of ~what ~bytes ~line ~ways =
  if line <= 0 || line land (line - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Memsim.sweep: %s line %d is not a power of two" what
         line)
  else if bytes <= 0 || ways <= 0 || bytes mod (line * ways) <> 0 then
    invalid_arg ("Memsim.sweep: bad " ^ what ^ " geometry")
  else bytes / (line * ways)

let gkey c = (c.tlb_entries, c.utlb_handler_insns, c.ktlb_handler_insns)

(* [gkey c = gk], without building the key *)
let in_group (tlb, uh, kh) c =
  c.tlb_entries = tlb && c.utlb_handler_insns = uh && c.ktlb_handler_insns = kh

let ic_geom c =
  ( c.icache_line,
    nsets_of ~what:"icache" ~bytes:c.icache_bytes ~line:c.icache_line
      ~ways:c.icache_ways,
    c.icache_ways )

(* an icache unit is a nesting family: same line size, same set count *)
let ic_family c =
  let line, nsets, _ = ic_geom c in
  (line, nsets)

let dc_geom c =
  ( c.dcache_line,
    nsets_of ~what:"dcache" ~bytes:c.dcache_bytes ~line:c.dcache_line
      ~ways:c.dcache_ways,
    c.dcache_ways )

let distinct l =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l
  |> List.rev

let rec index_of x = function
  | [] -> invalid_arg "Memsim.index_of"
  | y :: l -> if x = y then 0 else 1 + index_of x l

(* The units of one geometry: [users] are the groups that name it, owner
   first; a copy's owner is a bit of an int, so a unit serves at most 62
   groups and more take further units.  [make ()] builds one cache of the
   geometry, [members] is the family's size. *)
let rec cunits epoch users ~line ~nsets ~members make =
  let rec take n = function
    | x :: l when n > 0 ->
      let a, b = take (n - 1) l in
      (x :: a, b)
    | l -> ([], l)
  in
  match take 62 users with
  | [], _ -> []
  | mine, rest ->
    let n = List.length mine in
    let counters () = Array.init members (fun _ -> ctr epoch) in
    let shared = make () in
    ( mine,
      {
        u_shift = log2 line;
        u_last = -1;
        u_ndiv = 0;
        u_cache = shared;
        u_ctrs = counters ();
        u_guests = ((1 lsl n) - 1) land lnot 1;
        u_views = Array.init n (fun i -> if i = 0 then shared else make ());
        u_corr = Array.init n (fun _ -> counters ());
        u_div = Array.make (if n > 1 then nsets else 0) 0;
      } )
    :: cunits epoch rest ~line ~nsets ~members make

let nonnegative field v =
  if v < 0 then invalid_arg (Printf.sprintf "Memsim.sweep: %s %d < 0" field v)

(* The engine over [cfgs], which must share one page map. *)
let sweep cfgs =
  let c0 =
    match cfgs with
    | [] -> invalid_arg "Memsim.sweep: no configurations"
    | c0 :: _ -> c0
  in
  List.iter
    (fun c ->
      if c.pagemap != c0.pagemap || c.pt_base != c0.pt_base then
        invalid_arg
          "Memsim.sweep: all configurations must share pagemap and pt_base \
           (translation is done once per reference)")
    cfgs;
  let epoch = { stores = 0 } in
  (* the groups, largest TLB first: each unit's owner is the first group
     that names it, and the groups run in this order *)
  let order =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> compare b a)
      (distinct (List.map gkey cfgs))
  in
  (* each unit as (key, its groups, its state) *)
  let units key_of ~line ~nsets ~members make key =
    let names gk =
      List.exists (fun c -> in_group gk c && key_of c = key) cfgs
    in
    List.map
      (fun (users, u) -> (key, users, u))
      (cunits epoch (List.filter names order) ~line ~nsets ~members make)
  in
  (* the icache geometries first: a grid varies both caches together,
     and its bad line or size is reported as the icache's *)
  let ic_geoms = distinct (List.map ic_geom cfgs) in
  let dc_units =
    List.concat_map
      (fun ((line, nsets, ways) as g) ->
        units dc_geom ~line ~nsets ~members:1
          (fun () ->
            Sim_cache_assoc.create ~size_bytes:(line * nsets * ways)
              ~line_bytes:line ~ways ())
          g)
      (distinct (List.map dc_geom cfgs))
  in
  (* icache units: a family of one associativity is a plain cache; a
     nesting family (same line, same nsets, several associativities)
     collapses into one LRU stack *)
  let family_ways (line, nsets) =
    List.sort compare
      (List.filter_map
         (fun (l, n, w) -> if l = line && n = nsets then Some w else None)
         ic_geoms)
  in
  let families = distinct (List.map ic_family cfgs) in
  let icp_units =
    List.concat_map
      (fun ((line, nsets) as fam) ->
        match family_ways fam with
        | [ w ] ->
          units ic_family ~line ~nsets ~members:1
            (fun () ->
              Sim_cache_assoc.create ~size_bytes:(line * nsets * w)
                ~line_bytes:line ~ways:w ())
            fam
        | _ -> [])
      families
  in
  let ics_units =
    List.concat_map
      (fun ((line, nsets) as fam) ->
        match family_ways fam with
        | [ _ ] -> []
        | ways ->
          units ic_family ~line ~nsets ~members:(List.length ways)
            (fun () ->
              Sim_stack.create ~line_bytes:line ~nsets ~ways:(Array.of_list ways))
            fam)
      families
  in
  let states l = Array.of_list (List.map (fun (_, _, u) -> u) l) in
  (* a group's units, its user index in each, and its lanes' unit *)
  let mine gk l = List.filter (fun (_, users, _) -> List.mem gk users) l in
  let indices gk l =
    Array.of_list (List.map (fun (_, users, _) -> index_of gk users) l)
  in
  let find gk key l =
    List.find (fun (k, users, _) -> k = key && List.mem gk users) l
  in
  let groups =
    List.map
      (fun ((tlb_entries, uh, kh) as gk) ->
        let icp = mine gk icp_units and ics = mine gk ics_units
        and dc = mine gk dc_units in
        ( gk,
          {
            gr_tlb = Sim_tlb.create ~size:tlb_entries ();
            gr_mi = memo ();
            gr_md = memo ();
            gr_mk = memo ();
            gr_utlb_insns = uh;
            gr_ktlb_insns = kh;
            gr_icp = states icp;
            gr_icp_user = indices gk icp;
            gr_ics = states ics;
            gr_ics_user = indices gk ics;
            gr_dc = states dc;
            gr_dc_user = indices gk dc;
            gr_lanes = [||];
            gr_drain =
              List.fold_left
                (fun d c -> if in_group gk c then max d c.wb_drain else d)
                0 cfgs;
            gr_utlb = 0;
            gr_ktlb = 0;
            gr_synth = 0;
            gr_unmapped = 0;
            gr_wb_base = 0;
            gr_wb_bound = 0;
            gr_wb_stale = false;
          } ))
      order
  in
  (* a lane's counters in a unit: the shared member count, and its
     group's correction *)
  let counters gk (_, users, u) member =
    (u.u_ctrs.(member), u.u_corr.(index_of gk users).(member))
  in
  let lanes =
    List.map
      (fun c ->
        if c.wb_depth < 1 then
          invalid_arg
            (Printf.sprintf "Memsim.sweep: write-buffer depth %d < 1" c.wb_depth);
        (* a lane's clock never runs backwards, which [g_store] relies on *)
        nonnegative "read_miss_penalty" c.read_miss_penalty;
        nonnegative "uncached_penalty" c.uncached_penalty;
        nonnegative "wb_drain" c.wb_drain;
        let gk = gkey c and fam = ic_family c in
        let la_ic, la_icx =
          match family_ways fam with
          | [ _ ] -> counters gk (find gk fam icp_units) 0
          | ways ->
            counters gk (find gk fam ics_units) (index_of c.icache_ways ways)
        in
        let la_dc, la_dcx = counters gk (find gk (dc_geom c) dc_units) 0 in
        {
          la_rmp = c.read_miss_penalty;
          la_up = c.uncached_penalty;
          la_group = List.assoc gk groups;
          la_ic;
          la_icx;
          la_dc;
          la_dcx;
          la_wb = Sim_wb.create ~depth:c.wb_depth ~drain_cycles:c.wb_drain;
          la_stall = 0;
          la_stall_k = 0;
        })
      cfgs
  in
  let groups = List.map snd groups in
  List.iter
    (fun g ->
      g.gr_lanes <- Array.of_list (List.filter (fun l -> l.la_group == g) lanes))
    groups;
  {
    e_groups = Array.of_list groups;
    e_icp = states icp_units;
    e_ics = states ics_units;
    e_dc = states dc_units;
    e_lanes = Array.of_list lanes;
    e_pagemap = c0.pagemap;
    e_pt_base = c0.pt_base;
    e_epoch = epoch;
    e_unc_at_store = 0;
    e_lane_runs = 0;
    sv_insts = 0;
    sv_datas = 0;
    sv_kernel_insts = 0;
    sv_user_insts = 0;
    sv_unc_ifetch = 0;
    sv_unc_dload = 0;
    sv_unc_dstore = 0;
    sv_unc_kernel = 0;
    sv_unc_user = 0;
    sv_dloads_cached = 0;
    sv_unmapped = 0;
  }

(* [Sim_tlb.access] on the group's TLB.  A page that [m] knows is a hit,
   counted as the TLB counts one, without the call. *)
let[@inline] g_tlb g m ~vpn ~asid ~global ~user =
  let t = g.gr_tlb in
  let misses = t.Sim_tlb.user_misses + t.Sim_tlb.kernel_misses in
  if vpn = m.m_vpn && asid = m.m_asid && misses = m.m_miss then begin
    t.Sim_tlb.refcount <- t.Sim_tlb.refcount + 1;
    t.Sim_tlb.hits <- t.Sim_tlb.hits + 1;
    true
  end
  else begin
    let hit = Sim_tlb.access t ~vpn ~asid ~global ~user in
    m.m_vpn <- vpn;
    m.m_asid <- asid;
    m.m_miss <- (if hit then misses else misses + 1);
    hit
  end

(* a synthesized read by every unit of group [g] *)
let g_ic_read g pa =
  plain_synths g.gr_icp g.gr_icp_user pa;
  stack_synths g.gr_ics g.gr_ics_user pa

let g_dc_read g pa = plain_synths g.gr_dc g.gr_dc_user pa

(* The synthesized handler paths: the KTLB refill fast path (ifetches at
   the general vector plus the kseg0 root-table load, approximated by a
   fixed address), the kseg2 PTE load (through the TLB as a global
   mapping, so it can itself take a KTLB miss) and the UTLB refill
   handler (ifetches at the UTLB vector plus that PTE load).  No
   write-buffer ticks: the clocks are derived from these counters. *)
let g_synth_ktlb g =
  g.gr_ktlb <- g.gr_ktlb + 1;
  for k = 0 to g.gr_ktlb_insns - 1 do
    g.gr_synth <- g.gr_synth + 1;
    g_ic_read g (0x80 + (k * 4))
  done;
  g_dc_read g 0x9000

let g_kseg2_load e g pid va =
  if not (g_tlb g g.gr_mk ~vpn:(va lsr 12) ~asid:0 ~global:true
            ~user:false)
  then g_synth_ktlb g;
  let pa = e.e_pagemap pid va in
  let pa =
    if pa >= 0 then pa
    else begin
      g.gr_unmapped <- g.gr_unmapped + 1;
      va land 0x00FFFFFF
    end
  in
  g_dc_read g pa

let g_synth_utlb e g pid vpn =
  g.gr_utlb <- g.gr_utlb + 1;
  for k = 0 to g.gr_utlb_insns - 1 do
    g.gr_synth <- g.gr_synth + 1;
    g_ic_read g (k * 4)
  done;
  g_kseg2_load e g pid (e.e_pt_base pid + (vpn * 4))

(* Issue a store to the write buffer of every lane of [g], once the
   caches are current for the reference, and [unc] uncached events have
   been counted.  A lane's clock is derived on demand: the
   one-configuration simulator ticks 1 per instruction (trace and
   synthesized, plus one extra before each KTLB root-table load), the
   uncached penalty per uncached event, and the read-miss penalty per
   cache read miss; stalls advance the clock too.  All of those are
   already counted, so the clock is a sum.

   Most stores need no lane at all.  Between two stores each lane's
   clock advances by at least the group's shared part [base], as no
   penalty is negative.  If [base] has advanced since the group's last
   store by at least [gr_wb_bound], the most that any lane's newest entry
   outlasted its lane's clock then, every entry has retired: no lane
   stalls, and each buffer holds this store's entry alone, [drain]
   cycles after its lane's clock.  The rings are left stale and the
   bound becomes the largest drain.  A store closer than that rebuilds
   each stale ring from its lane's clock at the last store (the counts
   [total_at_store] gives and the uncached count saved then; the stall
   has not moved since), runs every lane exactly, and bounds the next
   store by the rings. *)
let g_store e g kernel unc =
  let base = e.sv_insts + g.gr_synth + g.gr_ktlb in
  if base - g.gr_wb_base >= g.gr_wb_bound then begin
    g.gr_wb_bound <- g.gr_drain;
    g.gr_wb_stale <- true
  end
  else begin
    e.e_lane_runs <- e.e_lane_runs + 1;
    let lanes = g.gr_lanes and stale = g.gr_wb_stale in
    let base0 = g.gr_wb_base and unc0 = e.e_unc_at_store in
    let bound = ref 0 in
    for i = 0 to Array.length lanes - 1 do
      let l = Array.unsafe_get lanes i in
      if stale then begin
        let misses =
          total_at_store l.la_ic + total_at_store l.la_icx
          + total_at_store l.la_dc + total_at_store l.la_dcx
        in
        Sim_wb.restart l.la_wb
          ~clock:(base0 + (unc0 * l.la_up) + (misses * l.la_rmp) + l.la_stall)
      end;
      let misses =
        l.la_ic.c_total + l.la_icx.c_total + l.la_dc.c_total + l.la_dcx.c_total
      in
      let clock = base + (unc * l.la_up) + (misses * l.la_rmp) + l.la_stall in
      let stall = Sim_wb.store l.la_wb ~clock in
      if stall > 0 then begin
        l.la_stall <- l.la_stall + stall;
        if kernel then l.la_stall_k <- l.la_stall_k + stall
      end;
      let busy = Sim_wb.busy l.la_wb ~clock:(clock + stall) in
      if busy > !bound then bound := busy
    done;
    g.gr_wb_bound <- !bound;
    g.gr_wb_stale <- false
  end;
  g.gr_wb_base <- base

(* a mapped trace reference's physical address, read from the page map *)
let trace_pa e pid addr =
  let pa = e.e_pagemap pid addr in
  if pa >= 0 then pa
  else begin
    e.sv_unmapped <- e.sv_unmapped + 1;
    addr land 0x00FFFFFF
  end

(* a trace read by every icache unit: [plain_reads] and [stack_reads] in
   one call *)
let e_ic_read e pa ctx =
  let units = e.e_icp in
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift in
    if ln <> u.u_last then begin
      u.u_last <- ln;
      plain_probe u pa ctx
    end
  done;
  let units = e.e_ics in
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.u_shift in
    if ln <> u.u_last then begin
      u.u_last <- ln;
      stack_probe u pa ctx
    end
  done

(* Every group's TLB sees the reference (and synthesizes its handler
   references) before the caches see the reference itself. *)
let sweep_on_inst e addr pid kernel =
  e.sv_insts <- e.sv_insts + 1;
  if kernel then e.sv_kernel_insts <- e.sv_kernel_insts + 1
  else e.sv_user_insts <- e.sv_user_insts + 1;
  let ctx = if kernel then ctx_kernel else ctx_user in
  let groups = e.e_groups in
  if addr < kuseg_limit then begin
    let vpn = addr lsr 12 and asid = asid_of_pid pid in
    let pa = trace_pa e pid addr in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (g_tlb g g.gr_mi ~vpn ~asid ~global:false ~user:true)
      then g_synth_utlb e g pid vpn
    done;
    e_ic_read e pa ctx
  end
  else if addr < kseg1_base then e_ic_read e (addr - 0x80000000) ctx
  else if addr < kseg2_base then begin
    e.sv_unc_ifetch <- e.sv_unc_ifetch + 1;
    if kernel then e.sv_unc_kernel <- e.sv_unc_kernel + 1
    else e.sv_unc_user <- e.sv_unc_user + 1
  end
  else begin
    let vpn = addr lsr 12 in
    let pa = trace_pa e pid addr in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (g_tlb g g.gr_mk ~vpn ~asid:0 ~global:true ~user:false)
      then g_synth_ktlb g
    done;
    e_ic_read e pa ctx
  end

let sweep_on_data e addr pid kernel is_load _bytes =
  e.sv_datas <- e.sv_datas + 1;
  if addr >= kseg1_base && addr < kseg2_base then begin
    (* uncached: classification and charge are trace-only, no per-group
       state is touched *)
    if is_load then e.sv_unc_dload <- e.sv_unc_dload + 1
    else e.sv_unc_dstore <- e.sv_unc_dstore + 1;
    if kernel then e.sv_unc_kernel <- e.sv_unc_kernel + 1
    else e.sv_unc_user <- e.sv_unc_user + 1
  end
  else begin
    let ctx = if kernel then ctx_kernel else ctx_user in
    if is_load then e.sv_dloads_cached <- e.sv_dloads_cached + 1;
    let kuseg = addr < kuseg_limit in
    let kseg2 = addr >= kseg2_base in
    let vpn = addr lsr 12 in
    let pa =
      if kuseg || kseg2 then trace_pa e pid addr else addr - 0x80000000
    in
    let groups = e.e_groups in
    if kuseg then begin
      let asid = asid_of_pid pid in
      for i = 0 to Array.length groups - 1 do
        let g = Array.unsafe_get groups i in
        if not (g_tlb g g.gr_md ~vpn ~asid ~global:false ~user:true)
        then g_synth_utlb e g pid vpn
      done
    end
    else if kseg2 then
      for i = 0 to Array.length groups - 1 do
        let g = Array.unsafe_get groups i in
        if not (g_tlb g g.gr_mk ~vpn ~asid:0 ~global:true ~user:false)
        then g_synth_ktlb g
      done;
    if is_load then plain_reads e.e_dc pa ctx
    else begin
      plain_writes e.e_dc pa;
      let unc = e.sv_unc_ifetch + e.sv_unc_dload + e.sv_unc_dstore in
      for i = 0 to Array.length groups - 1 do
        g_store e (Array.unsafe_get groups i) kernel unc
      done;
      e.e_unc_at_store <- unc;
      e.e_epoch.stores <- e.e_epoch.stores + 1
    end
  end

let sweep_handlers sw : Parser.handlers =
  {
    Parser.on_inst = (fun addr pid kernel -> sweep_on_inst sw addr pid kernel);
    on_data =
      (fun addr pid kernel is_load bytes ->
        sweep_on_data sw addr pid kernel is_load bytes);
  }

let sweep_sink ?live sw parser : Sink.t =
  Parser.set_handlers parser (sweep_handlers sw);
  Sink.to_parser ?live parser

let sweep_private_sets e =
  let held units = Array.fold_left (fun n u -> n + u.u_ndiv) 0 units in
  held e.e_icp + held e.e_ics + held e.e_dc

let sweep_lane_work e =
  (e.e_lane_runs, e.e_epoch.stores * Array.length e.e_groups)

(* per-lane results, in configuration order *)
let sweep_stats e =
  Array.map
    (fun l ->
      let g = l.la_group and rmp = l.la_rmp and up = l.la_up in
      {
        insts = e.sv_insts;
        datas = e.sv_datas;
        kernel_insts = e.sv_kernel_insts;
        user_insts = e.sv_user_insts;
        kernel_stall =
          ((l.la_ic.c_kernel + l.la_icx.c_kernel + l.la_dc.c_kernel
           + l.la_dcx.c_kernel)
           * rmp)
          + (e.sv_unc_kernel * up) + l.la_stall_k;
        user_stall =
          ((l.la_ic.c_user + l.la_icx.c_user + l.la_dc.c_user
           + l.la_dcx.c_user)
           * rmp)
          + (e.sv_unc_user * up) + l.la_stall - l.la_stall_k;
        synth_insts = g.gr_synth;
        icache_misses = l.la_ic.c_total + l.la_icx.c_total;
        dcache_read_misses = l.la_dc.c_total + l.la_dcx.c_total;
        uncached_reads = e.sv_unc_ifetch + e.sv_unc_dload;
        uncached_writes = e.sv_unc_dstore;
        wb_stalls = l.la_stall;
        utlb_misses = g.gr_utlb;
        ktlb_misses = g.gr_ktlb;
        unmapped = e.sv_unmapped + g.gr_unmapped;
      })
    e.e_lanes

let sweep_accesses e =
  Array.map
    (fun l ->
      let g = l.la_group in
      ( e.sv_insts - e.sv_unc_ifetch + g.gr_synth,
        e.sv_dloads_cached + g.gr_utlb + g.gr_ktlb ))
    e.e_lanes

(* A (size x line x TLB entries x WB depth) geometry grid over [base].
   With [nested] (the default) associativity scales with size at a fixed
   set count — ways = size / min size — so each (line, TLB) family of
   sizes nests and the sweep's icache stack fast path covers the whole
   size axis in one unit.  With [~nested:false] every size is
   direct-mapped (set counts differ, nothing nests: one cache unit per
   geometry). *)
let grid ?(nested = true) ~base ~sizes ~lines ~tlb_entries ~wb_depths () :
    (string * config) list =
  if sizes = [] || lines = [] || tlb_entries = [] || wb_depths = [] then
    invalid_arg "Memsim.grid: empty axis";
  if List.exists (fun s -> s <= 0) sizes then
    invalid_arg "Memsim.grid: sizes must be positive";
  let min_size = List.fold_left min max_int sizes in
  List.concat_map
    (fun size ->
      let ways =
        if not nested then 1
        else if size mod min_size <> 0 then
          invalid_arg "Memsim.grid: nested sizes must be multiples of the \
                       smallest"
        else size / min_size
      in
      List.concat_map
        (fun line ->
          List.concat_map
            (fun tlb ->
              List.map
                (fun wb ->
                  ( Printf.sprintf "%dK/%dB/%dw tlb%d wb%d" (size / 1024) line
                      ways tlb wb,
                    {
                      base with
                      icache_bytes = size;
                      icache_line = line;
                      icache_ways = ways;
                      dcache_bytes = size;
                      dcache_line = line;
                      dcache_ways = ways;
                      tlb_entries = tlb;
                      wb_depth = wb;
                    } ))
                wb_depths)
            tlb_entries)
        lines)
    sizes
