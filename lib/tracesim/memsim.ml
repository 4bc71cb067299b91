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
     per engine.  The page-map lookup is made once per reference, when
     the reference is batched (below).
   - The TLB access stream — including the synthesized handler references
     a miss injects — depends only on the trace and the TLB parameters,
     so configurations sharing (tlb_entries, handler lengths) share one
     TLB and one synthesized stream ("groups" below).
   - Cache contents depend on the trace and the group's synthesized
     stream; within a group, distinct geometries are simulated once each,
     shared by every configuration that names them — and icache families
     that nest (same line size and set count, ascending ways) collapse
     into a single Mattson LRU stack ({!Sim_stack}), one state update for
     the whole family.  The dcache's write-through/no-allocate write path
     breaks the stack's inclusion property (DESIGN.md 5f), so dcache
     geometries stay one unit each.
   - The write buffer depends on everything above plus the penalties, but
     its clock is a pure sum of counted events: rather than ticking every
     lane's buffer on every reference, each lane derives its clock from
     the shared counters on demand and only pays per store ({!Sim_wb}).

   Per-configuration [stats] are assembled at the end as arithmetic over
   the unit counters; a qcheck property in the test suite holds them
   byte-identical to K independent one-configuration runs.  Nothing on
   the per-reference path allocates: plain [for] loops and top-level
   recursive functions, never closures over the reference. *)

(* miss counters split by what the one-configuration simulator would have
   charged: synthesized-handler references are never charged to
   kernel/user stall, trace references are charged by mode *)
type miss_ctr = {
  mutable c_synth : int;
  mutable c_kernel : int;
  mutable c_user : int;
  mutable c_total : int;
}

let ctr () = { c_synth = 0; c_kernel = 0; c_user = 0; c_total = 0 }

let ctx_synth = 0
let ctx_kernel = 1
let ctx_user = 2

let bump m ctx =
  m.c_total <- m.c_total + 1;
  if ctx = ctx_synth then m.c_synth <- m.c_synth + 1
  else if ctx = ctx_kernel then m.c_kernel <- m.c_kernel + 1
  else m.c_user <- m.c_user + 1

(* bump the counter of every stack member whose bit is set in [mask] *)
let rec bump_mask ms ctx mask i =
  if mask <> 0 then begin
    if mask land 1 = 1 then bump (Array.unsafe_get ms i) ctx;
    bump_mask ms ctx (mask lsr 1) (i + 1)
  end

type ic_kind =
  | Ic_plain of Sim_cache_assoc.t * miss_ctr
  | Ic_stack of Sim_stack.t * miss_ctr array  (* counters in ways order *)

(* Each unit remembers the line it last touched, which is then at the
   front of its set: a repeat of that line is a hit that changes no cache
   state, so it is not probed at all (the units' own hit counters, which
   nothing reports, skip it). *)
type ic_unit = { ic_shift : int; mutable ic_last : int; ic : ic_kind }

type dc_unit = {
  du_cache : Sim_cache_assoc.t;
  du_ctr : miss_ctr;
  du_shift : int;
  mutable du_last : int;
}

(* configurations whose TLB parameters agree see the same reference
   stream (trace + synthesized handlers) and share everything below *)
type group = {
  gr_tlb : Sim_tlb.t;
  gr_utlb_insns : int;
  gr_ktlb_insns : int;
  gr_ic : ic_unit array;
  gr_dc : dc_unit array;
  mutable gr_lanes : lane array;
  mutable gr_utlb : int;
  mutable gr_ktlb : int;
  mutable gr_synth : int;
  mutable gr_unmapped : int;  (* synthesized PTE loads off the page map *)
}

(* one configuration's view: its group, its cache-unit counters, and its
   own write buffer (the only state no two distinct configs can share) *)
and lane = {
  la_index : int;  (* position in the sweep's configuration list *)
  la_rmp : int;    (* read-miss and uncached penalties *)
  la_up : int;
  la_group : group;
  la_ic : miss_ctr;
  la_dc : miss_ctr;
  la_wb : Sim_wb.t;
  mutable la_stall : int;
  mutable la_stall_k : int;  (* the kernel's share of [la_stall] *)
}

type engine = {
  e_groups : group array;
  e_pagemap : int -> int -> int;
  e_pt_base : int -> int;
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

(* The engine over [members], (index, config) pairs sharing one page map. *)
let engine members =
  let cfgs = List.map snd members in
  let c0 = List.hd cfgs in
  (* per group: the shared state plus lookup tables from a lane's cache
     geometry to its member counter / unit *)
  let built =
    List.map
      (fun ((tlb_entries, uh, kh) as key) ->
        let members = List.filter (fun c -> gkey c = key) cfgs in
        let dc_units =
          List.map
            (fun ((line, nsets, ways) as g) ->
              ( g,
                {
                  du_cache =
                    Sim_cache_assoc.create ~size_bytes:(line * nsets * ways)
                      ~line_bytes:line ~ways ();
                  du_ctr = ctr ();
                  du_shift = log2 line;
                  du_last = -1;
                } ))
            (distinct (List.map dc_geom members))
        in
        (* icache units: nesting families (same line, same nsets, several
           associativities) collapse into one LRU stack *)
        let ic_geoms = distinct (List.map ic_geom members) in
        let ic_units =
          List.map
            (fun (line, nsets) ->
              let ways =
                List.sort compare
                  (List.filter_map
                     (fun (l, n, w) ->
                       if l = line && n = nsets then Some w else None)
                     ic_geoms)
              in
              let mk ic = { ic_shift = log2 line; ic_last = -1; ic } in
              match ways with
              | [ w ] ->
                let m = ctr () in
                ( mk (Ic_plain
                    ( Sim_cache_assoc.create ~size_bytes:(line * nsets * w)
                        ~line_bytes:line ~ways:w (),
                      m )),
                  [ ((line, nsets, w), m) ] )
              | ways ->
                let ms = Array.of_list (List.map (fun _ -> ctr ()) ways) in
                ( mk (Ic_stack
                    ( Sim_stack.create ~line_bytes:line ~nsets
                        ~ways:(Array.of_list ways),
                      ms )),
                  List.mapi (fun i w -> ((line, nsets, w), ms.(i))) ways ))
            (distinct (List.map ic_family members))
        in
        let g =
          {
            gr_tlb = Sim_tlb.create ~size:tlb_entries ();
            gr_utlb_insns = uh;
            gr_ktlb_insns = kh;
            gr_ic = Array.of_list (List.map fst ic_units);
            gr_dc = Array.of_list (List.map snd dc_units);
            gr_lanes = [||];
            gr_utlb = 0;
            gr_ktlb = 0;
            gr_synth = 0;
            gr_unmapped = 0;
          }
        in
        (key, (g, List.concat_map snd ic_units, dc_units)))
      (distinct (List.map gkey cfgs))
  in
  let lanes =
    List.map
      (fun (index, c) ->
        let g, ic_lookup, dc_lookup = List.assoc (gkey c) built in
        {
          la_index = index;
          la_rmp = c.read_miss_penalty;
          la_up = c.uncached_penalty;
          la_group = g;
          la_ic = List.assoc (ic_geom c) ic_lookup;
          la_dc = (List.assoc (dc_geom c) dc_lookup).du_ctr;
          la_wb = Sim_wb.create ~depth:c.wb_depth ~drain_cycles:c.wb_drain;
          la_stall = 0;
          la_stall_k = 0;
        })
      members
  in
  let groups = List.map (fun (_, (g, _, _)) -> g) built in
  List.iter
    (fun g ->
      g.gr_lanes <- Array.of_list (List.filter (fun l -> l.la_group == g) lanes))
    groups;
  {
    e_groups = Array.of_list groups;
    e_pagemap = c0.pagemap;
    e_pt_base = c0.pt_base;
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

(* one icache read by every unit of a group *)
let g_ic_read g pa ctx =
  let units = g.gr_ic in
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.ic_shift in
    if ln <> u.ic_last then begin
      u.ic_last <- ln;
      match u.ic with
      | Ic_plain (c, m) -> if not (Sim_cache_assoc.read c pa) then bump m ctx
      | Ic_stack (st, ms) ->
        let mask = Sim_stack.read st pa in
        if mask <> 0 then bump_mask ms ctx mask 0
    end
  done

let g_dc_read g pa ctx =
  let units = g.gr_dc in
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.du_shift in
    if ln <> u.du_last then begin
      u.du_last <- ln;
      if not (Sim_cache_assoc.read u.du_cache pa) then bump u.du_ctr ctx
    end
  done

(* write-through/no-allocate: a store only moves the caches' own write
   counters, which a qcheck property ties to the returned hit/miss; a
   write miss leaves every set, and so the unit's last line, as it was *)
let g_dc_write g pa =
  let units = g.gr_dc in
  for i = 0 to Array.length units - 1 do
    let u = Array.unsafe_get units i in
    let ln = pa lsr u.du_shift in
    if ln <> u.du_last && Sim_cache_assoc.write u.du_cache pa then
      u.du_last <- ln
  done

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
    g_ic_read g (0x80 + (k * 4)) ctx_synth
  done;
  g_dc_read g 0x9000 ctx_synth

let g_kseg2_load e g pid va =
  if not (Sim_tlb.access g.gr_tlb ~vpn:(va lsr 12) ~asid:0 ~global:true
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
  g_dc_read g pa ctx_synth

let g_synth_utlb e g pid vpn =
  g.gr_utlb <- g.gr_utlb + 1;
  for k = 0 to g.gr_utlb_insns - 1 do
    g.gr_synth <- g.gr_synth + 1;
    g_ic_read g (k * 4) ctx_synth
  done;
  g_kseg2_load e g pid (e.e_pt_base pid + (vpn * 4))

(* Issue a store to the write buffer of every lane of [g], once the
   group's TLB/cache state is current for the reference.  A lane's clock
   is derived on demand: the one-configuration simulator ticks 1 per
   instruction (trace and synthesized, plus one extra before each KTLB
   root-table load), the uncached penalty per uncached event, and the
   read-miss penalty per cache read miss; stalls advance the clock too.
   All of those are already counted, so the clock is a sum. *)
let g_store e g kernel =
  let base = e.sv_insts + g.gr_synth + g.gr_ktlb
  and unc = e.sv_unc_ifetch + e.sv_unc_dload + e.sv_unc_dstore in
  let lanes = g.gr_lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    let clock =
      base + (unc * l.la_up)
      + ((l.la_ic.c_total + l.la_dc.c_total) * l.la_rmp)
      + l.la_stall
    in
    let stall = Sim_wb.store l.la_wb ~clock in
    if stall > 0 then begin
      l.la_stall <- l.la_stall + stall;
      if kernel then l.la_stall_k <- l.la_stall_k + stall
    end
  done

(* a trace reference's physical address, from the page-map lookup made
   when it was batched *)
let trace_pa e addr pa =
  if pa >= 0 then pa
  else begin
    e.sv_unmapped <- e.sv_unmapped + 1;
    addr land 0x00FFFFFF
  end

let e_inst e addr pid kernel pa =
  e.sv_insts <- e.sv_insts + 1;
  if kernel then e.sv_kernel_insts <- e.sv_kernel_insts + 1
  else e.sv_user_insts <- e.sv_user_insts + 1;
  let ctx = if kernel then ctx_kernel else ctx_user in
  let groups = e.e_groups in
  if addr < kuseg_limit then begin
    let vpn = addr lsr 12 and asid = asid_of_pid pid in
    let pa = trace_pa e addr pa in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (Sim_tlb.access g.gr_tlb ~vpn ~asid ~global:false ~user:true)
      then g_synth_utlb e g pid vpn;
      g_ic_read g pa ctx
    done
  end
  else if addr < kseg1_base then begin
    let pa = addr - 0x80000000 in
    for i = 0 to Array.length groups - 1 do
      g_ic_read (Array.unsafe_get groups i) pa ctx
    done
  end
  else if addr < kseg2_base then begin
    e.sv_unc_ifetch <- e.sv_unc_ifetch + 1;
    if kernel then e.sv_unc_kernel <- e.sv_unc_kernel + 1
    else e.sv_unc_user <- e.sv_unc_user + 1
  end
  else begin
    let vpn = addr lsr 12 in
    let pa = trace_pa e addr pa in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if not (Sim_tlb.access g.gr_tlb ~vpn ~asid:0 ~global:true ~user:false)
      then g_synth_ktlb g;
      g_ic_read g pa ctx
    done
  end

let e_data e addr pid kernel is_load pa =
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
      if kuseg || kseg2 then trace_pa e addr pa else addr - 0x80000000
    in
    let groups = e.e_groups in
    for i = 0 to Array.length groups - 1 do
      let g = Array.unsafe_get groups i in
      if kuseg then begin
        if
          not
            (Sim_tlb.access g.gr_tlb ~vpn ~asid:(asid_of_pid pid)
               ~global:false ~user:true)
        then g_synth_utlb e g pid vpn
      end
      else if kseg2 then begin
        if not (Sim_tlb.access g.gr_tlb ~vpn ~asid:0 ~global:true ~user:false)
        then g_synth_ktlb g
      end;
      if is_load then g_dc_read g pa ctx
      else begin
        g_dc_write g pa;
        g_store e g kernel
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* The reference batch.

   The parser's handlers only append: each reference becomes three words
   of a fixed batch — its address, its packed pid/mode/kind, and the
   page-map translation (-1 unmapped; read once per reference, whatever
   the number of configurations).  The batch is simulated when it fills,
   at the end of every sink chunk and before any statistic is read, so no
   work outlives an [on_words] call.  A batch that fans out holds up to
   2^18 references, about one 65,536-word chunk, to spread the domains'
   fork and join; one simulated inline needs no such amortizing and is
   kept small, which keeps it in cache and off the heap. *)

let batch_refs = 1 lsl 18
let inline_batch_refs = 1 lsl 12

let k_inst = 0
let k_load = 1
let k_store = 2

(* kind in bits 0-1, kernel in bit 2, pid above: [asr] gives back the
   pid, including the -1 of kernel boot references *)
let pack pid kernel kind = (pid lsl 3) lor (if kernel then 4 else 0) lor kind

let run_batch e b n =
  for i = 0 to n - 1 do
    let j = 3 * i in
    let addr = Array.unsafe_get b j
    and meta = Array.unsafe_get b (j + 1)
    and pa = Array.unsafe_get b (j + 2) in
    let kernel = meta land 4 <> 0 and pid = meta asr 3 in
    let kind = meta land 3 in
    if kind = k_inst then e_inst e addr pid kernel pa
    else e_data e addr pid kernel (kind = k_load) pa
  done

(* ------------------------------------------------------------------ *)
(* Cells and clusters.

   A cell is the lanes of one TLB group that share an icache unit or a
   dcache unit (a connected component): no simulated state is shared
   across cells except the group's TLB, which is cheap to replicate.  The
   cells, in TLB-group order, are cut into contiguous runs of about equal
   cache-unit count, one per cluster, so a TLB is replicated only where a
   cut splits its group; each cluster is an independent engine
   over its own configurations — its own TLB replicas, its own trace
   counters — so the engine's sweep == singles proof covers it.  Cluster
   k runs on worker k for every batch: worker 0 is the calling domain,
   the others are spawned for the batch and joined at its end.  Each
   cluster's engine is allocated by the domain that first runs it, so its
   per-access counters sit in that domain's heap, away from the other
   clusters' (no false sharing between workers). *)

(* [(units, config indices)] per cell, grouped by TLB group *)
let cells cfgs =
  let n = Array.length cfgs in
  let parent = Array.init n Fun.id in
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let union i j =
    let ri = root i and rj = root j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  let first = Hashtbl.create 16 in
  let link key i =
    match Hashtbl.find_opt first key with
    | Some j -> union i j
    | None -> Hashtbl.add first key i
  in
  Array.iteri
    (fun i c ->
      let g = gkey c in
      link (`Ic (g, ic_family c)) i;
      link (`Dc (g, dc_geom c)) i)
    cfgs;
  let all = List.init n Fun.id in
  let roots =
    List.concat_map
      (fun g -> distinct (List.filter_map
                            (fun i -> if gkey cfgs.(i) = g then Some (root i) else None)
                            all))
      (distinct (List.map gkey (Array.to_list cfgs)))
  in
  List.map
    (fun r ->
      let idx = List.filter (fun i -> root i = r) all in
      let members = List.map (fun i -> cfgs.(i)) idx in
      let units =
        List.length (distinct (List.map ic_family members))
        + List.length (distinct (List.map dc_geom members))
      in
      (units, idx))
    roots

(* cut the cells into [w] non-empty contiguous runs, a cell going to the
   run its unit-count midpoint falls in; each run's indices ascending *)
let deal w cells =
  let total = List.fold_left (fun n (u, _) -> n + u) 0 cells in
  let parts = Array.make w [] in
  let k = ref 0 and cum = ref 0 and left = ref (List.length cells) in
  List.iter
    (fun (u, idx) ->
      if
        !k < w - 1 && parts.(!k) <> []
        && (((2 * !cum) + u) * w > 2 * (!k + 1) * total || !left < w - !k)
      then incr k;
      parts.(!k) <- idx @ parts.(!k);
      cum := !cum + u;
      decr left)
    cells;
  Array.map (List.sort compare) parts

type sweep = {
  sw_cfgs : config array;
  sw_pagemap : int -> int -> int;
  sw_clusters : int list array;  (* config indices per cluster *)
  sw_engines : engine option array;  (* built by their first worker *)
  sw_batch : int array;
  sw_cap : int;  (* references the batch holds *)
  mutable sw_n : int;
  mutable sw_domains : int;  (* most domains one batch has run on *)
}

let sweep ?jobs cfg_list : sweep =
  let cfgs = Array.of_list cfg_list in
  if Array.length cfgs = 0 then invalid_arg "Memsim.sweep: no configurations";
  let c0 = cfgs.(0) in
  Array.iter
    (fun c ->
      if c.pagemap != c0.pagemap || c.pt_base != c0.pt_base then
        invalid_arg
          "Memsim.sweep: all configurations must share pagemap and pt_base \
           (translation is done once per reference)")
    cfgs;
  let cells = cells cfgs (* also checks every cache geometry *) in
  (* and every TLB and write buffer, now rather than at the first batch *)
  List.iter
    (fun (entries, _, _) -> ignore (Sim_tlb.create ~size:entries () : Sim_tlb.t))
    (distinct (List.map gkey cfg_list));
  Array.iter
    (fun c ->
      if c.wb_depth < 1 then
        invalid_arg
          (Printf.sprintf "Memsim.sweep: write-buffer depth %d < 1" c.wb_depth))
    cfgs;
  (* more domains than cores only contend (DESIGN.md 5d) *)
  let cores = Domain.recommended_domain_count () in
  let jobs = match jobs with Some j -> min j cores | None -> cores in
  let w =
    if Domain.is_main_domain () then max 1 (min jobs (List.length cells))
    else 1
  in
  let clusters = deal w cells in
  let cap = if w > 1 then batch_refs else inline_batch_refs in
  {
    sw_cfgs = cfgs;
    sw_pagemap = c0.pagemap;
    sw_clusters = clusters;
    sw_engines = Array.make w None;
    sw_batch = Array.make (3 * cap) 0;
    sw_cap = cap;
    sw_n = 0;
    sw_domains = 0;
  }

let engine_of sw k =
  match sw.sw_engines.(k) with
  | Some e -> e
  | None ->
    let e = engine (List.map (fun i -> (i, sw.sw_cfgs.(i))) sw.sw_clusters.(k)) in
    sw.sw_engines.(k) <- Some e;
    e

let run_cluster sw k n = run_batch (engine_of sw k) sw.sw_batch n

(* Simulate the batch: fanned out over the clusters' workers from the
   main domain only, so sweeps inside a domain pool's jobs run inline. *)
let flush sw =
  let n = sw.sw_n in
  if n > 0 then begin
    let w = Array.length sw.sw_clusters in
    if w > 1 && Domain.is_main_domain () then begin
      let workers =
        Array.init (w - 1) (fun j -> Domain.spawn (fun () -> run_cluster sw (j + 1) n))
      in
      (match run_cluster sw 0 n with
      | () -> Array.iter Domain.join workers
      | exception ex ->
        Array.iter (fun d -> try Domain.join d with _ -> ()) workers;
        raise ex);
      if sw.sw_domains < w then sw.sw_domains <- w
    end
    else begin
      for k = 0 to w - 1 do
        run_cluster sw k n
      done;
      if sw.sw_domains < 1 then sw.sw_domains <- 1
    end;
    sw.sw_n <- 0
  end

let push sw addr meta pa =
  let n = sw.sw_n in
  let b = sw.sw_batch and j = 3 * n in
  Array.unsafe_set b j addr;
  Array.unsafe_set b (j + 1) meta;
  Array.unsafe_set b (j + 2) pa;
  sw.sw_n <- n + 1;
  if n + 1 = sw.sw_cap then flush sw

(* only kuseg and kseg2 references are translated through the page map *)
let lookup sw pid addr =
  if addr < kuseg_limit || addr >= kseg2_base then sw.sw_pagemap pid addr
  else 0

let sweep_on_inst sw addr pid kernel =
  push sw addr (pack pid kernel k_inst) (lookup sw pid addr)

let sweep_on_data sw addr pid kernel is_load _bytes =
  let pa =
    if addr >= kseg1_base && addr < kseg2_base then 0 else lookup sw pid addr
  in
  push sw addr (pack pid kernel (if is_load then k_load else k_store)) pa

let sweep_handlers sw : Parser.handlers =
  {
    Parser.on_inst = (fun addr pid kernel -> sweep_on_inst sw addr pid kernel);
    on_data =
      (fun addr pid kernel is_load bytes ->
        sweep_on_data sw addr pid kernel is_load bytes);
  }

let sweep_sink ?live sw parser : Sink.t =
  Parser.set_handlers parser (sweep_handlers sw);
  let s = Sink.to_parser ?live parser in
  {
    s with
    Sink.on_words =
      (fun words ~len ->
        match s.Sink.on_words words ~len with
        | () -> flush sw
        | exception ex ->
          flush sw;
          raise ex);
  }

let sweep_domains sw = sw.sw_domains

(* per-lane results, in configuration order *)
let per_lane sw f =
  flush sw;
  let out = Array.make (Array.length sw.sw_cfgs) None in
  Array.iteri
    (fun k _ ->
      let e = engine_of sw k in
      Array.iter
        (fun g -> Array.iter (fun l -> out.(l.la_index) <- Some (f e l)) g.gr_lanes)
        e.e_groups)
    sw.sw_clusters;
  Array.map Option.get out

let sweep_stats sw =
  per_lane sw (fun e l ->
      let g = l.la_group and rmp = l.la_rmp and up = l.la_up in
      {
        insts = e.sv_insts;
        datas = e.sv_datas;
        kernel_insts = e.sv_kernel_insts;
        user_insts = e.sv_user_insts;
        kernel_stall =
          ((l.la_ic.c_kernel + l.la_dc.c_kernel) * rmp)
          + (e.sv_unc_kernel * up) + l.la_stall_k;
        user_stall =
          ((l.la_ic.c_user + l.la_dc.c_user) * rmp)
          + (e.sv_unc_user * up) + l.la_stall - l.la_stall_k;
        synth_insts = g.gr_synth;
        icache_misses = l.la_ic.c_total;
        dcache_read_misses = l.la_dc.c_total;
        uncached_reads = e.sv_unc_ifetch + e.sv_unc_dload;
        uncached_writes = e.sv_unc_dstore;
        wb_stalls = l.la_stall;
        utlb_misses = g.gr_utlb;
        ktlb_misses = g.gr_ktlb;
        unmapped = e.sv_unmapped + g.gr_unmapped;
      })

let sweep_accesses sw =
  per_lane sw (fun e l ->
      let g = l.la_group in
      ( e.sv_insts - e.sv_unc_ifetch + g.gr_synth,
        e.sv_dloads_cached + g.gr_utlb + g.gr_ktlb ))

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
