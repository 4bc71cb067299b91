(* Reference models for the memory-system engine in lib/tracesim, and
   the writer of the read-only trace-file version 2.

   Each memory-system module here is the plain version of something the
   library does faster: a direct-mapped cache, a stamp-based LRU cache,
   an eagerly ticked write buffer, the one-configuration memory
   simulator, and the hash-table walk of the running system's page
   tables.  The library keeps one engine per concept; these stay in the
   test suite as the oracles its qcheck properties compare against. *)

open Systrace_tracesim

(* ------------------------------------------------------------------ *)
(* Direct-mapped, physically-indexed cache: write-through, no
   write-allocate, a plain tag array indexed by line.  The oracle of the
   1-way set-associative model. *)
module Sim_cache = struct
  type t = {
    line_bytes : int;
    nlines : int;
    tags : int array;
    mutable read_hits : int;
    mutable read_misses : int;
    mutable write_hits : int;
    mutable write_misses : int;
  }

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

  let create ~size_bytes ~line_bytes =
    if size_bytes <= 0 || line_bytes <= 0 || size_bytes mod line_bytes <> 0
    then invalid_arg "Sim_cache.create";
    {
      line_bytes;
      nlines = size_bytes / line_bytes;
      tags = Array.make (size_bytes / line_bytes) (-1);
      read_hits = 0;
      read_misses = 0;
      write_hits = 0;
      write_misses = 0;
    }

  let read t pa =
    let ln = pa lsr log2 t.line_bytes in
    let idx = ln mod t.nlines in
    if t.tags.(idx) = ln then begin
      t.read_hits <- t.read_hits + 1;
      true
    end
    else begin
      t.read_misses <- t.read_misses + 1;
      t.tags.(idx) <- ln;
      false
    end

  let write t pa =
    let ln = pa lsr log2 t.line_bytes in
    let idx = ln mod t.nlines in
    if t.tags.(idx) = ln then begin
      t.write_hits <- t.write_hits + 1;
      true
    end
    else begin
      t.write_misses <- t.write_misses + 1;
      false
    end
end

(* ------------------------------------------------------------------ *)
(* Set-associative LRU cache with a per-access monotonic stamp per way
   and a scan for the least recent on a miss: the reference for the
   library's recency-ordered sets, under both write policies. *)
module Lru_stamp = struct
  type t = {
    line_shift : int;
    ways : int;
    nsets : int;
    set_mask : int;
    policy : Sim_cache_assoc.policy;
    tags : int array;    (* nsets * ways, -1 = invalid *)
    stamps : int array;  (* nsets * ways, last-use time *)
    dirty : bool array;
    mutable clock : int;
    mutable read_hits : int;
    mutable read_misses : int;
    mutable write_hits : int;
    mutable write_misses : int;
    mutable writebacks : int;
  }

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

  let create ?(policy = Sim_cache_assoc.Write_through) ~size_bytes ~line_bytes
      ~ways () =
    let nsets = size_bytes / (line_bytes * ways) in
    {
      line_shift = log2 line_bytes;
      ways;
      nsets;
      set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
      policy;
      tags = Array.make (nsets * ways) (-1);
      stamps = Array.make (nsets * ways) 0;
      dirty = Array.make (nsets * ways) false;
      clock = 0;
      read_hits = 0;
      read_misses = 0;
      write_hits = 0;
      write_misses = 0;
      writebacks = 0;
    }

  let set_of t ln =
    if t.set_mask >= 0 then ln land t.set_mask else ln mod t.nsets

  (* the way index on hit, or the LRU way negated-minus-one on miss *)
  let probe t set ln =
    let base = set * t.ways in
    let rec find w =
      if w >= t.ways then begin
        let lru = ref 0 in
        let lru_stamp = ref max_int in
        for w = 0 to t.ways - 1 do
          let s = t.stamps.(base + w) in
          if s < !lru_stamp then begin
            lru_stamp := s;
            lru := w
          end
        done;
        -1 - !lru
      end
      else if t.tags.(base + w) = ln then w
      else find (w + 1)
    in
    find 0

  let touch t set w =
    t.clock <- t.clock + 1;
    t.stamps.((set * t.ways) + w) <- t.clock

  let fill t set w ln =
    let i = (set * t.ways) + w in
    if t.dirty.(i) && t.tags.(i) >= 0 then begin
      t.writebacks <- t.writebacks + 1;
      t.dirty.(i) <- false
    end;
    t.tags.(i) <- ln

  let read t pa =
    let ln = pa lsr t.line_shift in
    let set = set_of t ln in
    match probe t set ln with
    | w when w >= 0 ->
      t.read_hits <- t.read_hits + 1;
      touch t set w;
      true
    | miss ->
      let w = -1 - miss in
      t.read_misses <- t.read_misses + 1;
      fill t set w ln;
      touch t set w;
      false

  let write t pa =
    let ln = pa lsr t.line_shift in
    let set = set_of t ln in
    match probe t set ln with
    | w when w >= 0 ->
      t.write_hits <- t.write_hits + 1;
      touch t set w;
      if t.policy = Sim_cache_assoc.Write_back then
        t.dirty.((set * t.ways) + w) <- true;
      true
    | miss ->
      t.write_misses <- t.write_misses + 1;
      if t.policy = Sim_cache_assoc.Write_back then begin
        let w = -1 - miss in
        fill t set w ln;
        touch t set w;
        t.dirty.((set * t.ways) + w) <- true
      end;
      false
end

(* ------------------------------------------------------------------ *)
(* Fully associative TLB with the same reference-counter random
   replacement as the library's, found by a plain scan every time: the
   reference for the library's lookup memo. *)
module Tlb_scan = struct
  type t = {
    size : int;
    wired : int;
    vpns : int array;
    asids : int array;
    globals : bool array;
    mutable refcount : int;
  }

  let create ~size =
    {
      size;
      wired = 8;
      vpns = Array.make size (-1);
      asids = Array.make size 0;
      globals = Array.make size false;
      refcount = 0;
    }

  let access t ~vpn ~asid ~global =
    t.refcount <- t.refcount + 1;
    let rec find i =
      i < t.size
      && ((t.vpns.(i) = vpn && (t.globals.(i) || t.asids.(i) = asid))
         || find (i + 1))
    in
    find 0
    || begin
      let slot = t.wired + (t.refcount mod (t.size - t.wired)) in
      t.vpns.(slot) <- vpn;
      t.asids.(slot) <- asid;
      t.globals.(slot) <- global;
      false
    end
end

(* ------------------------------------------------------------------ *)
(* Write buffer with its own eagerly ticked clock and a list of
   ascending retirement times: one cycle per reference, the full penalty
   on every stall. *)
module Wb_eager = struct
  type t = {
    depth : int;
    drain_cycles : int;
    mutable clock : int;
    mutable retire : int list;
  }

  let create ~depth ~drain_cycles = { depth; drain_cycles; clock = 0; retire = [] }

  let tick t n = t.clock <- t.clock + n

  let store t =
    t.retire <- List.filter (fun r -> r > t.clock) t.retire;
    let stall =
      if List.length t.retire < t.depth then 0
      else
        match t.retire with
        | oldest :: rest ->
          let s = oldest - t.clock in
          t.retire <- rest;
          t.clock <- oldest;
          s
        | [] -> assert false
    in
    let last = match List.rev t.retire with l :: _ -> l | [] -> t.clock in
    t.retire <- t.retire @ [ max t.clock last + t.drain_cycles ];
    stall
end

(* ------------------------------------------------------------------ *)
(* The one-configuration memory simulator: every reference drives one
   scanned TLB, two stamp-LRU caches and an eager write buffer, with the
   synthesized refill handlers inline.  The sweep's per-configuration
   stats must equal this model's, field for field. *)
module Memsim_single = struct
  type t = {
    cfg : Memsim.config;
    icache : Lru_stamp.t;
    dcache : Lru_stamp.t;
    tlb : Tlb_scan.t;
    wb : Wb_eager.t;
    s : Memsim.stats;
  }

  let create (cfg : Memsim.config) =
    {
      cfg;
      icache =
        Lru_stamp.create ~size_bytes:cfg.icache_bytes
          ~line_bytes:cfg.icache_line ~ways:cfg.icache_ways ();
      dcache =
        Lru_stamp.create ~size_bytes:cfg.dcache_bytes
          ~line_bytes:cfg.dcache_line ~ways:cfg.dcache_ways ();
      tlb = Tlb_scan.create ~size:cfg.tlb_entries;
      wb = Wb_eager.create ~depth:cfg.wb_depth ~drain_cycles:cfg.wb_drain;
      s =
        {
          Memsim.insts = 0;
          datas = 0;
          kernel_insts = 0;
          user_insts = 0;
          kernel_stall = 0;
          user_stall = 0;
          synth_insts = 0;
          icache_misses = 0;
          dcache_read_misses = 0;
          uncached_reads = 0;
          uncached_writes = 0;
          wb_stalls = 0;
          utlb_misses = 0;
          ktlb_misses = 0;
          unmapped = 0;
        };
    }

  let stats t = t.s

  let translate t ~pid va =
    let pa = t.cfg.pagemap pid va in
    if pa >= 0 then pa
    else begin
      t.s.unmapped <- t.s.unmapped + 1;
      va land 0x00FFFFFF
    end

  let icache_read t pa =
    if not (Lru_stamp.read t.icache pa) then begin
      t.s.icache_misses <- t.s.icache_misses + 1;
      Wb_eager.tick t.wb t.cfg.read_miss_penalty;
      false
    end
    else true

  let dcache_read t pa =
    if not (Lru_stamp.read t.dcache pa) then begin
      t.s.dcache_read_misses <- t.s.dcache_read_misses + 1;
      Wb_eager.tick t.wb t.cfg.read_miss_penalty;
      false
    end
    else true

  (* KTLB refill fast path: ifetches at the general vector plus the
     root-table load (kseg0-resident; a fixed address) *)
  let synth_ktlb t =
    t.s.ktlb_misses <- t.s.ktlb_misses + 1;
    for k = 0 to t.cfg.ktlb_handler_insns - 1 do
      t.s.synth_insts <- t.s.synth_insts + 1;
      Wb_eager.tick t.wb 1;
      ignore (icache_read t (0x80 + (k * 4)))
    done;
    Wb_eager.tick t.wb 1;
    ignore (dcache_read t 0x9000)

  (* UTLB refill handler: ifetches at the UTLB vector, then the PTE load
     from the process's linear page table in kseg2 (through the TLB as a
     global mapping) *)
  let synth_utlb t ~pid ~vpn =
    t.s.utlb_misses <- t.s.utlb_misses + 1;
    for k = 0 to t.cfg.utlb_handler_insns - 1 do
      t.s.synth_insts <- t.s.synth_insts + 1;
      Wb_eager.tick t.wb 1;
      ignore (icache_read t (k * 4))
    done;
    let va = t.cfg.pt_base pid + (vpn * 4) in
    if not (Tlb_scan.access t.tlb ~vpn:(va lsr 12) ~asid:0 ~global:true) then
      synth_ktlb t;
    ignore (dcache_read t (translate t ~pid va))

  (* [Some pa] for a cached reference, charging TLB behaviour *)
  let to_phys t ~pid va =
    if va < 0x80000000 then begin
      let vpn = va lsr 12 in
      if not (Tlb_scan.access t.tlb ~vpn ~asid:(pid + 1) ~global:false) then
        synth_utlb t ~pid ~vpn;
      Some (translate t ~pid va)
    end
    else if va < 0xA0000000 then Some (va - 0x80000000)
    else if va < 0xC0000000 then None
    else begin
      if not (Tlb_scan.access t.tlb ~vpn:(va lsr 12) ~asid:0 ~global:true)
      then synth_ktlb t;
      Some (translate t ~pid va)
    end

  let charge t ~kernel stall =
    if kernel then t.s.kernel_stall <- t.s.kernel_stall + stall
    else t.s.user_stall <- t.s.user_stall + stall

  let on_inst t addr pid kernel =
    t.s.insts <- t.s.insts + 1;
    if kernel then t.s.kernel_insts <- t.s.kernel_insts + 1
    else t.s.user_insts <- t.s.user_insts + 1;
    Wb_eager.tick t.wb 1;
    match to_phys t ~pid addr with
    | Some pa ->
      if not (icache_read t pa) then charge t ~kernel t.cfg.read_miss_penalty
    | None ->
      t.s.uncached_reads <- t.s.uncached_reads + 1;
      charge t ~kernel t.cfg.uncached_penalty;
      Wb_eager.tick t.wb t.cfg.uncached_penalty

  let on_data t addr pid kernel is_load _bytes =
    t.s.datas <- t.s.datas + 1;
    match to_phys t ~pid addr with
    | Some pa ->
      if is_load then begin
        if not (dcache_read t pa) then
          charge t ~kernel t.cfg.read_miss_penalty
      end
      else begin
        ignore (Lru_stamp.write t.dcache pa);
        let stall = Wb_eager.store t.wb in
        charge t ~kernel stall;
        t.s.wb_stalls <- t.s.wb_stalls + stall
      end
    | None ->
      charge t ~kernel t.cfg.uncached_penalty;
      if is_load then t.s.uncached_reads <- t.s.uncached_reads + 1
      else t.s.uncached_writes <- t.s.uncached_writes + 1;
      Wb_eager.tick t.wb t.cfg.uncached_penalty

  let handlers t : Systrace_tracing.Parser.handlers =
    {
      Systrace_tracing.Parser.on_inst = on_inst t;
      on_data = on_data t;
    }

  let sink ?live t parser =
    Systrace_tracing.Parser.set_handlers parser (handlers t);
    Systrace_tracing.Sink.to_parser ?live parser
end

(* ------------------------------------------------------------------ *)
(* The running system's page map as a hash table keyed by (pid, vpn),
   walked straight from the kseg2 root table and each process's linear
   page table: the reference for the library's flat arrays. *)
module Pagemap_walk = struct
  open Systrace_kernel

  let extract (t : Builder.t) =
    let m = t.Builder.machine in
    let read = Systrace_machine.Machine.read_phys_u32 m in
    let user : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
    let kseg2 : (int, int) Hashtbl.t = Hashtbl.create 256 in
    let root_base =
      Systrace_machine.Addr.kseg0_pa
        (Systrace_isa.Exe.symbol t.Builder.kernel_exe "kroot")
    in
    for i = 0 to Kcfg.kseg2_span_pages - 1 do
      let pte = read (root_base + (i * 4)) in
      if pte land 0x200 <> 0 then
        Hashtbl.replace kseg2 ((0xC000_0000 lsr 12) + i) (pte lsr 12)
    done;
    List.iter
      (fun (pi : Builder.proc_info) ->
        let pt_base = Kcfg.pt_base_va pi.Builder.pid in
        for ptpage = 0 to (Kcfg.pt_stride lsr 12) - 1 do
          match Hashtbl.find_opt kseg2 ((pt_base + (ptpage lsl 12)) lsr 12) with
          | None -> ()
          | Some frame ->
            for slot = 0 to 1023 do
              let pte = read ((frame lsl 12) + (slot * 4)) in
              if pte land 0x200 <> 0 then
                Hashtbl.replace user
                  (pi.Builder.pid, (ptpage lsl 10) + slot)
                  (pte lsr 12)
            done
        done)
      t.Builder.procs;
    let frame = function
      | Some pfn -> fun va -> (pfn lsl 12) lor (va land 0xFFF)
      | None -> fun _ -> -1
    in
    let lookup pid va =
      if va < 0x8000_0000 then frame (Hashtbl.find_opt user (pid, va lsr 12)) va
      else if va >= 0xC000_0000 then
        frame (Hashtbl.find_opt kseg2 (va lsr 12)) va
      else va land 0x1FFF_FFFF
    in
    (lookup, Hashtbl.fold (fun k _ acc -> k :: acc) user [],
     Hashtbl.fold (fun vpn _ acc -> vpn :: acc) kseg2 [])
end

(* ------------------------------------------------------------------ *)
(* Trace-file version 2: "STRC", version, word count, payload byte
   count, then the delta/varint token stream through the LZSS stage.
   The library reads v2 but writes only v1 and v3; this is the writer
   that made the v2 files, kept so the readers keep being tested on
   both shapes v2 files take on disk.  A write that leaves [block_bytes]
   or more token bytes pending (default ~1 MB, the streaming writer's
   flush size) LZSS-packs them, so a file written in one call is the one
   LZSS stream a whole-array save wrote, and a long file written in
   chunks is several complete LZSS streams back to back. *)
module Tracefile_v2 = struct
  module Compress = Systrace_tracing.Compress

  (* The whole-array delta/varint token stream. *)
  let encode words =
    let e = Compress.encoder () and buf = Buffer.create 256 in
    Compress.encode_chunk e buf words ~len:(Array.length words);
    Compress.encode_finish e buf;
    Buffer.contents buf

  (* [words] written [chunk_words] at a time (default: in one write). *)
  let save ?(block_bytes = 1 lsl 20) ?chunk_words path words =
    let n = Array.length words in
    let chunk = match chunk_words with Some c -> c | None -> max n 1 in
    let oc = open_out_bin path in
    let enc = Compress.encoder () and pend = Buffer.create 4096 in
    let payload = ref 0 in
    let flush () =
      if Buffer.length pend > 0 then begin
        let z = Compress.lzss_pack (Buffer.contents pend) in
        Buffer.clear pend;
        output_string oc z;
        payload := !payload + String.length z
      end
    in
    output_string oc "STRC";
    let hdr = Bytes.make 12 '\000' in
    Bytes.set_int32_le hdr 0 2l;
    output_bytes oc hdr;
    let pos = ref 0 in
    while !pos < n do
      let len = min chunk (n - !pos) in
      Compress.encode_chunk enc pend (Array.sub words !pos len) ~len;
      if Buffer.length pend >= block_bytes then flush ();
      pos := !pos + len
    done;
    Compress.encode_finish enc pend;
    flush ();
    (* the header's word count and payload size *)
    seek_out oc 8;
    let tl = Bytes.create 8 in
    Bytes.set_int32_le tl 0 (Int32.of_int n);
    Bytes.set_int32_le tl 4 (Int32.of_int !payload);
    output_bytes oc tl;
    close_out oc
end
