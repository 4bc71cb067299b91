(* Tests for the trace-driven memory-system simulator: the independent
   cache/TLB/write-buffer models, the handler-synthesis logic, and the
   execution-time predictor. *)

open Systrace_tracesim
module Sim_cache = Oracles.Sim_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)

let test_cache_compulsory () =
  let c = Sim_cache.create ~size_bytes:1024 ~line_bytes:16 in
  for k = 0 to 63 do
    ignore (Sim_cache.read c (k * 16))
  done;
  check_int "all compulsory" 64 c.Sim_cache.read_misses;
  for k = 0 to 63 do
    ignore (Sim_cache.read c (k * 16))
  done;
  check_int "all hits" 64 c.Sim_cache.read_hits

let test_cache_conflict () =
  let c = Sim_cache.create ~size_bytes:1024 ~line_bytes:16 in
  (* two addresses 1024 apart map to the same line *)
  ignore (Sim_cache.read c 0);
  ignore (Sim_cache.read c 1024);
  ignore (Sim_cache.read c 0);
  check_int "ping-pong misses" 3 c.Sim_cache.read_misses

let test_cache_write_no_allocate () =
  let c = Sim_cache.create ~size_bytes:1024 ~line_bytes:16 in
  check "write miss" true (not (Sim_cache.write c 64));
  (* the line was NOT allocated *)
  check "read still misses" true (not (Sim_cache.read c 64));
  (* but a write to a present line hits *)
  check "write hit" true (Sim_cache.write c 64)

let prop_cache_sequential =
  QCheck.Test.make ~count:100 ~name:"sequential scan misses once per line"
    QCheck.(pair (int_range 1 6) (int_range 1 64))
    (fun (line_pow, nlines) ->
      let line = 1 lsl (line_pow + 1) in
      let c = Sim_cache.create ~size_bytes:(line * 256) ~line_bytes:line in
      let bytes = nlines * line in
      for a = 0 to bytes - 1 do
        ignore (Sim_cache.read c a)
      done;
      c.Sim_cache.read_misses = nlines)

(* ------------------------------------------------------------------ *)
(* TLB model                                                           *)

let test_tlb_hit_miss () =
  let t = Sim_tlb.create () in
  check "first access misses" true
    (not (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true));
  check "second access hits" true
    (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true);
  check_int "one user miss" 1 t.Sim_tlb.user_misses

let test_tlb_asid_isolation () =
  let t = Sim_tlb.create () in
  ignore (Sim_tlb.access t ~vpn:5 ~asid:1 ~global:false ~user:true);
  check "different asid misses" true
    (not (Sim_tlb.access t ~vpn:5 ~asid:2 ~global:false ~user:true))

let test_tlb_global_entries () =
  let t = Sim_tlb.create () in
  ignore (Sim_tlb.access t ~vpn:9 ~asid:0 ~global:true ~user:false);
  check "global entry matches any asid" true
    (Sim_tlb.access t ~vpn:9 ~asid:7 ~global:false ~user:true)

let test_tlb_capacity () =
  let t = Sim_tlb.create ~size:16 ~wired:0 () in
  (* touch 32 distinct pages twice: capacity misses must occur *)
  for round = 1 to 2 do
    ignore round;
    for vpn = 0 to 31 do
      ignore (Sim_tlb.access t ~vpn ~asid:1 ~global:false ~user:true)
    done
  done;
  check "capacity misses" true (t.Sim_tlb.user_misses > 32)

let test_tlb_size_param () =
  let small = Sim_tlb.create ~size:16 ~wired:8 () in
  let big = Sim_tlb.create ~size:128 ~wired:8 () in
  for round = 1 to 3 do
    ignore round;
    for vpn = 0 to 63 do
      ignore (Sim_tlb.access small ~vpn ~asid:1 ~global:false ~user:true);
      ignore (Sim_tlb.access big ~vpn ~asid:1 ~global:false ~user:true)
    done
  done;
  check "bigger TLB misses less" true
    (big.Sim_tlb.user_misses < small.Sim_tlb.user_misses)

(* ------------------------------------------------------------------ *)
(* Write buffer model                                                  *)

(* [n] stores [gap] cycles apart; the caller's clock absorbs each stall *)
let wb_stalls ~gap n =
  let wb = Sim_wb.create ~depth:4 ~drain_cycles:6 in
  let clock = ref 0 and total = ref 0 in
  for _ = 1 to n do
    clock := !clock + gap;
    let stall = Sim_wb.store wb ~clock:!clock in
    clock := !clock + stall;
    total := !total + stall
  done;
  !total

let test_wb_burst_stalls () =
  check "burst causes stalls" true (wb_stalls ~gap:1 20 > 0)

let test_wb_spaced_stores_free () =
  check_int "spaced stores never stall" 0 (wb_stalls ~gap:10 20)

(* ------------------------------------------------------------------ *)
(* Memsim: synthetic event streams                                     *)

(* the engine over one configuration, driven reference by reference *)
let on_inst = Memsim.sweep_on_inst
let on_data = Memsim.sweep_on_data
let stats sw = (Memsim.sweep_stats sw).(0)

let mk_memsim ?(tlb_entries = 64) () =
  Memsim.sweep
    [ {
      Memsim.icache_bytes = 4096;
      icache_line = 16;
      icache_ways = 1;
      dcache_bytes = 4096;
      dcache_line = 4;
      dcache_ways = 1;
      read_miss_penalty = 10;
      uncached_penalty = 10;
      wb_depth = 4;
      wb_drain = 6;
      pagemap = (fun _pid va -> va land 0xFFFFF);
      pt_base = (fun pid -> 0xC0000000 + (pid * 0x200000));
      utlb_handler_insns = 8;
      ktlb_handler_insns = 24;
      tlb_entries;
    } ]

let test_memsim_utlb_synthesis () =
  let m = mk_memsim () in
  (* one user instruction on a fresh page: TLB miss -> synthesized
     handler (8 instructions) + PTE load (whose kseg2 access KTLB-misses
     and synthesizes another 24). *)
  on_inst m 0x00400000 1 false;
  let s = stats m in
  check_int "one utlb miss" 1 s.Memsim.utlb_misses;
  check_int "one ktlb miss" 1 s.Memsim.ktlb_misses;
  check_int "synthesized instructions" (8 + 24) s.Memsim.synth_insts;
  check_int "one trace instruction" 1 s.Memsim.insts

let test_memsim_no_tlb_for_kseg0 () =
  let m = mk_memsim () in
  on_inst m 0x80001000 0 true;
  on_data m 0x80080000 0 true true 4;
  let s = stats m in
  check_int "no tlb misses" 0 (s.Memsim.utlb_misses + s.Memsim.ktlb_misses)

let test_memsim_kseg1_uncached () =
  let m = mk_memsim () in
  on_data m 0xA1000000 0 true true 4;
  on_data m 0xA1000000 0 true false 4;
  let s = stats m in
  check_int "uncached read" 1 s.Memsim.uncached_reads;
  check_int "uncached write" 1 s.Memsim.uncached_writes

let test_memsim_mode_split () =
  let m = mk_memsim () in
  on_inst m 0x80001000 0 true;
  on_inst m 0x00400000 1 false;
  let s = stats m in
  check_int "kernel insts" 1 s.Memsim.kernel_insts;
  check_int "user insts" 1 s.Memsim.user_insts

let test_memsim_same_page_one_miss () =
  let m = mk_memsim () in
  for k = 0 to 99 do
    on_inst m (0x00400000 + (k * 4)) 1 false
  done;
  check_int "one page, one miss" 1 (stats m).Memsim.utlb_misses

(* ------------------------------------------------------------------ *)
(* Predictor arithmetic                                                *)

let test_predict_components () =
  let mem =
    {
      Memsim.insts = 1000;
      datas = 300;
      kernel_insts = 400;
      user_insts = 600;
      kernel_stall = 0;
      user_stall = 0;
      synth_insts = 50;
      icache_misses = 10;
      dcache_read_misses = 20;
      uncached_reads = 5;
      uncached_writes = 5;
      wb_stalls = 7;
      utlb_misses = 3;
      ktlb_misses = 1;
      unmapped = 0;
    }
  in
  let parse = Systrace_tracing.Parser.fresh_stats () in
  parse.Systrace_tracing.Parser.idle_insts <- 100;
  let b =
    Predict.make ~mem ~parse ~arith_stalls:11 ~dilation:15
      ~read_miss_penalty:15 ~uncached_penalty:12
  in
  check_int "icache stall" 150 b.Predict.icache_stall;
  check_int "dcache stall" 300 b.Predict.dcache_stall;
  check_int "uncached stall" 120 b.Predict.uncached_stall;
  check_int "idle extra" 1400 b.Predict.io_idle_extra;
  check_int "total"
    (1000 + 50 + 1400 + 150 + 300 + 120 + 7 + 11)
    b.Predict.total_cycles

let tests =
  [
    Alcotest.test_case "cache: compulsory then hits" `Quick test_cache_compulsory;
    Alcotest.test_case "cache: conflict ping-pong" `Quick test_cache_conflict;
    Alcotest.test_case "cache: write no-allocate" `Quick test_cache_write_no_allocate;
    QCheck_alcotest.to_alcotest prop_cache_sequential;
    Alcotest.test_case "tlb: hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb: asid isolation" `Quick test_tlb_asid_isolation;
    Alcotest.test_case "tlb: global entries" `Quick test_tlb_global_entries;
    Alcotest.test_case "tlb: capacity misses" `Quick test_tlb_capacity;
    Alcotest.test_case "tlb: size parameter" `Quick test_tlb_size_param;
    Alcotest.test_case "wb: burst stalls" `Quick test_wb_burst_stalls;
    Alcotest.test_case "wb: spaced stores free" `Quick test_wb_spaced_stores_free;
    Alcotest.test_case "memsim: utlb synthesis" `Quick test_memsim_utlb_synthesis;
    Alcotest.test_case "memsim: kseg0 bypasses tlb" `Quick test_memsim_no_tlb_for_kseg0;
    Alcotest.test_case "memsim: kseg1 uncached" `Quick test_memsim_kseg1_uncached;
    Alcotest.test_case "memsim: mode split" `Quick test_memsim_mode_split;
    Alcotest.test_case "memsim: page locality" `Quick test_memsim_same_page_one_miss;
    Alcotest.test_case "predict: components" `Quick test_predict_components;
  ]

(* ------------------------------------------------------------------ *)
(* Sim_cache_assoc: set-associative LRU model                           *)

let test_assoc_eliminates_conflict () =
  (* Two lines mapping to the same direct-mapped slot ping-pong in a 1-way
     cache but coexist in a 2-way one — the conflict/capacity distinction
     the associative model exists to expose. *)
  let dm = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:1 () in
  let sa = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:2 () in
  let a = 0x0 and b = 0x400 (* a + 1-way cache size: same set both ways *) in
  for _ = 1 to 50 do
    ignore (Sim_cache_assoc.read dm a);
    ignore (Sim_cache_assoc.read dm b);
    ignore (Sim_cache_assoc.read sa a);
    ignore (Sim_cache_assoc.read sa b)
  done;
  Alcotest.(check int) "1-way: all misses" 100 dm.Sim_cache_assoc.read_misses;
  Alcotest.(check int) "2-way: compulsory only" 2 sa.Sim_cache_assoc.read_misses

let test_assoc_lru_order () =
  (* 2-way set with three competing lines: LRU must evict the least
     recently used, so touching [a] between fills keeps [a] resident. *)
  let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:2 () in
  let set_stride = 16 * (512 / (16 * 2)) in
  let a = 0 and b = set_stride and d = 2 * set_stride in
  ignore (Sim_cache_assoc.read c a);   (* miss, fill *)
  ignore (Sim_cache_assoc.read c b);   (* miss, fill *)
  ignore (Sim_cache_assoc.read c a);   (* hit: a is now MRU *)
  ignore (Sim_cache_assoc.read c d);   (* miss, must evict b *)
  Alcotest.(check bool) "a still resident" true (Sim_cache_assoc.read c a);
  Alcotest.(check bool) "b evicted" false (Sim_cache_assoc.read c b)

let test_assoc_write_no_allocate () =
  let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:4 () in
  Alcotest.(check bool) "write miss" false (Sim_cache_assoc.write c 0x40);
  Alcotest.(check bool) "still absent" false (Sim_cache_assoc.read c 0x40);
  Alcotest.(check bool) "write hit after fill" true (Sim_cache_assoc.write c 0x40)

let prop_assoc_one_way_equals_direct =
  (* The cross-check promised in the .mli: a 1-way associative cache is
     access-for-access identical to the direct-mapped validation model. *)
  QCheck.Test.make ~count:200 ~name:"1-way assoc cache == direct-mapped"
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (pair bool (map (fun a -> a land 0xFFFF) (int_bound max_int))))
    (fun accesses ->
      let dm = Sim_cache.create ~size_bytes:1024 ~line_bytes:16 in
      let sa = Sim_cache_assoc.create ~size_bytes:1024 ~line_bytes:16 ~ways:1 () in
      List.for_all
        (fun (is_read, pa) ->
          if is_read then Sim_cache.read dm pa = Sim_cache_assoc.read sa pa
          else Sim_cache.write dm pa = Sim_cache_assoc.write sa pa)
        accesses)

let prop_assoc_full_lru_compulsory_only =
  (* The LRU theorem worth owning: a fully-associative LRU cache whose
     capacity covers the stream's working set misses exactly once per
     distinct line, whatever the access order.  (Misses across *different
     set counts* are deliberately not compared: halving the set count
     while doubling ways is not a Mattson stack inclusion, and anomalies
     are real.) *)
  QCheck.Test.make ~count:200 ~name:"full-LRU: one miss per distinct line"
    QCheck.(
      list_of_size
        Gen.(int_range 1 500)
        (map (fun a -> (a land 0x1F) * 16) (int_bound max_int)))
    (fun pas ->
      (* 32 ways x 16B lines = 512B, >= the 32-line address range above *)
      let c = Sim_cache_assoc.create ~size_bytes:512 ~line_bytes:16 ~ways:32 () in
      List.iter (fun pa -> ignore (Sim_cache_assoc.read c pa)) pas;
      let distinct = List.sort_uniq compare pas in
      c.Sim_cache_assoc.read_misses = List.length distinct)

let tests =
  tests
  @ [
      Alcotest.test_case "assoc: conflict elimination" `Quick
        test_assoc_eliminates_conflict;
      Alcotest.test_case "assoc: true LRU" `Quick test_assoc_lru_order;
      Alcotest.test_case "assoc: write no-allocate" `Quick
        test_assoc_write_no_allocate;
      QCheck_alcotest.to_alcotest prop_assoc_one_way_equals_direct;
      QCheck_alcotest.to_alcotest prop_assoc_full_lru_compulsory_only;
    ]

let test_memsim_ways_knob () =
  (* Two data pages colliding in a direct-mapped D-cache stop colliding at
     2 ways; everything else in the config untouched. *)
  let mk ways =
    Memsim.sweep
      [ {
        Memsim.icache_bytes = 4096;
        icache_line = 4;
        icache_ways = 1;
        dcache_bytes = 4096;
        dcache_line = 4;
        dcache_ways = ways;
        read_miss_penalty = 15;
        uncached_penalty = 6;
        wb_depth = 4;
        wb_drain = 5;
        pagemap = (fun _ va -> va land 0xFFFFFF);
        pt_base = (fun _ -> 0xC0000000);
        utlb_handler_insns = 8;
        ktlb_handler_insns = 24;
        tlb_entries = 64;
      } ]
  in
  let drive sim =
    for _ = 1 to 40 do
      (* kseg0 addresses: no TLB traffic, pure cache behaviour *)
      on_data sim 0x80002000 0 true true 4;
      on_data sim 0x80003000 0 true true 4 (* +4096: same line idx *)
    done;
    (stats sim).Memsim.dcache_read_misses
  in
  Alcotest.(check int) "1-way ping-pong" 80 (drive (mk 1));
  Alcotest.(check int) "2-way coexist" 2 (drive (mk 2))

let tests =
  tests
  @ [ Alcotest.test_case "memsim: dcache_ways knob" `Quick test_memsim_ways_knob ]

let test_assoc_write_back () =
  let c =
    Sim_cache_assoc.create ~policy:Sim_cache_assoc.Write_back
      ~size_bytes:512 ~line_bytes:16 ~ways:2 ()
  in
  (* write-allocate: a store miss installs the line *)
  Alcotest.(check bool) "store miss" false (Sim_cache_assoc.write c 0x40);
  Alcotest.(check bool) "allocated" true (Sim_cache_assoc.read c 0x40);
  Alcotest.(check int) "no writeback yet" 0 c.Sim_cache_assoc.writebacks;
  (* evict the dirty line: 2 ways, so two more lines in the same set *)
  let set_stride = 16 * (512 / (16 * 2)) in
  ignore (Sim_cache_assoc.read c (0x40 + set_stride));
  ignore (Sim_cache_assoc.read c (0x40 + (2 * set_stride)));
  Alcotest.(check int) "dirty eviction counted" 1 c.Sim_cache_assoc.writebacks;
  (* clean evictions don't count *)
  ignore (Sim_cache_assoc.read c (0x40 + (3 * set_stride)));
  Alcotest.(check int) "clean eviction free" 1 c.Sim_cache_assoc.writebacks;
  (* re-dirtying via a write hit *)
  ignore (Sim_cache_assoc.write c (0x40 + (3 * set_stride)));
  ignore (Sim_cache_assoc.read c 0x40);
  ignore (Sim_cache_assoc.read c (0x40 + set_stride));
  Alcotest.(check int) "write-hit dirt written back" 2
    c.Sim_cache_assoc.writebacks

let prop_assoc_wb_traffic_bounded =
  (* Write-back memory traffic never exceeds the number of stores: each
     writeback needs a distinct preceding store that dirtied the line. *)
  QCheck.Test.make ~count:200 ~name:"write-back: writebacks <= stores"
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (pair bool (map (fun a -> (a land 0x3F) * 16) (int_bound max_int))))
    (fun accesses ->
      let c =
        Sim_cache_assoc.create ~policy:Sim_cache_assoc.Write_back
          ~size_bytes:256 ~line_bytes:16 ~ways:2 ()
      in
      let stores = ref 0 in
      List.iter
        (fun (is_read, pa) ->
          if is_read then ignore (Sim_cache_assoc.read c pa)
          else begin
            incr stores;
            ignore (Sim_cache_assoc.write c pa)
          end)
        accesses;
      c.Sim_cache_assoc.writebacks <= !stores)

let tests =
  tests
  @ [
      Alcotest.test_case "assoc: write-back policy" `Quick
        test_assoc_write_back;
      QCheck_alcotest.to_alcotest prop_assoc_wb_traffic_bounded;
    ]

(* ------------------------------------------------------------------ *)
(* Multi-configuration sweep: the unit fast paths and the end-to-end    *)
(* equivalence with independent single-configuration runs               *)

let prop_stack_equals_assoc_family =
  (* The .mli contract: a stack family member with associativity W is
     read-for-read identical to an independent W-way Sim_cache_assoc over
     the same sets. *)
  QCheck.Test.make ~count:200 ~name:"LRU stack == independent assoc caches"
    QCheck.(
      triple
        (pair (int_range 0 2) (int_range 0 4)) (* line = 16<<l, nsets = 1<<n *)
        (list_of_size Gen.(int_range 1 4) (int_range 1 3)) (* way exponents *)
        (list_of_size Gen.(int_range 1 400)
           (map (fun a -> a land 0xFFFF) (int_bound max_int))))
    (fun ((l, n), wexps, pas) ->
      let line = 16 lsl l and nsets = 1 lsl n in
      let ways =
        Array.of_list (List.sort_uniq compare (List.map (fun e -> 1 lsl e) wexps))
      in
      let st = Sim_stack.create ~line_bytes:line ~nsets ~ways in
      let members =
        Array.map
          (fun w ->
            Sim_cache_assoc.create ~size_bytes:(line * nsets * w)
              ~line_bytes:line ~ways:w ())
          ways
      in
      List.for_all
        (fun pa ->
          let mask = Sim_stack.read st pa in
          Array.to_list
            (Array.mapi
               (fun i c ->
                 let hit = Sim_cache_assoc.read c pa in
                 (mask lsr i) land 1 = if hit then 0 else 1)
               members)
          |> List.for_all Fun.id)
        pas)

let prop_ring_equals_wb =
  (* The absolute-clock ring returns the same stall per store as the
     eagerly-ticked list model, given the clock the latter would hold. *)
  QCheck.Test.make ~count:200 ~name:"wb ring == eager wb model"
    QCheck.(
      pair
        (pair (int_range 1 6) (int_range 0 10)) (* depth, drain *)
        (list_of_size Gen.(int_range 1 300) (int_range 0 12) (* inter-store gaps *)))
    (fun ((depth, drain), gaps) ->
      let wb = Oracles.Wb_eager.create ~depth ~drain_cycles:drain in
      let ring = Sim_wb.create ~depth ~drain_cycles:drain in
      let base = ref 0 (* sum of ticks *) and stalls = ref 0 in
      List.for_all
        (fun gap ->
          Oracles.Wb_eager.tick wb gap;
          base := !base + gap;
          let s_eager = Oracles.Wb_eager.store wb in
          let s_ring = Sim_wb.store ring ~clock:(!base + !stalls) in
          stalls := !stalls + s_ring;
          s_eager = s_ring)
        gaps)

let prop_write_accounting =
  (* The write path's returned hit/miss status must agree with the cache's
     own write counters, store for store, under both policies — the audit
     for the memsim call sites that drop the returned bool. *)
  QCheck.Test.make ~count:200 ~name:"write status == write counter deltas"
    QCheck.(
      pair bool
        (list_of_size Gen.(int_range 1 400)
           (pair bool (map (fun a -> a land 0xFFF) (int_bound max_int)))))
    (fun (write_back, accesses) ->
      let policy =
        if write_back then Sim_cache_assoc.Write_back
        else Sim_cache_assoc.Write_through
      in
      let c =
        Sim_cache_assoc.create ~policy ~size_bytes:512 ~line_bytes:16 ~ways:2 ()
      in
      List.for_all
        (fun (is_read, pa) ->
          if is_read then begin
            ignore (Sim_cache_assoc.read c pa);
            true
          end
          else begin
            let h0 = c.Sim_cache_assoc.write_hits
            and m0 = c.Sim_cache_assoc.write_misses in
            let hit = Sim_cache_assoc.write c pa in
            let dh = c.Sim_cache_assoc.write_hits - h0
            and dm = c.Sim_cache_assoc.write_misses - m0 in
            if hit then dh = 1 && dm = 0 else dh = 0 && dm = 1
          end)
        accesses)

(* --- sweep == N independent runs, on synthetic event streams --- *)

let sweep_pagemap _pid va =
  (* deterministic, partial: some pages unmapped to exercise the
     fallback-translation path *)
  if va land 0xF000 = 0xF000 then -1 else va land 0xFFFFF

let sweep_pt_base pid = 0xC0000000 + (pid * 0x200000)

let sweep_base_cfg =
  {
    Memsim.icache_bytes = 1024;
    icache_line = 16;
    icache_ways = 1;
    dcache_bytes = 1024;
    dcache_line = 16;
    dcache_ways = 1;
    read_miss_penalty = 13;
    uncached_penalty = 7;
    wb_depth = 4;
    wb_drain = 6;
    pagemap = sweep_pagemap;
    pt_base = sweep_pt_base;
    utlb_handler_insns = 8;
    ktlb_handler_insns = 24;
    tlb_entries = 16;
  }

(* random references spread over all four segments, word-aligned *)
let event_gen =
  QCheck.Gen.(
    let* seg = int_range 0 3 in
    let* off = int_bound 0x3FFFF in
    let off = off land lnot 3 in
    let addr =
      match seg with
      | 0 -> 0x00400000 + off
      | 1 -> 0x80000000 + off
      | 2 -> 0xA0000000 + off
      | _ -> 0xC0000000 + off
    in
    (* pid -1: kernel boot references carry no process *)
    let* is_inst = bool and* pid = int_range (-1) 3 and* kernel = bool in
    let* is_load = bool in
    return (is_inst, addr, pid, kernel, is_load))

let drive_events feed_inst feed_data events =
  List.iter
    (fun (is_inst, addr, pid, kernel, is_load) ->
      if is_inst then feed_inst addr pid kernel
      else feed_data addr pid kernel is_load 4)
    events

let stats_equal (a : Memsim.stats) (b : Memsim.stats) = a = b

let check_sweep_matches_singles cfgs events =
  let sw = Memsim.sweep cfgs in
  drive_events (Memsim.sweep_on_inst sw) (Memsim.sweep_on_data sw) events;
  let swept = Memsim.sweep_stats sw in
  List.for_all2
    (fun c s1 ->
      let m = Oracles.Memsim_single.create c in
      drive_events (Oracles.Memsim_single.on_inst m)
        (Oracles.Memsim_single.on_data m) events;
      stats_equal (Oracles.Memsim_single.stats m) s1)
    cfgs (Array.to_list swept)

let prop_sweep_equals_independent =
  (* The tentpole contract: Memsim.sweep over an arbitrary configuration
     list produces stats identical to N independent single-config runs on
     the same event stream.  Configurations are drawn with independent
     random axes, so a run mixes TLB groups, plain and stacked icache
     units, deduplicated identical configs, and distinct write buffers. *)
  QCheck.Test.make ~count:60 ~name:"sweep == independent single-config runs"
    (QCheck.make ~print:(fun (cfgs, events) ->
         Printf.sprintf "%d cfgs, %d events" (List.length cfgs)
           (List.length events))
       QCheck.Gen.(
         let cfg_gen =
           let* is_exp = int_range 0 2 and* ds_exp = int_range 0 2 in
           let* iline = oneofl [ 16; 32 ] and* dline = oneofl [ 4; 16 ] in
           let* iways = oneofl [ 1; 2 ] and* dways = oneofl [ 1; 2 ] in
           let* tlb = oneofl [ 16; 32; 64 ] in
           let* wb = oneofl [ 2; 4 ] in
           return
             {
               sweep_base_cfg with
               Memsim.icache_bytes = 1024 lsl is_exp;
               icache_line = iline;
               icache_ways = iways;
               dcache_bytes = 1024 lsl ds_exp;
               dcache_line = dline;
               dcache_ways = dways;
               tlb_entries = tlb;
               wb_depth = wb;
             }
         in
         let* cfgs = list_size (int_range 1 6) cfg_gen in
         let* events = list_size (int_range 1 500) event_gen in
         return (cfgs, events)))
    (fun (cfgs, events) -> check_sweep_matches_singles cfgs events)

let prop_sweep_grid_equals_independent =
  (* Same contract through Memsim.grid's nested families, where the size
     axis is guaranteed to exercise the LRU-stack fast path. *)
  QCheck.Test.make ~count:40 ~name:"sweep over nested grid == singles"
    (QCheck.make ~print:(fun events ->
         Printf.sprintf "%d events" (List.length events))
       QCheck.Gen.(list_size (int_range 1 400) event_gen))
    (fun events ->
      let cfgs =
        List.map snd
          (Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 2048; 4096 ]
             ~lines:[ 16 ] ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2; 4 ] ())
      in
      check_sweep_matches_singles cfgs events)

let test_sweep_rejects_mixed_pagemaps () =
  let other = { sweep_base_cfg with Memsim.pagemap = (fun _ va -> va) } in
  Alcotest.check_raises "distinct pagemaps rejected"
    (Invalid_argument
       "Memsim.sweep: all configurations must share pagemap and pt_base \
        (translation is done once per reference)") (fun () ->
      ignore (Memsim.sweep [ sweep_base_cfg; other ]))

let test_sweep_rejects_bad_geometry () =
  (* a zero size is refused before the grid divides by it, and a line
     that is not a power of two before it is indexed as the next smaller
     one *)
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "grid size 0" (fun () ->
      Memsim.grid ~base:sweep_base_cfg ~sizes:[ 0; 1024 ] ~lines:[ 16 ]
        ~tlb_entries:[ 64 ] ~wb_depths:[ 2 ] ());
  raises "24-byte icache lines" (fun () ->
      Memsim.sweep
        [ { sweep_base_cfg with Memsim.icache_bytes = 3072; icache_line = 24 }
        ]);
  raises "24-byte dcache lines" (fun () ->
      Memsim.sweep
        [ { sweep_base_cfg with Memsim.dcache_bytes = 3072; dcache_line = 24 }
        ]);
  raises "Sim_cache_assoc with 24-byte lines" (fun () ->
      Sim_cache_assoc.create ~size_bytes:3072 ~line_bytes:24 ~ways:1 ())

(* a zero-depth write buffer is refused when the sweep is created, not
   at its first store, after the parser has already consumed words *)
let test_sweep_rejects_bad_wb_depth () =
  Alcotest.check_raises "write-buffer depth 0 rejected"
    (Invalid_argument "Memsim.sweep: write-buffer depth 0 < 1") (fun () ->
      ignore
        (Memsim.sweep
           [ sweep_base_cfg; { sweep_base_cfg with Memsim.wb_depth = 0 } ]))

(* The group test of the write-buffer lanes assumes no lane's clock runs
   backwards: a negative penalty or drain is refused as the depth is *)
let test_sweep_rejects_negative_cycles () =
  List.iter
    (fun (field, cfg) ->
      Alcotest.check_raises (field ^ " -1 rejected")
        (Invalid_argument (Printf.sprintf "Memsim.sweep: %s -1 < 0" field))
        (fun () -> ignore (Memsim.sweep [ sweep_base_cfg; cfg ])))
    [
      ( "read_miss_penalty",
        { sweep_base_cfg with Memsim.read_miss_penalty = -1 } );
      ( "uncached_penalty",
        { sweep_base_cfg with Memsim.uncached_penalty = -1 } );
      ("wb_drain", { sweep_base_cfg with Memsim.wb_drain = -1 });
    ]

let test_sweep_long_stream () =
  (* the suite's longest random stream, 2^18 + 5000 references, over
     four configurations: two TLB groups, one nested icache family and
     two dcache geometries *)
  let events =
    QCheck.Gen.generate ~rand:(Random.State.make [| 11 |])
      ~n:((1 lsl 18) + 5000) event_gen
  in
  let cfgs =
    List.map snd
      (Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 4096 ] ~lines:[ 16 ]
         ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2 ] ())
  in
  check "sweep == singles over a long random stream" true
    (check_sweep_matches_singles cfgs events)

let prop_assoc_equals_stamp_lru =
  (* The recency-ordered sets against the stamp-and-scan LRU they
     replaced: the same hit/miss on every access and the same counters,
     writebacks included, under both write policies. *)
  QCheck.Test.make ~count:300 ~name:"assoc recency order == stamp LRU"
    QCheck.(
      quad bool (int_range 0 2) (int_range 0 4)
        (list_of_size Gen.(int_range 1 500)
           (pair bool (map (fun a -> a land 0x3FFF) (int_bound max_int)))))
    (fun (write_back, l, w, accesses) ->
      let policy =
        if write_back then Sim_cache_assoc.Write_back
        else Sim_cache_assoc.Write_through
      in
      let line = 4 lsl (2 * l) and ways = 1 lsl w in
      let size_bytes = line * ways * 8 in
      let c = Sim_cache_assoc.create ~policy ~size_bytes ~line_bytes:line ~ways () in
      let o =
        Oracles.Lru_stamp.create ~policy ~size_bytes ~line_bytes:line ~ways ()
      in
      List.for_all
        (fun (is_read, pa) ->
          if is_read then Sim_cache_assoc.read c pa = Oracles.Lru_stamp.read o pa
          else Sim_cache_assoc.write c pa = Oracles.Lru_stamp.write o pa)
        accesses
      && c.Sim_cache_assoc.read_hits = o.Oracles.Lru_stamp.read_hits
      && c.Sim_cache_assoc.read_misses = o.Oracles.Lru_stamp.read_misses
      && c.Sim_cache_assoc.write_hits = o.Oracles.Lru_stamp.write_hits
      && c.Sim_cache_assoc.write_misses = o.Oracles.Lru_stamp.write_misses
      && c.Sim_cache_assoc.writebacks = o.Oracles.Lru_stamp.writebacks)

let prop_tlb_memo_equals_scan =
  (* The lookup memo against a TLB that scans every time: the same
     hit/miss sequence under heavy replacement pressure, global kseg2
     mappings and several address spaces mixed in. *)
  QCheck.Test.make ~count:300 ~name:"tlb memo == plain scan"
    QCheck.(
      pair (oneofl [ 16; 64 ])
        (list_of_size Gen.(int_range 1 2000)
           (triple (int_bound 200) (int_range 0 3) bool)))
    (fun (size, accesses) ->
      let t = Sim_tlb.create ~size () and o = Oracles.Tlb_scan.create ~size in
      List.for_all
        (fun (v, asid, global) ->
          (* globals on their own vpns, as kseg2 pages are *)
          let vpn = if global then 0xC0000 + (v land 31) else 0x400 + v in
          let asid = if global then 0 else asid in
          Sim_tlb.access t ~vpn ~asid ~global ~user:(not global)
          = Oracles.Tlb_scan.access o ~vpn ~asid ~global)
        accesses)

let prop_sweep_conflicting_lines =
  (* Loads and stores over a handful of lines that share one set of
     2- and 4-way dcaches: write hits reorder a set between two reads,
     which the units' last-line memo must follow. *)
  QCheck.Test.make ~count:200 ~name:"sweep == singles on conflicting lines"
    QCheck.(list_of_size Gen.(int_range 1 300) (pair bool (int_bound 7)))
    (fun refs ->
      let cfgs =
        List.map
          (fun ways -> { sweep_base_cfg with Memsim.dcache_ways = ways })
          [ 1; 2; 4 ]
      in
      (* kseg0, one line apart by the cache size: always the same set *)
      let events =
        List.map
          (fun (is_load, k) -> (false, 0x80010000 + (k * 1024), 0, true, is_load))
          refs
      in
      check_sweep_matches_singles cfgs events)

(* --- one shared state per cache geometry, private sets per TLB group --- *)

(* References aimed at the sets the synthesized handler references use:
   the UTLB vector (pa 0x0-0x1C), the KTLB vector (0x80-0xDC), the root
   table (0x9000) and the page-table lines of the user pages below
   (0x1000-0x101C), each also 1-3 KB up, in the same set of every cache
   of the grid; plus loads, stores and ifetches on eight user pages
   (whose first lines are the UTLB vector's and the page table's) and on
   the kseg2 page tables, which keep tiny TLBs missing. *)
let divergent_event_gen =
  QCheck.Gen.(
    let* target = int_range 0 5 and* k = int_bound 7 and* up = int_bound 3 in
    let* pid = int_range 0 2 and* kernel = bool and* kind = int_range 0 2 in
    let addr =
      match target with
      | 0 -> 0x80000000 + (up * 1024) + (k * 4)
      | 1 -> 0x80000080 + (up * 1024) + (k * 12)
      | 2 -> 0x80009000 + (up * 1024) + (k * 4)
      | 3 -> 0x80001000 + (up * 1024) + (k * 4)
      | 4 -> 0x00400000 + (k * 0x1000) + (up * 4)
      | _ -> 0xC0000000 + (pid * 0x200000) + (k * 0x1000) + (up * 4)
    in
    return (kind = 0, addr, pid, kernel, kind = 1))

let prop_sweep_divergent_groups =
  (* TLBs of 9, 10 and 12 entries (1, 2 and 4 replaceable) miss all the
     time, so each group's handler references keep making sets of the
     shared caches differ: private copies are taken, read, written and
     dropped, and every group's counts carry corrections *)
  QCheck.Test.make ~count:100 ~name:"sweep == singles with divergent TLB groups"
    (QCheck.make ~print:(fun (nested, lines, events) ->
         Printf.sprintf "%s, lines %s, %d events"
           (if nested then "nested" else "flat")
           (String.concat "/" (List.map string_of_int lines))
           (List.length events))
       QCheck.Gen.(
         let* nested = bool in
         let* lines = oneofl [ [ 4; 16 ]; [ 16; 32 ]; [ 4; 32 ] ] in
         let* events = list_size (int_range 1 300) divergent_event_gen in
         return (nested, lines, events)))
    (fun (nested, lines, events) ->
      let cfgs =
        List.map snd
          (Memsim.grid ~nested ~base:sweep_base_cfg ~sizes:[ 256; 512; 1024 ]
             ~lines ~tlb_entries:[ 9; 10; 12 ] ~wb_depths:[ 2; 4 ] ())
      in
      check_sweep_matches_singles cfgs events)

(* Feed [steps], each a reference and the private set copies expected
   after it, then hold every configuration to its single run. *)
let check_copies cfgs steps =
  let sw = Memsim.sweep cfgs in
  List.iter
    (fun (what, (is_inst, addr, pid, kernel, is_load), n) ->
      if is_inst then Memsim.sweep_on_inst sw addr pid kernel
      else Memsim.sweep_on_data sw addr pid kernel is_load 4;
      check_int what n (Memsim.sweep_private_sets sw))
    steps;
  let events = List.map (fun (_, ev, _) -> ev) steps in
  let swept = Memsim.sweep_stats sw in
  List.iteri
    (fun i c ->
      let m = Oracles.Memsim_single.create c in
      drive_events (Oracles.Memsim_single.on_inst m)
        (Oracles.Memsim_single.on_data m) events;
      check (Printf.sprintf "config %d == its single run" i) true
        (stats_equal (Oracles.Memsim_single.stats m) swept.(i)))
    cfgs;
  swept

let test_sweep_set_diverges_and_converges () =
  (* One 64-set direct-mapped cache of each kind.  A KTLB miss
     synthesizes [ktlb_handler_insns] ifetches at pa 0x80 (icache set 8)
     and the root-table load at pa 0x9000 (dcache set 0); kseg2 page
     0xC0001 maps to pa 0x1000, page 0xC0002 to 0x2000. *)
  let base =
    { sweep_base_cfg with Memsim.utlb_handler_insns = 0; ktlb_handler_insns = 0 }
  in
  let load va = (false, va, 0, true, true)
  and fetch va = (true, va, 0, true, false) in
  (* A guest's own miss: 9 entries (one replaceable) beside the owner's
     64.  A miss in both TLBs leaves no copy: the guest synthesizes what
     the owner just did. *)
  let swept =
    check_copies
      [
        { base with Memsim.tlb_entries = 9 };
        { base with Memsim.tlb_entries = 64 };
      ]
      [
        ("cold misses in both TLBs: no copy survives", load 0xC0001040, 0);
        ( "the root line leads the shared set: nothing to copy",
          load 0xC0002040,
          0 );
        ("line 0 displaces the root line", load 0x80000000, 0);
        ("the 9-entry TLB misses alone: its set 0 differs", load 0xC0001040, 1);
        ("a trace load of the root line: equal again", load 0x80009000, 0);
      ]
  in
  (* six read misses each, but the 9-entry group's last root load hit
     its copy where the owner missed: one more of its misses is
     synthesized, one fewer charged to the kernel *)
  check_int "same dcache misses" swept.(0).Memsim.dcache_read_misses
    swept.(1).Memsim.dcache_read_misses;
  check_int "one kernel miss fewer in the 9-entry group"
    (swept.(1).Memsim.kernel_stall - sweep_base_cfg.Memsim.read_miss_penalty)
    swept.(0).Memsim.kernel_stall;
  (* The owner's miss: equal TLBs, the first configuration owns the
     units, and only its handler fetches (two, in one line).  Its fetch
     changes icache set 8 under the guest, which keeps the set as it was;
     both load the root line, so the dcache copy goes at once. *)
  let swept =
    check_copies
      [ { base with Memsim.ktlb_handler_insns = 2 }; base ]
      [
        ( "the owner's handler fetch: the guest's set 8 differs",
          load 0xC0001040,
          1 );
        ("a trace fetch of that line: equal again", fetch 0x80000080, 0);
      ]
  in
  check_int "the guest's fetch missed where the owner's hit"
    (swept.(0).Memsim.kernel_stall + sweep_base_cfg.Memsim.read_miss_penalty)
    swept.(1).Memsim.kernel_stall

let test_sweep_many_groups () =
  (* 70 TLB sizes over one geometry: more groups than a unit has copy
     bits for, so the geometry takes two units *)
  let events =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:600
      divergent_event_gen
  in
  let cfgs =
    List.init 70 (fun i -> { sweep_base_cfg with Memsim.tlb_entries = 9 + i })
  in
  check "sweep == singles over 70 TLB groups" true
    (check_sweep_matches_singles cfgs events)

(* --- write-buffer lanes, run only where a buffer can still be busy --- *)

(* A TLB group skips its lanes at a store that comes at least its bound
   (at most the largest drain, after a store that emptied every buffer)
   past the previous one; a closer store rebuilds the rings from each
   lane's clock at the previous store and runs them.  Configurations
   draw every buffer shape that test meets, over two TLB groups. *)
let lane_cfg_gen =
  QCheck.Gen.(
    let* depth = int_range 1 4 and* drain = oneofl [ 0; 1; 6; 25 ] in
    let* rmp = oneofl [ 0; 15 ] and* up = oneofl [ 0; 15 ] in
    let* tlb = oneofl [ 16; 64 ] and* size = oneofl [ 1024; 4096 ] in
    return
      {
        sweep_base_cfg with
        Memsim.icache_bytes = size;
        dcache_bytes = size;
        read_miss_penalty = rmp;
        uncached_penalty = up;
        wb_depth = depth;
        wb_drain = drain;
        tlb_entries = tlb;
      })

(* One reference between two stores: mostly instructions, the clock's
   shared part; some on 32 user pages, which a 16-entry TLB misses;
   loads that miss a 1 KB dcache (read-miss penalties); uncached
   references (uncached penalties) *)
let between_gen =
  QCheck.Gen.(
    let* kind = int_range 0 9 and* k = int_bound 31 and* pid = int_range 0 2 in
    return
      (match kind with
      | 0 | 1 | 2 | 3 -> (true, 0x80000000 + (k * 68), 0, true, false)
      | 4 | 5 -> (true, 0x00400000 + (k * 0x1000), pid, false, false)
      | 6 -> (false, 0x80020000 + (k * 1040), 0, true, true)
      | 7 -> (false, 0x10000000 + (k * 0x1000), pid, false, true)
      | 8 -> (true, 0xA0000000 + (k * 4), 0, true, false)
      | _ -> (false, 0xA0001000 + (k * 4), 0, true, k land 1 = 0)))

(* a store to kseg0, a user page or kseg2 (the last two through the TLB) *)
let store_gen =
  QCheck.Gen.(
    let* seg = int_range 0 2 and* k = int_bound 31 and* pid = int_range 0 2 in
    return
      (match seg with
      | 0 -> (false, 0x80030000 + (k * 20), 0, true, false)
      | 1 -> (false, 0x10000000 + (k * 0x1000) + 8, pid, false, false)
      | _ -> (false, 0xC0000000 + (k * 0x1000), pid, true, false)))

(* stores 0 to 2 x drain references apart, the drain drawn per store, so
   the group test passes and fails and flips both ways *)
let lane_events_gen =
  QCheck.Gen.(
    let segment =
      let* drain = oneofl [ 1; 6; 25 ] in
      let* gap = int_bound (2 * drain) in
      let* between = list_repeat gap between_gen and* st = store_gen in
      return (between @ [ st ])
    in
    map List.concat (list_size (int_range 1 40) segment))

let prop_sweep_lanes_equal_independent =
  QCheck.Test.make ~count:150
    ~name:"sweep == singles with lazily run write buffers"
    (QCheck.make ~print:(fun (cfgs, events) ->
         Printf.sprintf "%s; %d events"
           (String.concat ", "
              (List.map
                 (fun c ->
                   Printf.sprintf "depth %d drain %d rmp %d up %d tlb %d"
                     c.Memsim.wb_depth c.Memsim.wb_drain
                     c.Memsim.read_miss_penalty c.Memsim.uncached_penalty
                     c.Memsim.tlb_entries)
                 cfgs))
           (List.length events))
       QCheck.Gen.(
         let* cfgs = list_size (int_range 1 6) lane_cfg_gen in
         let* events = lane_events_gen in
         return (cfgs, events)))
    (fun (cfgs, events) -> check_sweep_matches_singles cfgs events)

let test_sweep_lane_work () =
  (* drain 6: stores 7 instructions apart never run the lanes, a burst of
     back-to-back stores runs them at every store, in both TLB groups *)
  let cfgs =
    List.map snd
      (Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 2048 ] ~lines:[ 16 ]
         ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 1; 4 ] ())
  in
  let fetch k = (true, 0x80000000 + (k * 4), 0, true, false)
  and store k = (false, 0x80010000 + (k * 4), 0, true, false) in
  let spaced =
    List.concat
      (List.init 100 (fun s ->
           List.init 7 (fun k -> fetch ((s * 7) + k)) @ [ store s ]))
  and burst = List.init 4 store in
  let sw = Memsim.sweep cfgs in
  let feed =
    drive_events (Memsim.sweep_on_inst sw) (Memsim.sweep_on_data sw)
  in
  feed spaced;
  Alcotest.(check (pair int int)) "spaced stores: no lane runs" (0, 200)
    (Memsim.sweep_lane_work sw);
  feed burst;
  Alcotest.(check (pair int int))
    "a burst runs the lanes at each store" (8, 208)
    (Memsim.sweep_lane_work sw);
  check "the burst stalls the depth-1 buffers" true
    (Array.exists (fun s -> s.Memsim.wb_stalls > 0) (Memsim.sweep_stats sw));
  check "sweep == singles" true
    (check_sweep_matches_singles cfgs (spaced @ burst))

let test_grid_shape () =
  let g =
    Memsim.grid ~base:sweep_base_cfg ~sizes:[ 1024; 4096 ] ~lines:[ 16; 32 ]
      ~tlb_entries:[ 16; 64 ] ~wb_depths:[ 2 ] ()
  in
  Alcotest.(check int) "full cross product" 8 (List.length g);
  (* nested: ways scale with size at fixed nsets *)
  List.iter
    (fun (_, c) ->
      Alcotest.(check int) "fixed set count" (1024 / c.Memsim.icache_line)
        (c.Memsim.icache_bytes / (c.Memsim.icache_line * c.Memsim.icache_ways)))
    g

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_stack_equals_assoc_family;
      QCheck_alcotest.to_alcotest prop_ring_equals_wb;
      QCheck_alcotest.to_alcotest prop_write_accounting;
      QCheck_alcotest.to_alcotest prop_sweep_equals_independent;
      QCheck_alcotest.to_alcotest prop_sweep_grid_equals_independent;
      Alcotest.test_case
        "sweep: rejects a zero size or a line that is not a power of two"
        `Quick test_sweep_rejects_bad_geometry;
      Alcotest.test_case "sweep: rejects a write-buffer depth of 0 at creation"
        `Quick test_sweep_rejects_bad_wb_depth;
      Alcotest.test_case
        "sweep: rejects a negative penalty or drain at creation" `Quick
        test_sweep_rejects_negative_cycles;
      Alcotest.test_case "sweep: rejects mixed pagemaps" `Quick
        test_sweep_rejects_mixed_pagemaps;
      Alcotest.test_case "grid: shape and nesting" `Quick test_grid_shape;
      QCheck_alcotest.to_alcotest prop_assoc_equals_stamp_lru;
      QCheck_alcotest.to_alcotest prop_tlb_memo_equals_scan;
      QCheck_alcotest.to_alcotest prop_sweep_conflicting_lines;
      QCheck_alcotest.to_alcotest prop_sweep_divergent_groups;
      Alcotest.test_case "sweep: a set diverges and converges back" `Quick
        test_sweep_set_diverges_and_converges;
      Alcotest.test_case "sweep: more TLB groups than copy bits" `Quick
        test_sweep_many_groups;
      Alcotest.test_case "sweep == singles over a long random stream" `Quick
        test_sweep_long_stream;
      QCheck_alcotest.to_alcotest prop_sweep_lanes_equal_independent;
      Alcotest.test_case "sweep: lanes run only at stores within the drain"
        `Quick test_sweep_lane_work;
    ]
