(* Cache study: replay one captured system trace through several cache
   configurations.

   This is what the tracing system was built for: "accurate simulations of
   the large memory systems that are required by state-of-the-art
   processors".  The compress workload's trace — kernel and user
   references interleaved — is captured once, then driven through
   direct-mapped caches from 4KB to 128KB, and finally through the
   set-associative model to split the conflict misses out of a fixed-size
   design (the companion study's question).

     dune exec examples/cache_study.exe                                *)

open Systrace

(* one pass of [words] through every configuration of [cfgs] at once:
   per configuration, in list order, its stats; and the parse's *)
let replay_all ~system cfgs words =
  let sink, result = replay_sweep_sink ~system ~memsim_cfgs:cfgs () in
  sink.Tracing.Sink.on_words words ~len:(Array.length words);
  let mems, _, parse = result () in
  (Array.to_list mems, parse)

let () =
  let e = Workloads.Suite.find "compress" in
  Printf.printf "capturing the %s system trace...\n%!" e.Workloads.Suite.name;
  (* capture raw words for the memsim replays AND the data-reference
     stream (pid, va, load?) for the write-policy study in part 3 —
     materializing the trace is the right call here, since one capture
     feeds many replay configurations below *)
  let capture, trace = Tracing.Sink.to_array () in
  let drefs = ref [] in
  let run =
    run_traced ~sink:capture
      ~on_event:(function
        | Data { addr; pid; is_load; _ } -> drefs := (pid, addr, is_load) :: !drefs
        | _ -> ())
      [ e.Workloads.Suite.program () ]
      e.Workloads.Suite.files
  in
  let words = trace () in
  let drefs = List.rev !drefs in
  Printf.printf "  %d trace words (%d instructions reconstructed)\n\n"
    (Array.length words) run.parse_stats.Tracing.Parser.insts;
  let base = default_memsim_cfg ~system:run.system in
  Printf.printf "%-10s %-12s %-12s %-14s %-10s\n" "cache" "I-misses"
    "D-read-misses" "miss/1k-insn" "";
  let sizes = [ 4; 8; 16; 32; 64; 128 ] in
  let mems, parse =
    replay_all ~system:run.system
      (List.map
         (fun kb ->
           {
             base with
             Tracesim.Memsim.icache_bytes = kb * 1024;
             dcache_bytes = kb * 1024;
           })
         sizes)
      words
  in
  List.iter2
    (fun kb mem ->
      let misses =
        mem.Tracesim.Memsim.icache_misses
        + mem.Tracesim.Memsim.dcache_read_misses
      in
      Printf.printf "%3d KB     %-12d %-12d %-14.2f\n" kb
        mem.Tracesim.Memsim.icache_misses
        mem.Tracesim.Memsim.dcache_read_misses
        (1000.0 *. float_of_int misses
        /. float_of_int parse.Tracing.Parser.insts))
    sizes mems;

  (* Part 2: hold the D-cache at 16KB and sweep associativity over the
     same captured trace — conflict misses melt away, the remainder is
     capacity+compulsory.  (Sim_cache_assoc can also be driven directly
     for custom streams; a configuration's [dcache_ways] is the packaged
     path.) *)
  Printf.printf "\n16 KB D-cache, associativity sweep (LRU):\n";
  Printf.printf "%-8s %-14s %-14s\n" "ways" "D-read misses" "miss/1k-insn";
  let ways = [ 1; 2; 4; 8 ] in
  let mems, parse =
    replay_all ~system:run.system
      (List.map (fun w -> { base with Tracesim.Memsim.dcache_ways = w }) ways)
      words
  in
  List.iter2
    (fun ways mem ->
      Printf.printf "%-8d %-14d %-14.2f\n" ways
        mem.Tracesim.Memsim.dcache_read_misses
        (1000.0
        *. float_of_int mem.Tracesim.Memsim.dcache_read_misses
        /. float_of_int parse.Tracing.Parser.insts))
    ways mems;

  (* Part 3: write policy.  The machine (and the paper's DECstation) is
     write-through with a 4-deep write buffer; write-back/write-allocate
     is the other classic organization these traces enable studying.  The
     interesting number is memory write traffic: every store for
     write-through vs only dirty evictions for write-back. *)
  (* physical address of a cached kuseg/kseg0 reference, -1 otherwise *)
  let translate pid va =
    if va >= 0x80000000 && va < 0xA0000000 then va - 0x80000000
    else if va < 0x80000000 then base.Tracesim.Memsim.pagemap pid va
    else -1
  in
  Printf.printf "\n16 KB D-cache, 1-way, write policy (data refs only):\n";
  Printf.printf "%-14s %-14s %-16s\n" "policy" "read misses"
    "write traffic (words to memory)";
  List.iter
    (fun (name, policy) ->
      let c =
        Tracesim.Sim_cache_assoc.create ~policy ~size_bytes:(16 * 1024)
          ~line_bytes:4 ~ways:1 ()
      in
      let stores = ref 0 in
      List.iter
        (fun (pid, va, is_load) ->
          let pa = translate pid va in
          if pa < 0 then ()
          else if is_load then ignore (Tracesim.Sim_cache_assoc.read c pa)
          else begin
            incr stores;
            ignore (Tracesim.Sim_cache_assoc.write c pa)
          end)
        drefs;
      let traffic =
        match policy with
        | Tracesim.Sim_cache_assoc.Write_through -> !stores
        | Tracesim.Sim_cache_assoc.Write_back ->
          c.Tracesim.Sim_cache_assoc.writebacks
      in
      Printf.printf "%-14s %-14d %-16d\n" name
        c.Tracesim.Sim_cache_assoc.read_misses traffic)
    [ ("write-through", Tracesim.Sim_cache_assoc.Write_through);
      ("write-back", Tracesim.Sim_cache_assoc.Write_back) ]
