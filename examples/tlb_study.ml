(* TLB study: replay one captured system trace through TLB models of
   different sizes.

   The authors used exactly these traces for "A Simulation Based Study of
   TLB Performance" (Chen, Borg, Jouppi, ISCA 1992).  eqntott — the
   workload with by far the most TLB misses in Table 3 — is captured once
   and replayed, in one pass, against 16- to 256-entry TLBs.

     dune exec examples/tlb_study.exe                                  *)

open Systrace

let () =
  let e = Workloads.Suite.find "eqntott" in
  Printf.printf "capturing the %s system trace...\n%!" e.Workloads.Suite.name;
  let words, run =
    capture_trace [ e.Workloads.Suite.program () ] e.Workloads.Suite.files
  in
  Printf.printf "  %d trace words (%d instructions reconstructed)\n\n"
    (Array.length words) run.parse_stats.Tracing.Parser.insts;
  let base = default_memsim_cfg ~system:run.system in
  Printf.printf "%-12s %-14s %-14s %-16s\n" "TLB entries" "user misses"
    "kseg2 misses" "misses/1k-insn";
  let sizes = [ 16; 32; 64; 128; 256 ] in
  let sink, result =
    replay_sweep_sink ~system:run.system
      ~memsim_cfgs:
        (List.map
           (fun entries -> { base with Tracesim.Memsim.tlb_entries = entries })
           sizes)
      ()
  in
  sink.Tracing.Sink.on_words words ~len:(Array.length words);
  let mems, _, parse = result () in
  List.iteri
    (fun i entries ->
      let mem = mems.(i) in
      Printf.printf "%-12d %-14d %-14d %-16.3f\n" entries
        mem.Tracesim.Memsim.utlb_misses mem.Tracesim.Memsim.ktlb_misses
        (1000.0
        *. float_of_int mem.Tracesim.Memsim.utlb_misses
        /. float_of_int parse.Tracing.Parser.insts))
    sizes
