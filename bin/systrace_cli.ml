(* systrace command-line interface.

     systrace list                       -- the workload suite
     systrace run WORKLOAD [--os mach]   -- untraced run, ground-truth counters
     systrace trace WORKLOAD [-n N]      -- traced run, print trace stats
                                            (and the first N references)
     systrace validate WORKLOAD          -- measured vs predicted, one workload
     systrace matrix [-j N]              -- the full validation matrix on a
                                            pool of N domains
     systrace sweep WORKLOAD FILE        -- evaluate a geometry grid over a
                                            stored trace in one pass
     systrace check FILE [-w WORKLOAD]   -- validate a stored trace; print
                                            the defensive-tracing diagnoses
     systrace slice FILE --from A --until B [-o OUT]
                                         -- extract a word window of a stored
                                            trace without a full decode
     systrace serve --unix PATH [--tcp PORT] [--ctl PATH]
                                         -- trace-ingest daemon: concurrent
                                            streams, online analysis,
                                            bounded-queue backpressure
     systrace serve --send FILE --connect unix:PATH
                                         -- stream a stored trace at a daemon
     systrace serve --stats --ctl PATH   -- a running daemon's counters

   Exit codes: 0 success; 1 bad data (an unreadable or corrupt trace, a
   trace analysed against the wrong workload or system, failed checks);
   2 usage or environment (conflicting options, a missing file or
   directory, a refused or absent socket); 124 a command line Cmdliner
   cannot parse.  Errors print one line on stderr.
*)

open Cmdliner
open Systrace

let os_conv =
  Arg.enum [ ("ultrix", Validate.Ultrix); ("mach", Validate.Mach) ]

let os_arg =
  Arg.(
    value
    & opt os_conv Validate.Ultrix
    & info [ "os" ] ~docv:"OS" ~doc:"System personality: ultrix or mach.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Page-map / RNG seed.")

let tier_conv =
  Arg.enum
    (List.map (fun t -> (Machine.Uop.tier_name t, t)) Machine.Uop.all_tiers)

let tier_arg =
  Arg.(
    value
    & opt tier_conv Machine.Machine.default_config.Machine.Machine.tier
    & info [ "interp-tier" ] ~docv:"TIER"
        ~doc:
          "Interpreter execution tier: $(b,step) (step-at-a-time oracle, \
           full TLB walk per access) or $(b,bcache) (translation cache, \
           decode-once basic-block execution cache and the tracing \
           runtime's stub uops; the default).  Purely a host-side \
           accelerator choice: simulation results are identical at \
           both tiers.")

(* The tier is purely a host-side accelerator, so the only thing the
   flag changes is the machine config the system is built with. *)
let machine_cfg_of tier =
  { Machine.Machine.default_config with Machine.Machine.tier }

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,systrace list)).")

let find_workload name =
  match List.find_opt (fun e -> e.Workloads.Suite.name = name) Workloads.Suite.all with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown workload %S; try 'systrace list'\n" name;
    exit 1

let os_of = function Validate.Ultrix -> Ultrix | Validate.Mach -> Mach

(* The traced system a stored trace of workload [name] came from, built
   (not run) exactly as [dump] and [validate] boot it: its block tables
   and page map are what the offline journeys read the trace against. *)
let traced_system name os seed =
  Validate.system ~seed ~traced:true os
    (Experiments.spec_of (find_workload name))

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Workloads.Suite.entry) ->
        Printf.printf "%-10s %s\n" e.Workloads.Suite.name
          e.Workloads.Suite.description)
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite (Table 1).")
    Term.(const run $ const ())

let run_cmd =
  let run name os seed tier =
    let e = find_workload name in
    let sys =
      run_measured ~os:(os_of os) ~seed ~machine_cfg:(machine_cfg_of tier)
        [ e.Workloads.Suite.program () ]
        e.Workloads.Suite.files
    in
    let m = sys.Systrace_kernel.Builder.machine in
    let c = m.Machine.Machine.c in
    Printf.printf "console: %S\n" (Systrace_kernel.Builder.console sys);
    Printf.printf "cycles: %d (%.4f s at 25 MHz)\n" m.Machine.Machine.cycles
      (float_of_int m.Machine.Machine.cycles /. 25e6);
    Printf.printf "instructions: %d (user %d, kernel %d, idle %d)\n"
      c.Machine.Machine.instructions c.Machine.Machine.user_instructions
      c.Machine.Machine.kernel_instructions c.Machine.Machine.idle_instructions;
    Printf.printf "user TLB misses: %d   kernel TLB misses: %d\n"
      c.Machine.Machine.utlb_misses c.Machine.Machine.ktlb_misses;
    Printf.printf "icache misses: %d   dcache misses: %d   wb stalls: %d\n"
      (Machine.Machine.icache_misses m)
      (Machine.Machine.dcache_misses m)
      (Machine.Machine.wb_stalls m);
    Printf.printf "syscalls: %d   interrupts: %d   disk reads: %d writes: %d\n"
      c.Machine.Machine.syscalls c.Machine.Machine.interrupts
      m.Machine.Machine.disk.Machine.Disk.reads
      m.Machine.Machine.disk.Machine.Disk.writes
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload untraced; print measured counters.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ tier_arg)

let trace_cmd =
  let run name os seed nshow trace_out compress =
    let e = find_workload name in
    let shown = ref 0 in
    let on_event ev =
      if !shown < nshow then begin
        incr shown;
        match ev with
        | Inst { addr; pid; kernel } ->
          Printf.printf "I %08x pid=%d%s\n" addr pid
            (if kernel then " K" else "")
        | Data { addr; pid; kernel; is_load; _ } ->
          Printf.printf "%c %08x pid=%d%s\n"
            (if is_load then 'L' else 'S')
            addr pid
            (if kernel then " K" else "")
      end
    in
    (* --trace-out captures the raw words as they are drained, through the
       streaming file sink: the whole trace is never resident. *)
    let sink =
      match trace_out with
      | None -> Tracing.Sink.null
      | Some path -> Tracing.Sink.to_file ~compress path
    in
    let r =
      run_traced ~os:(os_of os) ~seed ~on_event ~sink
        [ e.Workloads.Suite.program () ]
        e.Workloads.Suite.files
    in
    let s = r.parse_stats in
    Printf.printf "console: %S\n" r.console;
    (match trace_out with
    | None -> ()
    | Some path ->
      Printf.printf "trace words streamed to %s%s\n" path
        (if compress then " (compressed, format v3)" else ""));
    Printf.printf
      "trace: %d words, %d block records, %d markers\n\
       references: %d instructions (%d user / %d kernel, %d idle), %d data\n\
       drains: %d   pid switches: %d   nested-exception markers: %d\n\
       mode transitions: %d\n"
      s.Tracing.Parser.words s.Tracing.Parser.bb_records
      s.Tracing.Parser.markers s.Tracing.Parser.insts
      s.Tracing.Parser.user_insts s.Tracing.Parser.kernel_insts
      s.Tracing.Parser.idle_insts s.Tracing.Parser.datas
      s.Tracing.Parser.drains s.Tracing.Parser.pid_switches
      s.Tracing.Parser.exc_markers s.Tracing.Parser.mode_transitions
  in
  let nshow =
    Arg.(
      value & opt int 0
      & info [ "n"; "show" ] ~doc:"Print the first N reconstructed references.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream the raw trace words to $(docv) while the run executes \
             (chunk by chunk; the whole trace is never held in memory).")
  in
  let compress =
    Arg.(
      value & flag
      & info [ "z"; "compress" ]
          ~doc:
            "Compress the $(b,--trace-out) file (format v3: indexed \
             semantically-preconditioned blocks).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a workload traced; print trace statistics.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ nshow $ trace_out
          $ compress)

let profile_cmd =
  (* The paper's "reference counting tools ... dynamic count of the number
     of times each instruction in the kernel was executed", used to
     identify anomalous system activity (§4.3). *)
  let run name os seed topn traced =
    let e = find_workload name in
    (* count_exec makes every stub uop fall through, so the counts are
       per instruction in the traced run too *)
    let machine_cfg =
      { Machine.Machine.default_config with Machine.Machine.count_exec = true }
    in
    let programs = [ e.Workloads.Suite.program () ] in
    let sys =
      if traced then
        (run_traced ~os:(os_of os) ~seed ~machine_cfg programs
           e.Workloads.Suite.files).system
      else run_measured ~os:(os_of os) ~seed ~machine_cfg programs e.Workloads.Suite.files
    in
    let m = sys.Systrace_kernel.Builder.machine in
    let kexe = sys.Systrace_kernel.Builder.kernel_exe in
    (* Aggregate kernel text counts by nearest symbol. *)
    let rev = Hashtbl.create 256 in
    Hashtbl.iter
      (fun sym addr ->
        if addr >= 0x80000000 then
          match Hashtbl.find_opt rev addr with
          | Some old when String.length old <= String.length sym -> ()
          | _ -> Hashtbl.replace rev addr sym)
      kexe.Isa.Exe.symbols;
    let sym_addrs =
      List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) rev [])
    in
    let counts = Hashtbl.create 256 in
    let user_total = ref 0 in
    let ktext_words = Array.length kexe.Isa.Exe.text in
    Array.iteri
      (fun w n ->
        if n > 0 then
          if w < ktext_words then begin
            let va = 0x80000000 + (w * 4) in
            let sym =
              let rec best acc = function
                | a :: rest when a <= va -> best a rest
                | _ -> acc
              in
              let a = best 0x80000000 sym_addrs in
              Option.value ~default:"?" (Hashtbl.find_opt rev a)
            in
            Hashtbl.replace counts sym
              (n + Option.value ~default:0 (Hashtbl.find_opt counts sym))
          end
          else user_total := !user_total + n)
      m.Machine.Machine.exec_counts;
    let rows =
      List.sort (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
    in
    Printf.printf "instruction execution profile for %s (%s%s):\n" name
      (Validate.os_name os)
      (if traced then ", traced" else "");
    Printf.printf "  %-40s %12s\n" "kernel routine" "instructions";
    List.iteri
      (fun i (sym, n) ->
        if i < topn then Printf.printf "  %-40s %12d\n" sym n)
      rows;
    Printf.printf "  %-40s %12d\n" "(user + DMA'd text)" !user_total
  in
  let topn =
    Arg.(value & opt int 15 & info [ "top" ] ~doc:"Rows to display.")
  in
  let traced =
    Arg.(
      value & flag
      & info [ "traced" ]
          ~doc:
            "Profile the traced system (instrumented kernel and program, \
             with the kernel's trace drains and analysis phases) instead \
             of the untraced one.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Per-instruction execution counts (the reference-counting tool of \
          paper 4.3), aggregated by kernel routine.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ topn $ traced)

let validate_cmd =
  let run name os seed tier =
    let row =
      Validate.run_workload ~machine_cfg:(machine_cfg_of tier) ~seed os
        (Experiments.spec_of (find_workload name))
    in
    let m = row.Validate.r_measured and p = row.Validate.r_predicted in
    Printf.printf "%s under %s:\n" name (Validate.os_name os);
    Printf.printf "  measured:  %.4f s (%d cycles), %d user TLB misses\n"
      m.Validate.m_seconds m.Validate.m_cycles m.Validate.m_utlb;
    Printf.printf "  predicted: %.4f s, %d user TLB misses\n"
      p.Validate.p_breakdown.Tracesim.Predict.seconds p.Validate.p_utlb;
    Printf.printf "  error: %.1f%%   dilation: %.1fx\n"
      (Validate.percent_error row) (Validate.dilation row);
    Format.printf "  breakdown: %a@." Tracesim.Predict.pp
      p.Validate.p_breakdown
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Measured vs predicted execution time for one workload.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ tier_arg)

let matrix_cmd =
  (* The full measured-vs-predicted matrix behind Tables 2/3 and Figure 3,
     with each (workload, personality) cell run on a pool of domains. *)
  let run jobs quiet =
    let t0 = Unix.gettimeofday () in
    let progress s =
      if not quiet then
        Printf.eprintf "  [%6.1fs] running %s\n%!" (Unix.gettimeofday () -. t0) s
    in
    let m = Systrace_validate.Experiments.run_matrix ~jobs ~progress () in
    if not quiet then
      Printf.eprintf "  matrix complete in %.1fs (%d jobs)\n%!"
        (Unix.gettimeofday () -. t0) jobs;
    Systrace_util.Table.print (Systrace_validate.Experiments.table2 m);
    print_newline ();
    Systrace_util.Table.print (Systrace_validate.Experiments.figure3 m);
    print_newline ();
    Systrace_util.Table.print (Systrace_validate.Experiments.table3 m)
  in
  let jobs =
    Arg.(
      value
      & opt int (Systrace_util.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the matrix cells on $(docv) domains (default: the \
             recommended domain count). Results are merged in suite order, \
             so the tables are identical whatever $(docv) is.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run the full validation matrix (Tables 2/3, Figure 3) across all \
          workloads and both personalities.")
    Term.(const run $ jobs $ quiet)

let dump_cmd =
  (* Capture a workload's system trace to a file (the "traces on tape"
     of paper 3.4).  The file sink consumes each ANALYZE phase's chunk as
     it is drained, so the dump runs in O(chunk) memory whatever the
     trace length. *)
  let run name os seed out compress =
    let e = find_workload name in
    let r =
      run_traced ~os:(os_of os) ~seed
        ~sink:(Tracing.Sink.to_file ~compress out)
        [ e.Workloads.Suite.program () ]
        e.Workloads.Suite.files
    in
    let words = r.parse_stats.Tracing.Parser.words in
    Printf.printf "wrote %d trace words (%d references) to %s%s\n" words
      (r.parse_stats.Tracing.Parser.insts + r.parse_stats.Tracing.Parser.datas)
      out
      (if compress then
         (* whole-file ratio: header, blocks and index trailer all count *)
         let file_bytes =
           let ic = open_in_bin out in
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> in_channel_length ic)
         in
         Printf.sprintf " (compressed, %.1fx smaller)"
           (float_of_int (4 * words) /. float_of_int file_bytes)
       else "")
  in
  let out =
    Arg.(value & opt string "trace.strc"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let compress =
    Arg.(value & flag
         & info [ "z"; "compress" ]
             ~doc:
               "Compress the stored trace (format v3: indexed \
                semantically-preconditioned blocks).")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Capture a workload's system trace to a file.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ out $ compress)

let analyze_cmd =
  (* Offline analysis of a stored trace: rebuild the same traced system
     (deterministic for a given workload/os/seed) for its block tables and
     page map, then stream the memory-system simulation straight from the
     file — the trace is decoded chunk by chunk, never materialized, so
     traces larger than memory replay fine. *)
  let run name os seed file =
    let sys = traced_system name os seed in
    let mem, parse =
      try
        replay_file ~system:sys ~memsim_cfg:(default_memsim_cfg ~system:sys)
          file
      with Tracing.Tracefile.Bad_file msg ->
        Printf.eprintf "%s: UNREADABLE\n  %s\n" file msg;
        exit 1
    in
    Printf.printf
      "%s: %d words -> %d instructions (%d user / %d kernel), %d data refs\n"
      file parse.Tracing.Parser.words parse.Tracing.Parser.insts
      parse.Tracing.Parser.user_insts parse.Tracing.Parser.kernel_insts
      parse.Tracing.Parser.datas;
    Printf.printf
      "memory system: %d icache misses, %d dcache read misses, %d wb stalls, \
       %d user TLB misses\n"
      mem.Tracesim.Memsim.icache_misses mem.Tracesim.Memsim.dcache_read_misses
      mem.Tracesim.Memsim.wb_stalls mem.Tracesim.Memsim.utlb_misses
  in
  let file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file from $(b,systrace dump).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a stored trace offline (workload name selects the \
             matching block tables).")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ file)

let sweep_cmd =
  (* Evaluate a whole geometry grid from ONE streaming pass over a stored
     trace: the trace is decoded and translated once and a
     Tracesim.Memsim.sweep updates every configuration's cache/TLB/write-
     buffer state from the shared decode, so the grid costs about one
     replay instead of one per configuration.  -j spreads the
     configurations' clusters over that many domains. *)
  let run name os seed file sizes lines tlbs wbs flat jobs =
    let sys = traced_system name os seed in
    let base = default_memsim_cfg ~system:sys in
    let grid =
      try
        Tracesim.Memsim.grid ~nested:(not flat) ~base
          ~sizes:(List.map (fun k -> k * 1024) sizes)
          ~lines ~tlb_entries:tlbs ~wb_depths:wbs ()
      with Invalid_argument msg ->
        Printf.eprintf "bad grid: %s\n" msg;
        exit 1
    in
    let stats, accesses, parse =
      try
        replay_sweep_file ~jobs ~system:sys ~memsim_cfgs:(List.map snd grid)
          file
      with
      | Tracing.Tracefile.Bad_file msg ->
        Printf.eprintf "%s: UNREADABLE\n  %s\n" file msg;
        exit 1
      | Invalid_argument msg ->
        Printf.eprintf "bad grid: %s\n" msg;
        exit 1
    in
    Printf.printf
      "%s: %d words -> %d instructions, %d data refs; %d configurations in \
       one pass\n\n"
      file parse.Tracing.Parser.words parse.Tracing.Parser.insts
      parse.Tracing.Parser.datas (List.length grid);
    let pct m a = 100.0 *. float_of_int m /. float_of_int (max 1 a) in
    Printf.printf "%-24s %10s %10s %12s %10s\n" "geometry" "ic miss%"
      "dc miss%" "utlb misses" "wb stalls";
    List.iteri
      (fun i (label, _) ->
        let s = stats.(i) in
        let ic_acc, dc_acc = accesses.(i) in
        Printf.printf "%-24s %10.3f %10.3f %12d %10d\n" label
          (pct s.Tracesim.Memsim.icache_misses ic_acc)
          (pct s.Tracesim.Memsim.dcache_read_misses dc_acc)
          s.Tracesim.Memsim.utlb_misses s.Tracesim.Memsim.wb_stalls)
      grid
  in
  let file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file from $(b,systrace dump).")
  in
  let sizes =
    Arg.(value & opt (list int) [ 4; 8; 16; 64 ]
         & info [ "sizes" ] ~docv:"KB,..."
             ~doc:"Cache sizes in KB (both caches varied together).")
  in
  let lines =
    Arg.(value & opt (list int) [ 4; 16; 32 ]
         & info [ "lines" ] ~docv:"B,..." ~doc:"Cache line sizes in bytes.")
  in
  let tlbs =
    Arg.(value & opt (list int) [ 16; 32; 64 ]
         & info [ "tlb" ] ~docv:"N,..." ~doc:"TLB entry counts.")
  in
  let wbs =
    Arg.(value & opt (list int) [ 2; 4 ]
         & info [ "wb" ] ~docv:"N,..." ~doc:"Write-buffer depths.")
  in
  let flat =
    Arg.(value & flag
         & info [ "flat" ]
             ~doc:"Direct-map every size instead of growing associativity \
                   with size (disables the nested LRU-stack fast path).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Systrace_util.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the simulation on up to $(docv) domains (at most one per \
             core), one cluster of configurations each; the trace is \
             decoded sequentially.  Results are identical whatever $(docv) \
             is.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Evaluate a (size x line x TLB x write-buffer) geometry grid \
             over a stored trace in a single streaming pass; print the \
             miss-ratio table.")
    Term.(const run $ workload_arg $ os_arg $ seed_arg $ file $ sizes $ lines
          $ tlbs $ wbs $ flat $ jobs)

let check_cmd =
  (* Validate a stored trace (defensive tracing, paper 4.3).  Always runs
     the table-free structural scan (marker kinds, drain framing,
     exception bracketing, END placement); with --workload, also rebuilds
     the matching traced system and runs the full recovery-mode parse, so
     table-level violations (unknown block records, misplaced data words)
     are diagnosed too.  Both checkers are chunk-fed from one streaming
     pass over the file: a valid 2^26-word trace no longer costs a 256 MB
     up-front allocation. *)
  let run file workload os seed jobs =
    (* Build the full-parse context (if requested) before touching the
       file, so a single [fold_words] pass can feed both checkers. *)
    let full =
      match workload with
      | None -> None
      | Some name ->
        Some
          ( name,
            Systrace_kernel.Builder.trace_parser ~recover:true
              (traced_system name os seed) )
    in
    let c = Tracing.Parser.scanner () in
    let feed n ws ~len =
      Tracing.Parser.scan_feed c ws ~len;
      (match full with
      | Some (_, p) -> Tracing.Parser.feed p ws ~len
      | None -> ());
      n + len
    in
    let words =
      try
        (* with -j > 1, a v3 trace's blocks decode on the domain pool;
           the checkers still run sequentially in stream order, so the
           diagnosis list is identical whatever -j is *)
        Tracing.Tracefile.fold_words ~jobs:(max 1 jobs) file ~init:0 ~f:feed
      with Tracing.Tracefile.Bad_file msg ->
        Printf.printf "%s: UNREADABLE\n  %s\n" file msg;
        exit 1
    in
    let struct_errs = Tracing.Parser.scan_finish c in
    Printf.printf "%s: %d words, structural scan: %d diagnosis(es)\n" file
      words (List.length struct_errs);
    List.iter
      (fun e -> Printf.printf "  %s\n" (Tracing.Parser.describe e))
      struct_errs;
    let parse_errs =
      match full with
      | None -> []
      | Some (name, p) ->
        Tracing.Parser.finish p;
        let errs = Tracing.Parser.errors p in
        let s = Tracing.Parser.stats p in
        Printf.printf
          "full parse against %s tables: %d diagnosis(es), %d of %d words \
           skipped\n"
          name s.Tracing.Parser.parse_errors s.Tracing.Parser.skipped_words
          s.Tracing.Parser.words;
        List.iter
          (fun e -> Printf.printf "  %s\n" (Tracing.Parser.describe e))
          errs;
        List.iter
          (fun (src, n) ->
            Printf.printf "  skipped %d word(s) attributed to %s\n" n
              (Tracing.Parser.source_name src))
          (Tracing.Parser.skipped p);
        errs
    in
    if struct_errs = [] && parse_errs = [] then begin
      Printf.printf "%s: OK\n" file;
      exit 0
    end
    else exit 1
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file from $(b,systrace dump).")
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"Also run the full recovery-mode parse against this \
                   workload's block tables (must match the dumped trace).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Systrace_util.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Decode a version-3 trace's blocks on $(docv) domains; the \
             checkers run in stream order, so the diagnosis list is \
             identical whatever $(docv) is.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Validate a stored trace and print the diagnosis list \
             (defensive tracing, paper 4.3). Exit status 1 if any \
             diagnosis fires.")
    Term.(const run $ file $ workload $ os_arg $ seed_arg $ jobs)

let slice_cmd =
  (* Cut a word window out of a stored trace into a fresh v3 file.  On a
     v3 input only the blocks covering the window are read and decoded
     (the index trailer makes the seek cheap); v1 seeks directly, v2
     decodes from the start but stops at the window's end. *)
  let run file from until out =
    match Tracing.Tracefile.slice ?from ?until file out with
    | n -> Printf.printf "wrote %d words to %s\n" n out
    | exception Tracing.Tracefile.Bad_file msg ->
      Printf.eprintf "%s: UNREADABLE\n  %s\n" file msg;
      exit 1
    | exception Invalid_argument msg ->
      Printf.eprintf "bad window: %s\n" msg;
      exit 1
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace file from $(b,systrace dump).")
  in
  let from =
    Arg.(value & opt (some int) None
         & info [ "from" ] ~docv:"WORD"
             ~doc:"First word of the window (default 0).")
  in
  let until =
    Arg.(value & opt (some int) None
         & info [ "until" ] ~docv:"WORD"
             ~doc:"Word after the window's last (default: end of trace).")
  in
  let out =
    Arg.(value & opt string "slice.strc"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "slice"
       ~doc:"Extract the word window [FROM, UNTIL) of a stored trace into \
             a fresh compressed trace file, decoding only the covering \
             blocks.")
    Term.(const run $ file $ from $ until $ out)

let disasm_cmd =
  (* objdump-style listing of a workload binary, original or epoxie-
     instrumented. *)
  let run name instrumented symbol =
    let e = find_workload name in
    let prog = e.Workloads.Suite.program () in
    let open Isa in
    let crt = Systrace_kernel.Builder.crt0 ~traced:instrumented ~user_buf_pages:4 in
    let mods =
      if instrumented then
        let imods, _ = Epoxie.Epoxie.instrument_modules prog.Systrace_kernel.Builder.modules in
        (crt :: imods) @ [ Epoxie.Runtime.make Epoxie.Runtime.User ]
      else crt :: prog.Systrace_kernel.Builder.modules
    in
    let exe =
      Link.link ~name ~text_base:Systrace_kernel.Kcfg.user_text_va
        ~data_base:Systrace_kernel.Kcfg.user_data_va ~entry:"_start" mods
    in
    match symbol with
    | None -> print_string (Exe.disassemble exe)
    | Some sym -> (
      match Exe.symbol_opt exe sym with
      | Some lo -> print_string (Exe.disassemble ~lo ~hi:(lo + 400) exe)
      | None ->
        Printf.eprintf "%s: no such symbol %S\n" name sym;
        exit 1)
  in
  let instrumented =
    Arg.(value & flag & info [ "instrumented"; "i" ]
           ~doc:"Disassemble the epoxie-instrumented binary.")
  in
  let symbol =
    Arg.(value & opt (some string) None
         & info [ "symbol"; "s" ] ~doc:"Start at SYMBOL (e.g. main).")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload binary.")
    Term.(const run $ workload_arg $ instrumented $ symbol)

let serve_cmd =
  (* The trace-ingest daemon (and its client / control modes).  One
     subcommand, three roles:
       systrace serve --unix /tmp/s.sock --ctl /tmp/s.ctl   -- daemon
       systrace serve --send FILE --connect unix:/tmp/s.sock -- client
       systrace serve --stats --ctl /tmp/s.ctl               -- control *)
  (* The one check of a TCP endpoint given on the command line, for
     both --connect and --tcp: a numeric IPv4 host (no name is resolved)
     and a port in 0..65535.  Anything else exits 2. *)
  let tcp_endpoint host port =
    let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
    (match Unix.inet_addr_of_string host with
    | _ -> ()
    | exception Failure _ ->
      fail "bad TCP host %S (a numeric IPv4 address)" host);
    if port < 0 || port > 65535 then fail "bad TCP port %d (0..65535)" port;
    (host, port)
  in
  let parse_addr s =
    let tcp host port =
      match int_of_string_opt port with
      | Some p ->
        let host, port = tcp_endpoint host p in
        Ok (Serve.Client.Tcp (host, port))
      | None -> Error (Printf.sprintf "bad port in %S" s)
    in
    match String.split_on_char ':' s with
    | [ "unix"; p ] -> Ok (Serve.Client.Unix_path p)
    | [ "tcp"; host; port ] -> tcp host port
    | [ "tcp"; port ] -> tcp "127.0.0.1" port
    | _ -> Error (Printf.sprintf "bad address %S (unix:PATH or tcp:HOST:PORT)" s)
  in
  (* Control-socket request: one line out, print everything that comes
     back (the stats reply is multi-line). *)
  let ctl_request path cmd =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        ignore (Unix.write_substring fd (cmd ^ "\n") 0 (String.length cmd + 1));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let b = Bytes.create 4096 in
        let rec go () =
          match Unix.read fd b 0 4096 with
          | 0 -> ()
          | n ->
            print_string (Bytes.sub_string b 0 n);
            go ()
        in
        go ())
  in
  (* Full-parse pipeline factory: build the traced system once, then a
     fresh recovery-mode parser per stream.  The shared block tables are
     only read by the per-stream parsers, so sharing them across worker
     domains is safe. *)
  let parse_factory name os seed =
    let sys = traced_system name os seed in
    Serve.Server.to_parser_pipeline (fun () ->
        Systrace_kernel.Builder.trace_parser ~recover:true sys)
  in
  let run unix_path tcp_port_opt ctl_path workers queue_slots slot_words lossy
      pipeline workload os seed send connect do_stats do_shutdown =
    match (send, do_stats, do_shutdown) with
    | Some file, false, false -> (
      (* client: replay a stored trace at a running daemon *)
      match connect with
      | None ->
        Printf.eprintf "--send needs --connect\n";
        exit 2
      | Some addr_s -> (
        match parse_addr addr_s with
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
        | Ok addr -> (
          match Serve.Client.run_file addr file with
          | Some r ->
            Printf.printf
              "ok words=%d frames=%d dropped_words=%d dropped_frames=%d \
               diagnoses=%d\n"
              r.Serve.Client.r_words r.Serve.Client.r_frames
              r.Serve.Client.r_dropped_words r.Serve.Client.r_dropped_frames
              r.Serve.Client.r_diagnoses
          | None ->
            Printf.eprintf "stream rejected or connection lost\n";
            exit 1)))
    | None, true, _ | None, false, true -> (
      (* control: stats / shutdown against the control socket *)
      match ctl_path with
      | None ->
        Printf.eprintf "--stats/--shutdown need --ctl PATH\n";
        exit 2
      | Some p -> ctl_request p (if do_stats then "stats" else "shutdown"))
    | None, false, false ->
      (* daemon *)
      if unix_path = None && tcp_port_opt = None then begin
        Printf.eprintf
          "nothing to do: give --unix/--tcp to serve, --send to stream, \
           or --stats/--shutdown to control\n";
        exit 2
      end;
      let factory =
        match pipeline with
        | "null" -> Serve.Server.null_pipeline
        | "scan" -> Serve.Server.scan_pipeline
        | "parse" -> (
          match workload with
          | Some name -> parse_factory name os seed
          | None ->
            Printf.eprintf "--pipeline parse needs -w WORKLOAD\n";
            exit 2)
        | other ->
          Printf.eprintf "unknown pipeline %S (null|scan|parse)\n" other;
          exit 2
      in
      let cfg =
        {
          (Serve.Server.default_config factory) with
          Serve.Server.unix_path;
          tcp = Option.map (tcp_endpoint "127.0.0.1") tcp_port_opt;
          ctl_path;
          workers;
          queue_slots;
          slot_words;
          lossy;
        }
      in
      let t =
        try Serve.Server.start cfg
        with Invalid_argument msg ->
          Printf.eprintf "bad queue: %s\n" msg;
          exit 2
      in
      Option.iter (Printf.printf "unix %s\n") unix_path;
      Option.iter (Printf.printf "tcp 127.0.0.1:%d\n") (Serve.Server.tcp_port t);
      Option.iter (Printf.printf "ctl %s\n") ctl_path;
      Printf.printf "workers %d queue %dx%d words %s\n%!" (max 1 workers)
        queue_slots slot_words
        (if lossy then "lossy" else "lossless");
      Serve.Server.wait t
    | Some _, _, _ ->
      Printf.eprintf "--send cannot be combined with --stats/--shutdown\n";
      exit 2
  in
  let unix_path =
    Arg.(value & opt (some string) None
         & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let tcp_port =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Listen on 127.0.0.1:$(docv) (0 picks an ephemeral port, \
                   printed at startup).")
  in
  let ctl_path =
    Arg.(value & opt (some string) None
         & info [ "ctl" ] ~docv:"PATH"
             ~doc:"Control socket: $(b,--stats) and $(b,--shutdown) talk to \
                   it.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_slots =
    Arg.(value & opt int 4
         & info [ "queue-slots" ] ~docv:"N"
             ~doc:"Bounded-queue ring slots per connection.")
  in
  let slot_words =
    Arg.(value & opt int 16384
         & info [ "slot-words" ] ~docv:"N"
             ~doc:"Words per queue slot (peak resident words per stream = \
                   slots x words).")
  in
  let lossy =
    Arg.(value & flag
         & info [ "lossy" ]
             ~doc:"Drop-and-count instead of backpressure when a client \
                   outruns analysis (the paper's lost-reference accounting).")
  in
  let pipeline =
    Arg.(value & opt string "scan"
         & info [ "pipeline" ] ~docv:"KIND"
             ~doc:"Per-stream analysis: $(b,null) (ingest only), $(b,scan) \
                   (structural trace check; default), or $(b,parse) (full \
                   recovery-mode parse against a workload's tables; needs \
                   $(b,-w)).")
  in
  let workload =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"WORKLOAD"
             ~doc:"Workload whose block tables the $(b,parse) pipeline \
                   checks against.")
  in
  let send =
    Arg.(value & opt (some string) None
         & info [ "send" ] ~docv:"FILE"
             ~doc:"Client mode: stream this stored trace at a daemon and \
                   print its reply.")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Daemon address for $(b,--send): $(b,unix:PATH) or \
                   $(b,tcp:HOST:PORT).")
  in
  let do_stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print a running daemon's aggregated counters (via \
                   $(b,--ctl)).")
  in
  let do_shutdown =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Gracefully stop a running daemon (via $(b,--ctl)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Trace-ingest daemon: accept concurrent trace streams over \
             Unix/TCP sockets and run a per-stream analysis pipeline \
             online, with bounded-queue backpressure (or $(b,--lossy) \
             lost-reference accounting) and aggregated counters on a \
             control socket.")
    Term.(const run $ unix_path $ tcp_port $ ctl_path $ workers $ queue_slots
          $ slot_words $ lossy $ pipeline $ workload $ os_arg $ seed_arg
          $ send $ connect $ do_stats $ do_shutdown)

(* Errors that reach the top are reported, not treated as internal
   errors (Cmdliner's exit 125): environment failures exit 2, bad trace
   data exits 1.  A [Fun.protect] whose clean-up failed (closing an
   output on a full disk) wraps its cause, which is reported instead. *)
let () =
  let doc = "software methods for system address tracing" in
  let fail code fmt =
    Printf.ksprintf (fun msg -> prerr_endline ("systrace: " ^ msg); Some code) fmt
  in
  let rec report = function
    | Fun.Finally_raised e -> report e
    | Sys_error msg -> fail 2 "%s" msg
    | Unix.Unix_error (e, fn, arg) ->
      fail 2 "%s%s: %s" fn (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e)
    | Tracing.Tracefile.Bad_file msg -> fail 1 "unreadable trace: %s" msg
    | Tracing.Parser.Corrupt msg ->
      fail 1 "trace does not parse against this workload and system: %s" msg
    | _ -> None
  in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "systrace" ~doc)
            [ list_cmd; run_cmd; trace_cmd; validate_cmd; matrix_cmd; profile_cmd;
              disasm_cmd; dump_cmd; analyze_cmd; sweep_cmd; check_cmd;
              slice_cmd; serve_cmd ])
     with e -> ( match report e with Some code -> code | None -> raise e))
