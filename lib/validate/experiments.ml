(* Regeneration of every table and figure in the paper's evaluation
   (DESIGN.md's per-experiment index).  Each function prints the same rows
   or series the paper reports; the full matrix (every workload under both
   systems, measured and predicted) is computed once and shared. *)

open Systrace_util
open Systrace_isa
open Systrace_kernel
open Systrace_epoxie
open Systrace_workloads

let spec_of (e : Suite.entry) : Validate.spec =
  { Validate.wname = e.name; files = e.files; programs = [ e.program () ] }

type full_row = {
  fname : string;
  ultrix : Validate.row;
  mach : Validate.row;
}

(* Every Table 2/3/Figure 3 cell is a self-contained thunk: it builds its
   own machine, kernel and workload state from the immutable [Suite.entry]
   (all randomness flows from the system's seed), so the matrix can run
   on a domain pool.  Results are merged back in suite order, making the
   rendered tables byte-identical whatever [jobs] is. *)
let run_matrix ?(progress = fun _ -> ()) ?(jobs = 1)
    ?(entries = Suite.all) () : full_row list =
  let pm = Mutex.create () in
  let progress s =
    Mutex.lock pm;
    Fun.protect ~finally:(fun () -> Mutex.unlock pm) (fun () -> progress s)
  in
  (* The spec — including the assembled program, which is immutable once
     built — is shared by an entry's two cells instead of being rebuilt
     inside each per-cell closure on the pool. *)
  let cells =
    List.concat_map
      (fun (e : Suite.entry) ->
        let spec = spec_of e in
        [ (e, spec, Validate.Ultrix); (e, spec, Validate.Mach) ])
      entries
  in
  let rows =
    Pool.map ~jobs
      (fun ((e : Suite.entry), spec, os) ->
        progress (Printf.sprintf "%s (%s)" e.Suite.name (Validate.os_name os));
        Validate.run_workload os spec)
      cells
  in
  let rec merge rows entries =
    match (rows, entries) with
    | u :: m :: rows, (e : Suite.entry) :: entries ->
      { fname = e.Suite.name; ultrix = u; mach = m } :: merge rows entries
    | [], [] -> []
    | _ -> assert false
  in
  merge rows entries

(* ------------------------------------------------------------------ *)
(* Table 1: the workloads                                              *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: Experimental workloads"
      ~headers:[ "workload"; "description" ]
      ~aligns:[ Table.Left; Table.Left ]
  in
  List.iter
    (fun (e : Suite.entry) -> Table.add_row t [ e.Suite.name; e.description ])
    Suite.all;
  t

(* ------------------------------------------------------------------ *)
(* Table 2: run times, measured and predicted, in (scaled) seconds      *)

let fmt_s v = Printf.sprintf "%.4f" v

let table2 (matrix : full_row list) =
  let t =
    Table.create
      ~title:
        "Table 2: Run times, measured and predicted, in seconds (simulated \
         25 MHz clock; workloads scaled ~100x from the paper's)"
      ~headers:[ "workload"; "Ultrix measured"; "Ultrix predicted";
                 "Mach measured"; "Mach predicted" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.fname;
          fmt_s r.ultrix.Validate.r_measured.Validate.m_seconds;
          fmt_s
            r.ultrix.Validate.r_predicted.Validate.p_breakdown
              .Systrace_tracesim.Predict.seconds;
          fmt_s r.mach.Validate.r_measured.Validate.m_seconds;
          fmt_s
            r.mach.Validate.r_predicted.Validate.p_breakdown
              .Systrace_tracesim.Predict.seconds;
        ])
    matrix;
  t

(* ------------------------------------------------------------------ *)
(* Figure 3: percent error in predicted execution times (Ultrix)        *)

let figure3 (matrix : full_row list) =
  let t =
    Table.create
      ~title:
        "Figure 3: Error in predicted execution times for Ultrix (percent; \
         bar = 1% per '#')"
      ~headers:[ "workload"; "error %"; "" ]
      ~aligns:[ Table.Left; Table.Right; Table.Left ]
  in
  List.iter
    (fun r ->
      let e = Validate.percent_error r.ultrix in
      let bar = String.make (min 40 (int_of_float (e +. 0.5))) '#' in
      Table.add_row t [ r.fname; Printf.sprintf "%.1f" e; bar ])
    matrix;
  let errors = List.map (fun r -> Validate.percent_error r.ultrix) matrix in
  Table.add_rule t;
  Table.add_row t
    [ "mean"; Printf.sprintf "%.1f" (Stats.mean errors); "" ];
  t

(* ------------------------------------------------------------------ *)
(* Table 3: user TLB misses, measured and predicted                     *)

let table3 (matrix : full_row list) =
  let t =
    Table.create ~title:"Table 3: TLB misses, measured and predicted"
      ~headers:[ "workload"; "Mach measured"; "Mach predicted";
                 "Ultrix measured"; "Ultrix predicted" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.fname;
          string_of_int r.mach.Validate.r_measured.Validate.m_utlb;
          string_of_int r.mach.Validate.r_predicted.Validate.p_utlb;
          string_of_int r.ultrix.Validate.r_measured.Validate.m_utlb;
          string_of_int r.ultrix.Validate.r_predicted.Validate.p_utlb;
        ])
    matrix;
  t

(* ------------------------------------------------------------------ *)
(* §3.2: text expansion, epoxie vs pixie                                *)

let expansion_table () =
  let t =
    Table.create
      ~title:
        "Text expansion under instrumentation (paper: epoxie 1.9-2.3x, \
         pixie/QPT 4-6x)"
      ~headers:[ "workload"; "epoxie"; "pixie" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
  in
  let epoxie_fs = ref [] and pixie_fs = ref [] in
  List.iter
    (fun (e : Suite.entry) ->
      let prog = e.Suite.program () in
      let mods = prog.Builder.modules in
      let imods, _ = Epoxie.instrument_modules mods in
      let pmods = Pixie.instrument_modules mods in
      let fe = Epoxie.expansion ~original:mods ~instrumented:imods in
      let fp = Epoxie.expansion ~original:mods ~instrumented:pmods in
      epoxie_fs := fe :: !epoxie_fs;
      pixie_fs := fp :: !pixie_fs;
      Table.add_row t
        [ e.Suite.name; Printf.sprintf "%.2fx" fe; Printf.sprintf "%.2fx" fp ])
    Suite.all;
  Table.add_rule t;
  Table.add_row t
    [
      "mean";
      Printf.sprintf "%.2fx" (Stats.mean !epoxie_fs);
      Printf.sprintf "%.2fx" (Stats.mean !pixie_fs);
    ];
  t

(* ------------------------------------------------------------------ *)
(* §4.1: time dilation                                                  *)

let dilation_table (matrix : full_row list) =
  let t =
    Table.create
      ~title:
        "Time dilation: instrumented instructions per original instruction \
         (paper: ~15x)"
      ~headers:[ "workload"; "Ultrix"; "Mach" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.fname;
          Printf.sprintf "%.1fx" (Validate.dilation r.ultrix);
          Printf.sprintf "%.1fx" (Validate.dilation r.mach);
        ])
    matrix;
  t

(* ------------------------------------------------------------------ *)
(* §3.4: kernel CPI vs user CPI (the Tunix result)                      *)

let kernel_cpi_table (matrix : full_row list) =
  let t =
    Table.create
      ~title:
        "Kernel vs user CPI from trace-driven simulation (paper, §3.4: \
         kernel CPI was three times user CPI on Tunix)"
      ~headers:[ "workload"; "user CPI"; "kernel CPI"; "ratio" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun r ->
      let m = r.ultrix.Validate.r_predicted.Validate.p_mem in
      let ucpi =
        float_of_int (m.Systrace_tracesim.Memsim.user_insts + m.Systrace_tracesim.Memsim.user_stall)
        /. float_of_int (max 1 m.Systrace_tracesim.Memsim.user_insts)
      in
      let kcpi =
        float_of_int
          (m.Systrace_tracesim.Memsim.kernel_insts + m.Systrace_tracesim.Memsim.kernel_stall)
        /. float_of_int (max 1 m.Systrace_tracesim.Memsim.kernel_insts)
      in
      Table.add_row t
        [
          r.fname;
          Printf.sprintf "%.2f" ucpi;
          Printf.sprintf "%.2f" kcpi;
          Printf.sprintf "%.2f" (kcpi /. ucpi);
        ])
    matrix;
  t

(* ------------------------------------------------------------------ *)
(* §4.3: in-kernel buffer size vs mode-transition dirt                  *)

let buffer_sweep_table ?(jobs = 1) () =
  let wname = "compress" in
  let e = Suite.find wname in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "In-kernel buffer size vs trace-analysis transitions (%s traced, \
            Ultrix; paper uses a 64MB buffer to make transitions rare)"
           wname)
      ~headers:
        [ "buffer"; "analysis phases"; "mode markers"; "disk ops"; "trace words" ]
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  (* Each sweep point builds its own traced system and parser, so the
     sweep runs on the pool; rows are added in sweep order. *)
  let rows =
    Pool.map ~jobs
      (fun kb ->
        let cfg =
          {
            Builder.default_config with
            Builder.traced = true;
            trace_buf_bytes = kb * 1024;
            trace_slack_bytes = min (kb * 1024 / 4) (64 * 1024);
            analysis_chunk = 8192;
          }
        in
        let b =
          Builder.build ~cfg ~programs:[ e.Suite.program () ]
            ~files:e.Suite.files ()
        in
        let p = Builder.trace_parser b in
        let counter, words = Systrace_tracing.Sink.counting () in
        Validate.run
          ~sink:
            (Systrace_tracing.Sink.tee
               [ counter; Systrace_tracing.Sink.to_parser p ])
          b;
        let stats = Systrace_tracing.Parser.stats p in
        (* disk completions whose trace was lost: total disk ops minus the
           ones we can see; approximate dirt indicator via mode transitions *)
        [
          Printf.sprintf "%d KB" kb;
          string_of_int b.Builder.analyze_calls;
          string_of_int stats.Systrace_tracing.Parser.mode_transitions;
          string_of_int
            (b.Builder.machine.Systrace_machine.Machine.disk
               .Systrace_machine.Disk.reads
            + b.Builder.machine.Systrace_machine.Machine.disk
                .Systrace_machine.Disk.writes);
          string_of_int (words ());
        ])
      [ 64; 128; 256; 1024; 4096 ]
  in
  List.iter (Table.add_row t) rows;
  t

(* ------------------------------------------------------------------ *)
(* §4.4: page-mapping policy sensitivity (tomcatv)                      *)

let pagemap_table ?(jobs = 1) () =
  let wname = "tomcatv" and nseeds = 4 in
  let e = Suite.find wname in
  (* Use the DECstation's real 64KB caches: page placement matters most
     when the working set is marginal against the cache, which is how the
     paper's machine behaved for tomcatv. *)
  let mcfg =
    {
      Systrace_machine.Machine.default_config with
      Systrace_machine.Machine.icache_bytes = 65536;
      dcache_bytes = 65536;
    }
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Page-mapping policy sensitivity: %s measured run time across \
            page-map seeds (paper, §4.4: >10%% variation from page \
            selection; Mach's random policy causes its Table 2 variance)"
           wname)
      ~headers:[ "policy"; "min s"; "max s"; "spread %" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
  in
  let policies =
    [ (Kcfg.Careful, "careful (Ultrix)"); (Kcfg.Random, "random (Mach)") ]
  in
  (* One thunk per (policy, seed) cell; merged back per policy in order. *)
  let cells =
    List.concat_map
      (fun (policy, _) -> List.init nseeds (fun k -> (policy, k + 1)))
      policies
  in
  let spec = spec_of e in
  let times =
    Pool.map ~jobs
      (fun (policy, seed) ->
        let b =
          Validate.system ~pagemap:policy ~machine_cfg:mcfg ~seed ~traced:false
            Validate.Ultrix spec
        in
        Validate.run b;
        float_of_int b.Builder.machine.Systrace_machine.Machine.cycles
        /. Systrace_tracesim.Predict.clock_hz)
      cells
  in
  List.iteri
    (fun i (_, pname) ->
      let times =
        List.filteri
          (fun k _ -> k >= i * nseeds && k < (i + 1) * nseeds)
          times
      in
      let lo = Stats.minimum times and hi = Stats.maximum times in
      Table.add_row t
        [
          pname;
          fmt_s lo;
          fmt_s hi;
          Printf.sprintf "%.1f" ((hi -. lo) /. lo *. 100.0);
        ])
    policies;
  t

(* ------------------------------------------------------------------ *)
(* §4.1: measured distortion of the traced system itself.

   The instrumented text is ~2x the original and executes ~10-15x the
   instructions, so the traced machine's OWN cache and TLB behaviour is
   not representative — which is why predictions are made from the
   reconstructed original reference stream, and why the UTLB handler is
   synthesized rather than traced.  This table quantifies the distortion
   by comparing machine-level event rates between the untraced and traced
   runs of the same workloads. *)

let distortion_table () =
  let t =
    Table.create
      ~title:
        "Instrumentation distortion: machine-level events per 1k original \
         instructions, untraced vs traced execution (paper 4.1: the traced \
         system's own TLB/cache behaviour is unrepresentative)"
      ~headers:
        [ "workload"; "icache miss/1k"; "traced"; "utlb miss/1k"; "traced" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun wname ->
      let run traced =
        let b =
          Validate.system ~traced Validate.Ultrix (spec_of (Suite.find wname))
        in
        Validate.run b;
        b
      in
      let bu = run false and bt = run true in
      let orig_insts =
        float_of_int
          bu.Builder.machine.Systrace_machine.Machine.c
            .Systrace_machine.Machine.instructions
      in
      let per v = Printf.sprintf "%.2f" (1000.0 *. float_of_int v /. orig_insts) in
      Table.add_row t
        [
          wname;
          per (Systrace_machine.Machine.icache_misses bu.Builder.machine);
          per (Systrace_machine.Machine.icache_misses bt.Builder.machine);
          per
            bu.Builder.machine.Systrace_machine.Machine.c
              .Systrace_machine.Machine.utlb_misses;
          per
            bt.Builder.machine.Systrace_machine.Machine.c
              .Systrace_machine.Machine.utlb_misses;
        ])
    [ "egrep"; "compress"; "eqntott" ];
  t

(* ------------------------------------------------------------------ *)
(* §4.3 fault injection: "the format of trace contains a significant
   degree of redundancy, such that missing words of trace or erroneous
   writes into the trace are detected with a very high probability."
   Quantify it: corrupt one random word of a captured trace per trial and
   count how often the parsing library's defensive checks catch it. *)

(* The traced run the defensive-tracing tables corrupt, captured once:
   the system (for its block tables and page map) and every trace word. *)
let capture wname =
  let b =
    Validate.system ~traced:true Validate.Ultrix (spec_of (Suite.find wname))
  in
  let sink, trace = Systrace_tracing.Sink.to_array () in
  Validate.run ~sink b;
  (b, trace ())

let corruption_table () =
  let wname = "egrep" and trials = 300 in
  let b, words = capture wname in
  (* Two lines of defence, as in §4.3: the format's structural redundancy
     (parser [Corrupt]) and analysis-level sanity checks — references to
     unmapped pages in the simulator flag "erroneous writes" whose
     structure happened to parse. *)
  let pagemap = Builder.extract_pagemap b in
  let parse ws =
    let p = Builder.trace_parser b in
    let sw =
      Systrace_tracesim.Memsim.sweep
        [ {
          Systrace_tracesim.Memsim.icache_bytes = 4096;
          icache_line = 16;
          icache_ways = 1;
          dcache_bytes = 4096;
          dcache_line = 4;
          dcache_ways = 1;
          read_miss_penalty = 0;
          uncached_penalty = 0;
          wb_depth = 4;
          wb_drain = 0;
          pagemap;
          pt_base = Kcfg.pt_base_va;
          utlb_handler_insns = 8;
          ktlb_handler_insns = 24;
          tlb_entries = 64;
        } ]
    in
    Systrace_tracing.Parser.set_handlers p
      (Systrace_tracesim.Memsim.sweep_handlers sw);
    Systrace_tracing.Parser.feed p ws ~len:(Array.length ws);
    Systrace_tracing.Parser.finish p;
    (Systrace_tracesim.Memsim.sweep_stats sw).(0).Systrace_tracesim.Memsim.unmapped
  in
  (* sanity: the pristine trace parses with no unmapped references *)
  if parse words <> 0 then failwith "corruption: pristine trace not clean";
  let rng = Systrace_util.Rng.create 7 in
  (* each kind maps (pristine words, position) to a corrupted copy *)
  let overwrite f ws pos =
    let ws = Array.copy ws in
    ws.(pos) <- f ws.(pos) land 0xFFFFFFFF;
    ws
  in
  let kinds =
    [
      ("random word", overwrite (fun _old -> Systrace_util.Rng.bits32 rng));
      ( "single bit flip",
        overwrite (fun old -> old lxor (1 lsl Systrace_util.Rng.int rng 32)) );
      ( "word deleted",
        fun ws pos ->
          Array.init
            (Array.length ws - 1)
            (fun i -> if i < pos then ws.(i) else ws.(i + 1)) );
      ( "word duplicated",
        fun ws pos ->
          Array.init
            (Array.length ws + 1)
            (fun i ->
              if i <= pos then ws.(i) else ws.(i - 1)) );
      ( "adjacent words swapped",
        fun ws pos ->
          let ws = Array.copy ws in
          let q = if pos + 1 < Array.length ws then pos + 1 else pos - 1 in
          let tmp = ws.(pos) in
          ws.(pos) <- ws.(q);
          ws.(q) <- tmp;
          ws );
    ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Defensive tracing (paper 4.3): single corruptions of the %s \
            trace (%d words) detected by the parsing library (%d trials \
            each)"
           wname (Array.length words) trials)
      ~headers:[ "corruption"; "detected"; "rate" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
  in
  List.iter
    (fun (kname, mutate) ->
      let detected = ref 0 in
      for _ = 1 to trials do
        let pos = Systrace_util.Rng.int rng (Array.length words) in
        let ws = mutate words pos in
        match parse ws with
        | unmapped -> if unmapped > 0 then incr detected
        | exception Systrace_tracing.Parser.Corrupt _ -> incr detected
        | exception Systrace_tracing.Format_.Bad_marker _ -> incr detected
        | exception Invalid_argument _ -> incr detected
      done;
      Table.add_row t
        [
          kname;
          Printf.sprintf "%d/%d" !detected trials;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int !detected /. float_of_int trials);
        ])
    kinds;
  t

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep (paper 4.3, quantitative): drive the [Faults]
   catalogue over a captured trace at several injection rates and measure
   what defensive tracing actually delivers — the detection rate per fault
   kind, the detection latency (words between the injection and the first
   diagnosis), and the recovery loss (references missing from the
   recovery-mode reconstruction vs the clean run).  [Drain_split] is the
   control: a valid transform of the stream (drains are resumable), so its
   row should read 0% detected, 0% lost. *)

let faults_table ?(trials = 40) ?(rates = [ 1e-4; 1e-3; 1e-2 ]) () =
  let module P = Systrace_tracing.Parser in
  let module F = Systrace_tracing.Faults in
  let wname = "egrep" in
  let b, words = capture wname in
  (* Parse [ws], fingerprinting the reconstructed reference stream so
     "identical to the clean run" is checkable exactly.  Returns
     (strict_raised, diagnoses, refs, fingerprint, stats). *)
  let run_parse ~recover ws =
    let p = Builder.trace_parser ~recover b in
    let h = ref 0 in
    let refs = ref 0 in
    let mix v = h := ((!h * 1000003) + v) land max_int in
    P.set_handlers p
      {
        P.on_inst =
          (fun a pid k ->
            incr refs;
            mix 1; mix a; mix pid; mix (Bool.to_int k));
        on_data =
          (fun a pid k ld by ->
            incr refs;
            mix 2; mix a; mix pid; mix (Bool.to_int k);
            mix (Bool.to_int ld); mix by);
      };
    match
      P.feed p ws ~len:(Array.length ws);
      P.finish p
    with
    | () -> (false, P.errors p, !refs, !h, P.stats p)
    | exception (P.Corrupt _ | Systrace_tracing.Format_.Bad_marker _) ->
      (true, [], !refs, !h, P.stats p)
  in
  (* Injection rate 0 (the acceptance criterion): strict and recovery
     modes must reconstruct the identical reference stream from the
     pristine trace, with identical parser stats and no diagnoses. *)
  let s_raised, _, clean_refs, clean_hash, s_stats =
    run_parse ~recover:false words
  in
  let r_raised, r_errs, r_refs, r_hash, r_stats =
    run_parse ~recover:true words
  in
  if s_raised || r_raised || r_errs <> [] then
    failwith "faults: pristine trace not clean";
  if clean_refs <> r_refs || clean_hash <> r_hash || s_stats <> r_stats then
    failwith "faults: recovery-mode stream differs from strict on the clean \
              trace";
  let rng = Systrace_util.Rng.create 11 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Defensive tracing under injected faults (paper 4.3): %s trace \
            (%d words, %d references), %d trials per cell.  detected = \
            recovery-mode diagnosis raised; latency = words from injection \
            to first diagnosis; loss = references missing from the \
            recovered stream vs the clean run.  drain_split is a valid \
            transform (control row: nothing to detect)."
           wname (Array.length words) clean_refs trials)
      ~headers:
        [ "fault"; "rate"; "faults/run"; "detected"; "latency (words)"; "loss" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
  in
  Table.add_row t
    [ "(none)"; "0"; "0"; Printf.sprintf "0/%d" trials; "-"; "0.000%" ];
  List.iter
    (fun kind ->
      List.iter
        (fun rate ->
          (* Truncation is a single tail event — iterating it just cuts
             to the minimum of the picked positions. *)
          let n =
            if kind = F.Truncate then 1
            else
              max 1
                (int_of_float
                   ((rate *. float_of_int (Array.length words)) +. 0.5))
          in
          let detected = ref 0 in
          let lat_sum = ref 0.0 in
          let loss_sum = ref 0.0 in
          for _ = 1 to trials do
            let ws, injs = F.inject rng ~n ~kinds:[ kind ] words in
            let _, errs, refs, _, _ = run_parse ~recover:true ws in
            (match (errs, injs) with
            | e :: _, inj :: _ ->
              incr detected;
              lat_sum := !lat_sum +. float_of_int (max 0 (e.P.at - inj.F.pos))
            | _ -> ());
            loss_sum :=
              !loss_sum
              +. 100.0
                 *. float_of_int (max 0 (clean_refs - refs))
                 /. float_of_int (max 1 clean_refs)
          done;
          Table.add_row t
            [
              F.kind_name kind;
              Printf.sprintf "%g" rate;
              string_of_int n;
              Printf.sprintf "%d/%d (%.0f%%)" !detected trials
                (100.0 *. float_of_int !detected /. float_of_int trials);
              (if !detected = 0 then "-"
               else Printf.sprintf "%.0f" (!lat_sum /. float_of_int !detected));
              Printf.sprintf "%.3f%%" (!loss_sum /. float_of_int trials);
            ])
        rates)
    F.all_kinds;
  t

(* ------------------------------------------------------------------ *)
(* Ablation (DESIGN.md 5): draining user buffers on every kernel entry —
   the design that makes the global interleaving exact (3.1) — against
   the obvious cheaper alternative, flushing a user buffer only when it
   fills (plus at process exit).  The kernel counts, at each skipped
   drain, the words the current entry's kernel records will overtake in
   the global stream; the table also shows what the disorder does to a
   trace-driven simulation of the same run. *)

let drain_ablation_table () =
  let wname = "sed" in
  let e = Suite.find wname in
  let run drain_on_entry =
    let cfg =
      {
        Builder.default_config with
        Builder.traced = true;
        drain_on_entry;
      }
    in
    let b =
      Builder.build ~cfg
        ~programs:[ e.Suite.program () ]
        ~files:e.Suite.files ()
    in
    let p = Builder.trace_parser b in
    let sw =
      Systrace_tracesim.Memsim.sweep
        [ {
          Systrace_tracesim.Memsim.icache_bytes = 16384;
          icache_line = 16;
          icache_ways = 1;
          dcache_bytes = 16384;
          dcache_line = 4;
          dcache_ways = 1;
          read_miss_penalty = 15;
          uncached_penalty = 6;
          wb_depth = 4;
          wb_drain = 5;
          pagemap = (fun _ _ -> -1);
          pt_base = Kcfg.pt_base_va;
          utlb_handler_insns = 8;
          ktlb_handler_insns = 24;
          tlb_entries = 64;
        } ]
    in
    (* virtual-indexed stand-in map (identity-ish): the page map is only
       extractable after the run, and the comparison between the two
       policies only needs a fixed translation *)
    Validate.run ~sink:(Systrace_tracesim.Memsim.sweep_sink sw p) b;
    (String.trim (Builder.console b),
     Systrace_tracing.Parser.stats p,
     (Systrace_tracesim.Memsim.sweep_stats sw).(0),
     Builder.peek b "kstat_displaced")
  in
  let con1, ps1, ms1, d1 = run true in
  let con2, ps2, ms2, d2 = run false in
  if con1 <> con2 then failwith "drain ablation: console outputs differ";
  let user st =
    st.Systrace_tracing.Parser.insts - st.Systrace_tracing.Parser.kernel_insts
  in
  if user ps1 <> user ps2 then
    failwith "drain ablation: user reference streams differ in size";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Draining on every kernel entry (3.1) vs flush-only-when-full \
            (%s traced under Ultrix; identical console output and user \
            reference counts)"
           wname)
      ~headers:
        [ "policy"; "drains"; "overtaken words"; "kernel insts";
          "icache misses"; "dcache read misses" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
  in
  let row name ps ms d =
    Table.add_row t
      [
        name;
        string_of_int ps.Systrace_tracing.Parser.drains;
        string_of_int d;
        string_of_int ps.Systrace_tracing.Parser.kernel_insts;
        string_of_int ms.Systrace_tracesim.Memsim.icache_misses;
        string_of_int ms.Systrace_tracesim.Memsim.dcache_read_misses;
      ]
  in
  row "drain on entry (paper)" ps1 ms1 d1;
  row "flush when full" ps2 ms2 d2;
  t

(* ------------------------------------------------------------------ *)
(* DESIGN.md §5e: interpreter execution-mode ablation                 *)

(* Everything a run shows of the simulated machine at the end: cycles,
   every ground-truth counter, the icache/dcache hit and miss counts, the
   write buffer's stores and stall cycles, the console, and the count and
   an order-sensitive checksum of the trace words the host received. *)
type tier_fingerprint = {
  f_counters : int list;
  f_console : string;
  f_words : int;
  f_checksum : int;
}

let tier_fingerprint (b : Builder.t) =
  let module M = Systrace_machine.Machine in
  let words = ref 0 and sum = ref 0 in
  Validate.run
    ~sink:
      (Systrace_tracing.Sink.make (fun ws ~len ->
           words := !words + len;
           for i = 0 to len - 1 do
             sum := ((!sum * 31) + ws.(i)) land 0x3FFF_FFFF_FFFF
           done))
    b;
  let m = b.Builder.machine in
  let c = m.M.c in
  {
    f_counters =
      [
        m.M.cycles; c.M.instructions; c.M.user_instructions;
        c.M.kernel_instructions; c.M.idle_instructions;
        c.M.uncached_ifetches; c.M.uncached_reads; c.M.utlb_misses;
        c.M.ktlb_misses; c.M.tlb_invalid; c.M.tlb_mod; c.M.exceptions;
        c.M.interrupts; c.M.syscalls; c.M.clock_ticks;
        m.M.icache.Systrace_machine.Cache.hits;
        m.M.icache.Systrace_machine.Cache.misses;
        m.M.dcache.Systrace_machine.Cache.hits;
        m.M.dcache.Systrace_machine.Cache.misses;
        m.M.wb.Systrace_machine.Write_buffer.stores;
        m.M.wb.Systrace_machine.Write_buffer.stall_cycles;
        M.arith_stalls m;
        m.M.fpu.Systrace_machine.Fpu.ops;
      ];
    f_console = Builder.console b;
    f_words = !words;
    f_checksum = !sum;
  }

let tier_run ?(os = Validate.Ultrix) ~traced wname tier =
  let module M = Systrace_machine.Machine in
  let machine_cfg = { M.default_config with M.tier } in
  let b = Validate.system ~machine_cfg ~traced os (spec_of (Suite.find wname)) in
  (b, tier_fingerprint b)

(* Host cost of the interpreter tiers on the traced suite: every Table 1
   workload under both systems, booted, run and drained at each tier.
   The simulated machine must be bit-for-bit indifferent: every
   ground-truth counter, the console transcript and the trace words
   handed to the host are asserted identical to step-at-a-time's, cell
   by cell, before the timings are reported.  That exercises the block
   cache's invalidation machinery (kernel loads programs, remaps pages
   and switches modes constantly), the translation cache's flushes and
   every stub uop, kernel loops included, at system scale. *)
let interp_ablation_table () =
  let modes =
    [|
      ("step (no caches)", Systrace_machine.Uop.Step);
      ("bcache (translation + block caches)", Systrace_machine.Uop.Bcache);
    |]
  in
  let secs = Array.make (Array.length modes) 0.0 in
  List.iter
    (fun (e : Suite.entry) ->
      List.iter
        (fun os ->
          let fps =
            Array.mapi
              (fun i (_, tier) ->
                let t0 = Sys.time () in
                let _, fp = tier_run ~os ~traced:true e.Suite.name tier in
                secs.(i) <- secs.(i) +. (Sys.time () -. t0);
                fp)
              modes
          in
          Array.iteri
            (fun i fp ->
              if fp <> fps.(0) then
                failwith
                  (Printf.sprintf
                     "interp ablation: %s diverges from step-at-a-time on \
                      traced %s (%s)"
                     (fst modes.(i)) e.Suite.name (Validate.os_name os)))
            fps)
        [ Validate.Ultrix; Validate.Mach ])
    Suite.all;
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Interpreter execution tiers: host cost of the traced suite, %d \
            runs (identical counters, console and trace words asserted \
            at both tiers, run by run)"
           (2 * List.length Suite.all))
      ~headers:[ "mode"; "host cpu s"; "speedup" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
  in
  Array.iteri
    (fun i (label, _) ->
      Table.add_row t
        [
          label;
          Printf.sprintf "%.2f" secs.(i);
          Printf.sprintf "%.2fx" (secs.(0) /. secs.(i));
        ])
    modes;
  (t, Array.to_list (Array.mapi (fun i (_, tier) -> (tier, secs.(i))) modes))

(* ------------------------------------------------------------------ *)
(* OS structure and memory behaviour: the study these traces enabled
   (Chen & Bershad, SOSP'93, reference [7]).  From the predicted runs'
   per-mode attribution: how much of each workload's memory-system time
   is system (kernel + server) rather than user, under each structure. *)

let os_structure_table (matrix : full_row list) =
  let t =
    Table.create
      ~title:
        "System vs user share of memory-system activity (the paper's \
         companion study [7]: OS structure's impact on memory behaviour)"
      ~headers:
        [ "workload"; "Ultrix sys insts"; "sys stall share";
          "Mach sys insts"; "sys stall share" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun r ->
      let cell (row : Validate.row) =
        let m = row.Validate.r_predicted.Validate.p_mem in
        let sys_i = m.Systrace_tracesim.Memsim.kernel_insts in
        let tot_i = m.Systrace_tracesim.Memsim.insts in
        let sys_s = m.Systrace_tracesim.Memsim.kernel_stall in
        let tot_s =
          m.Systrace_tracesim.Memsim.kernel_stall
          + m.Systrace_tracesim.Memsim.user_stall
        in
        ( Printf.sprintf "%.1f%%" (100.0 *. float_of_int sys_i /. float_of_int (max 1 tot_i)),
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int sys_s /. float_of_int (max 1 tot_s)) )
      in
      let ui, us = cell r.ultrix in
      let mi, ms = cell r.mach in
      Table.add_row t [ r.fname; ui; us; mi; ms ])
    matrix;
  t

(* ------------------------------------------------------------------ *)
(* Figure 2: instrumentation by epoxie, before and after                *)

let figure2 () =
  let sample () =
    let a = Asm.create "sample" in
    let open Asm in
    global a "fopen";
    label a "fopen";
    addiu a Reg.sp Reg.sp (-24);
    sw a Reg.ra 20 Reg.sp;
    sw a Reg.a0 24 Reg.sp;
    i a (Insn.Jal (Sym "_findiop"));
    sw a Reg.a1 28 Reg.sp;
    ret a;
    leaf a "_findiop" (fun () -> li a Reg.v0 0);
    to_obj a
  in
  let orig =
    Link.link ~name:"orig" ~text_base:0x400000 ~data_base:0x500000
      ~entry:"fopen" [ sample () ]
  in
  let imods, _ = Epoxie.instrument_modules [ sample () ] in
  let instr =
    Link.link ~name:"instr" ~text_base:0x400000 ~data_base:0x500000
      ~entry:"fopen"
      (imods @ [ Runtime.make Runtime.User ])
  in
  let stop exe = Exe.symbol exe "_findiop" in
  Printf.sprintf
    "Figure 2: Instrumentation by epoxie\n\n\
     a) Before instrumentation:\n%s\n\
     b) After instrumentation:\n%s"
    (Exe.disassemble ~hi:(stop orig) orig)
    (Exe.disassemble ~hi:(stop instr) instr)
