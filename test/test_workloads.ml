(* Tests for the workload suite: golden outputs (the workloads are
   deterministic programs, as the paper's validation methodology
   requires), determinism of the machine, personality equivalence, and a
   full traced validation pass for a representative workload. *)

open Systrace_kernel
open Systrace_workloads
open Systrace_validate

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* lisp must find the 92 solutions of 8-queens; the others' digests are
   pinned: any unintended behaviour change in the ISA, kernel or machine
   shows up here. *)
let goldens =
  [
    ("sed", "223");
    ("egrep", "420");
    ("yacc", "1560475639");
    ("gcc", "1868329662");
    ("compress", "2225410");
    ("espresso", "123069");
    ("lisp", "92");
    ("eqntott", "234034680");
    ("fpppp", "4800");
    ("doduc", "44040");
    ("liv", "8001");
    ("tomcatv", "47");
  ]

let run_ultrix (e : Suite.entry) =
  let t = Validate.system ~traced:false Validate.Ultrix (Experiments.spec_of e) in
  Validate.run t;
  t

let strip s = String.trim s

let golden_test name expected () =
  let e = Suite.find name in
  let t = run_ultrix e in
  check_str "console" expected (strip (Builder.console t))

let test_determinism () =
  let e = Suite.find "doduc" in
  let t1 = run_ultrix e and t2 = run_ultrix e in
  check_str "same output" (Builder.console t1) (Builder.console t2);
  Alcotest.(check int)
    "same cycle count" t1.Builder.machine.Systrace_machine.Machine.cycles
    t2.Builder.machine.Systrace_machine.Machine.cycles

let test_mach_equivalence () =
  (* File-processing workloads must produce the same answer through the
     UX server as through the monolithic kernel. *)
  List.iter
    (fun name ->
      let e = Suite.find name in
      let spec =
        { Validate.wname = name; files = e.Suite.files;
          programs = [ e.Suite.program () ] }
      in
      let mu = Validate.measure Validate.Ultrix spec in
      let mm = Validate.measure Validate.Mach spec in
      check_str (name ^ " output") mu.Validate.m_console mm.Validate.m_console)
    (* sed and compress write output files: under Mach that exercises the
       UX server's write path (copyin + user-space cache). *)
    [ "egrep"; "compress"; "yacc"; "sed"; "gcc" ]

let test_validated_prediction () =
  (* Full pipeline for one workload: the traced run must agree on output,
     and the prediction must land within 10% (Figure 3: most workloads are
     under 5%; egrep has no disk-latency pathologies). *)
  let e = Suite.find "egrep" in
  let spec =
    { Validate.wname = "egrep"; files = e.Suite.files;
      programs = [ e.Suite.program () ] }
  in
  let row = Validate.run_workload Validate.Ultrix spec in
  let err = Validate.percent_error row in
  if err > 10.0 then Alcotest.failf "egrep prediction error %.1f%% > 10%%" err

let test_expansion_bands () =
  (* Every workload's epoxie expansion must be below pixie's, and the
     suite means must fall in the paper's bands (1.9-2.3 vs 4-6). *)
  let open Systrace_epoxie in
  let means =
    List.map
      (fun (e : Suite.entry) ->
        let mods = (e.Suite.program ()).Builder.modules in
        let imods, _ = Epoxie.instrument_modules mods in
        let pmods = Pixie.instrument_modules mods in
        let fe = Epoxie.expansion ~original:mods ~instrumented:imods in
        let fp = Epoxie.expansion ~original:mods ~instrumented:pmods in
        check (e.Suite.name ^ ": epoxie < pixie") true (fe < fp);
        (fe, fp))
      Suite.all
  in
  let fe = Systrace_util.Stats.mean (List.map fst means) in
  let fp = Systrace_util.Stats.mean (List.map snd means) in
  check "epoxie mean in band" true (fe >= 1.5 && fe <= 2.8);
  check "pixie mean in band" true (fp >= 3.5 && fp <= 6.5)

let test_dilation_band () =
  let e = Suite.find "egrep" in
  let spec =
    { Validate.wname = "egrep"; files = e.Suite.files;
      programs = [ e.Suite.program () ] }
  in
  let row = Validate.run_workload Validate.Ultrix spec in
  let d = Validate.dilation row in
  check "dilation plausible" true (d > 3.0 && d < 25.0)

let tests =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case ("golden: " ^ name) `Slow (golden_test name expected))
    goldens
  @ [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "mach equivalence" `Slow test_mach_equivalence;
      Alcotest.test_case "validated prediction (egrep)" `Slow
        test_validated_prediction;
      Alcotest.test_case "expansion bands" `Quick test_expansion_bands;
      Alcotest.test_case "dilation band" `Quick test_dilation_band;
    ]
