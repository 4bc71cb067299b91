(* The [validate] workload: Validate.run_workload on each job, the
   paper's own journey (Tables 2-3, Figure 3).  Each job boots and runs
   the measured system, an ideal-memory system and the traced system
   with online prediction, so the interpreter runs both plain and
   epoxie-instrumented code.

   With tracing on, the same journey is made from its parts so each
   layer call can be spanned; its record must equal the library's. *)

open Systrace
open Common
module Memsim = Systrace_tracesim.Memsim
module Predict = Systrace_tracesim.Predict
module Sink = Systrace_tracing.Sink

(* The Table 2/3 and Figure 3 values of one row, and digests of the
   full parse and memory-simulation statistics. *)
let record (row : Validate.row) =
  let m = row.Validate.r_measured and p = row.Validate.r_predicted in
  [
    ("m_cycles", i m.Validate.m_cycles);
    ("m_insts", i m.Validate.m_insts);
    ("m_utlb", i m.Validate.m_utlb);
    ("m_arith", i m.Validate.m_arith_ideal);
    ("console_md5", Digest.to_hex (Digest.string m.Validate.m_console));
    ("p_seconds", Printf.sprintf "%.9g" p.Validate.p_breakdown.Predict.seconds);
    ("p_utlb", i p.Validate.p_utlb);
    ("p_traced_insts", i p.Validate.p_traced_insts);
    ("trace_words", i p.Validate.p_parse.P.words);
    ("parse_md5", parse_md5 p.Validate.p_parse);
    ("mem_md5", mem_md5 p.Validate.p_mem);
    ("error_pct", Printf.sprintf "%.4f" (Validate.percent_error row));
  ]

(* Validate's ideal-memory system: no miss, uncached or drain penalty. *)
let ideal (cfg : B.config) =
  {
    cfg with
    B.machine_cfg =
      { cfg.B.machine_cfg with M.read_miss_penalty = 0; uncached_penalty = 0; wb_drain = 0 };
  }

(* Validate.measure, from its parts. *)
let measure ~seed (j : job) =
  let job = j.id in
  let cfg = system_cfg ~traced:false ~seed j.os in
  let t = build ~job ~cfg j in
  run_to_halt ~job t;
  let ti = build ~job ~cfg:(ideal cfg) j in
  run_to_halt ~job ti;
  count (fun c -> c.measured_insns <- c.measured_insns + insns t);
  let m = t.B.machine in
  let c = m.M.c in
  {
      Validate.m_cycles = m.M.cycles;
      m_seconds = float_of_int m.M.cycles /. Predict.clock_hz;
      m_utlb = c.M.utlb_misses;
      m_idle = c.M.idle_instructions;
      m_user_insts = c.M.user_instructions;
      m_kernel_insts = c.M.kernel_instructions;
      m_insts = c.M.instructions;
      m_arith_ideal = M.arith_stalls ti.B.machine;
      m_console = B.console t;
      m_disk_reads = m.M.disk.Systrace_machine.Disk.reads;
      m_disk_writes = m.M.disk.Systrace_machine.Disk.writes;
  }

(* Validate.predict, from its parts.  Each drained chunk also goes to a
   null-handler parser, so parse time can be told from simulation time. *)
let predict ~seed ~arith (j : job) =
  let job = j.id in
  let cfg = system_cfg ~traced:true ~seed j.os in
  let t = build ~job ~cfg j in
  let parser = parser_for ~job t and shadow = parser_for ~job t in
  let mcfg = cfg.B.machine_cfg in
  let sw =
    Span.with_ ~job "memsim.create" (fun () ->
        Memsim.sweep [ default_memsim_cfg ~system:t ])
  in
  let live = live_pids t in
  let peak_sink, peak_words = Sink.peak () in
  let sim = Memsim.sweep_sink ~live sw parser in
  set_trace_sink ~job t (fun words len ->
      peak_sink.Sink.on_words words ~len;
      Span.with_ ~job "memsim.single" (fun () -> sim.Sink.on_words words ~len);
      Span.with_ ~job "parser.feed.single" (fun () -> P.feed shadow words ~len));
  run_to_halt ~job t;
  drain_final ~job t;
  peak_sink.Sink.finish ();
  sim.Sink.finish ();
  let mem = (Memsim.sweep_stats sw).(0) and parse = P.stats parser in
  add_parse parse;
  count (fun c ->
      c.memsim_refs <- c.memsim_refs + mem.Memsim.insts + mem.Memsim.datas;
      c.memsim_configs <- c.memsim_configs + 1);
  let breakdown =
    Predict.make ~mem ~parse ~arith_stalls:arith ~dilation:Kcfg.time_dilation
      ~read_miss_penalty:mcfg.M.read_miss_penalty
      ~uncached_penalty:mcfg.M.uncached_penalty
  in
  ( {
      Validate.p_breakdown = breakdown;
      p_utlb = mem.Memsim.utlb_misses;
      p_console = B.console t;
      p_parse = parse;
      p_mem = mem;
      p_traced_insts = insns t;
      p_tlbdropins = B.tlbdropins t;
      p_peak_words = peak_words ();
    },
    P.stats shadow )

(* One job.  The library call when untraced; its spanned parts when
   traced. *)
let run_job ~seed (j : job) check =
  let t0 = now () in
  let row, shadow =
    if !Span.enabled then begin
      let m = measure ~seed j in
      let p, shadow = predict ~seed ~arith:m.Validate.m_arith_ideal j in
      ({ Validate.r_name = j.name; r_os = j.os; r_measured = m; r_predicted = p }, Some shadow)
    end
    else (Validate.run_workload ~seed j.os j.spec, None)
  in
  let secs = now () -. t0 in
  let m = row.Validate.r_measured and p = row.Validate.r_predicted in
  let console = if perturb_once 0 = 0 then m.Validate.m_console else "" in
  check (console = p.Validate.p_console) "traced and untraced consoles differ";
  (match shadow with
  | Some s ->
    check (s = p.Validate.p_parse) "null-handler parse differs from the simulated one"
  | None -> ());
  check
    (p.Validate.p_mem.Memsim.datas = p.Validate.p_parse.P.datas)
    "memsim saw a different data-reference count than the parser produced";
  expect check ~section:"validate" j (record row);
  (* Validate reports no instruction count for its ideal-memory run, so
     the interpreted count covers the measured and traced runs. *)
  ( sample ~insns:m.Validate.m_insts
      ~interp:(m.Validate.m_insts + p.Validate.p_traced_insts)
      j.label secs p.Validate.p_parse.P.words,
    Float.abs (Validate.percent_error row) )

let errors : (string, float) Hashtbl.t = Hashtbl.create 4

let pass ~seed jobs =
  List.filter_map
    (fun (j : job) ->
      let out = ref None in
      attempt ~fresh:true ("validate " ^ j.label) (fun check ->
          let s, err = run_job ~seed j check in
          Hashtbl.replace errors j.label err;
          out := Some s);
      !out)
    jobs

(* The set-up: build each job's three systems (measured, ideal-memory,
   traced) once, as the timed journey will, then validate the shortest
   job once, untimed, so the process is warm. *)
let prepare ~seed jobs =
  List.iter
    (fun (j : job) ->
      let cfg = system_cfg ~traced:false ~seed j.os in
      List.iter
        (fun cfg -> ignore (build ~job:j.id ~cfg j : B.t))
        [ cfg; ideal cfg; system_cfg ~traced:true ~seed j.os ])
    jobs;
  attempt "validate egrep (warm-up)" (fun check ->
      ignore (run_job ~seed (List.nth jobs 2) check : sample * float))

let predict_error_pct () =
  let es = Hashtbl.fold (fun _ e acc -> e :: acc) errors [] in
  List.fold_left ( +. ) 0.0 es /. float_of_int (max 1 (List.length es))
