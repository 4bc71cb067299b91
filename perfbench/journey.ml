(* Journey benchmark for systrace: three workloads built from journeys
   users run, each checked for correct output on every run.

     journey.exe --workload validate|offline|serve_ingest --seed N
                 --seconds S --trace 0|1 [--inject-fault] [--golden-out FILE]

   Set-up (captures, encodings, daemon start) runs before timing, three
   times with tracing off (seven for the short validate set-up), and
   setup_s is their median.  The timed phase repeats the workload's
   operations for S seconds.  With --trace 1 the set-up runs once with
   spans on, the timed phase alternates untraced and traced rounds, and
   the per-layer metrics come from the traced spans.  The
   last line of output is one JSON object: correct, attempted, failed
   and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
   All times are host wall-clock seconds; each end-to-end one is divided
   by the host factor around it (Common.host_factor). *)

open Common

let workloads = [ "validate"; "offline"; "serve_ingest" ]
let work_dir = Wl_offline.work_dir

type state =
  | Validate of job list
  | Offline of Capture.trace list
  | Serve of Wl_serve.daemon

(* Validate has nothing to capture; its set-up builds every system the
   jobs boot and warms the process with one validation of egrep. *)
let setup ~seed = function
  | "validate" ->
    let js = Common.jobs () in
    Wl_validate.prepare ~seed js;
    Validate js
  | "offline" -> Offline (Capture.capture_all ~seed (Common.jobs ()))
  | _ -> Serve (Wl_serve.start (Capture.capture_all ~seed (Common.jobs ())))

let stop = function Serve d -> Wl_serve.stop d | Validate _ | Offline _ -> ()

(* One round of the timed phase: a pass over the workload's operations,
   or a closed-loop window of [seconds].  Returns the clean-operation
   samples and, for the closed loop, its wall time. *)
let round ~seed ~seconds ~min_streams st =
  Span.with_ ~job:(-1) "bench.pass" (fun () ->
      match st with
      | Validate js -> (Wl_validate.pass ~seed js, 0.0)
      | Offline trs -> (Wl_offline.pass ~seed trs, 0.0)
      | Serve d ->
        (* each window starts from a compacted heap *)
        Gc.compact ();
        for _ = 1 to 5 do
          sample_host ()
        done;
        let samples, wall = Wl_serve.run ~seed ~seconds ~min_streams d in
        ignore (Wl_serve.final_stats d : Wl_serve.Server.snapshot);
        (samples, wall))

(* A closed-loop window: its round's interval, the loop's own wall time
   and its clean streams. *)
type window = { from : float; until : float; loop_wall : float; streams : sample list }

type phase = {
  mutable samples : sample list;
  mutable windows : window list;
  mutable gc : float * float * float;
  mutable wall : float;  (** summed round wall time *)
}

let gc_now () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, float_of_int s.Gc.major_collections)

let gc_add (a, b, c) (a', b', c') = (a +. a', b +. b', c +. c')
let gc_diff (a, b, c) (a', b', c') = (a' -. a, b' -. b, c' -. c)

(* The timed phase: rounds until [seconds] have passed (a round that
   would mostly run past the end is not started), the closed loop in
   windows of a fifth of the time with at least 20 streams each, each
   from a compacted heap.  In the traced run, rounds alternate between
   untraced and traced, so host drift hits both alike. *)
let phase ~seed ~seconds ~alternate st =
  let fresh () = { samples = []; windows = []; gc = (0.0, 0.0, 0.0); wall = 0.0 } in
  let untraced = fresh () and traced = fresh () in
  let window = seconds /. 5.0 in
  let t0 = now () and n = ref 0 and last = ref 0.0 in
  while !n < (if alternate then 2 else 1) || now () -. t0 +. (!last /. 2.0) < seconds do
    let p = if alternate && !n mod 2 = 1 then traced else untraced in
    if alternate then Span.enabled := p == traced;
    let g0 = gc_now () and r0 = now () in
    let samples, wall = round ~seed ~seconds:window ~min_streams:20 st in
    last := now () -. r0;
    p.wall <- p.wall +. !last;
    p.samples <- samples @ p.samples;
    if wall > 0.0 then
      p.windows <- { from = r0; until = now (); loop_wall = wall; streams = samples } :: p.windows;
    p.gc <- gc_add p.gc (gc_diff g0 (gc_now ()));
    incr n
  done;
  (untraced, traced)

(* The host factor a timing over [t0, t1] is divided by; 1 for the
   unscaled figures. *)
let factor ~scaled t0 t1 = if scaled then host_factor t0 t1 else 1.0

(* The phase's operation samples, each time divided by its factor. *)
let timed ~scaled p =
  List.map (fun s -> { s with secs = s.secs /. factor ~scaled s.at (s.at +. s.secs) }) p.samples

let window_rate ~scaled w =
  let words = List.fold_left (fun a s -> a + s.words) 0 w.streams in
  float_of_int words /. w.loop_wall *. factor ~scaled w.from w.until

(* Throughput and operation latencies.  The closed loop: the window that
   acknowledged the most words per second (other tenants' load only ever
   slows a window), and its streams' latencies.  A pass: the work per
   second over one pass of the per-kind fastest latencies, and those
   latencies, whose 0.9 quantile is then the slowest kind's latency
   interpolated towards the next slowest. *)
let summary ~scaled p =
  let faster a b = compare (window_rate ~scaled b) (window_rate ~scaled a) in
  match List.sort faster p.windows with
  | w :: _ ->
    let f = factor ~scaled w.from w.until in
    (window_rate ~scaled w, List.map (fun s -> s.secs /. f) w.streams)
  | [] ->
    let ss = timed ~scaled p in
    (rate_per_kind (fun s -> s.words) ss, List.map (fun (_, t, _) -> t) (per_kind ss))

let secs samples = List.map (fun s -> s.secs) samples

let prefixed p samples =
  List.filter (fun s -> String.starts_with ~prefix:p s.kind) samples

let print_metric (name, unit_, v) = Printf.printf "  %-30s %14.6g %s\n" name v unit_

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             unit_)
         ms)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced run's spans and counters. *)

let per a b = if b > 0.0 then a /. b else 0.0

let layer_metrics ~overhead ~gc ~wall ~(serve : Wl_serve.Server.snapshot option) =
  let tbl = Span.totals () in
  let find n = Hashtbl.find_opt tbl n in
  let total n = match find n with Some t -> t.Span.total_s | None -> 0.0 in
  let self n = match find n with Some t -> t.Span.self_s | None -> 0.0 in
  let calls n = match find n with Some t -> float_of_int t.Span.calls | None -> 0.0 in
  let sum_where p f = Hashtbl.fold (fun n t a -> if p n then a +. f t else a) tbl 0.0 in
  let layer n = List.hd (String.split_on_char '.' n) in
  let f = float_of_int in
  let c = ctr in
  let feed_s = sum_where (String.starts_with ~prefix:"parser.feed.") (fun t -> t.Span.total_s) in
  let single_s = total "memsim.single" -. total "parser.feed.single" in
  let sweep_s = total "memsim.sweep" -. total "parser.feed.sweep" in
  let write_s = total "tracefile.write" and read_s = self "tracefile.read" in
  let traced_s = self "machine.traced" and untraced_s = total "machine.untraced" in
  (* The traced wall, per thread: the main thread's measured wall, with
     its wait for the client threads replaced by their own time.  What no
     outermost layer span covers of it is unattributed. *)
  let lanes = wall -. total "bench.join" +. total "bench.client" in
  let covered = Span.outermost ~frame:(String.starts_with ~prefix:"bench.") in
  let unattributed = per (lanes -. covered) lanes in
  let sv g = match serve with Some s -> g s | None -> 0.0 in
  let gc_layer l =
    ( Printf.sprintf "gc.%s.minor_words" l, "words",
      sum_where (fun n -> layer n = l) (fun t -> t.Span.self_minor), true )
  in
  let minor, promoted, majors = gc in
  [
    ("builder.build_s", "s", total "builder.build", true);
    ("builder.builds", "count", calls "builder.build", true);
    ("builder.drain_s", "s", total "builder.drain", true);
    ("builder.drains", "count", calls "builder.drain", true);
    ("builder.drain_words", "words", f c.drain_words, true);
    ("builder.drain_final_s", "s", total "builder.drain_final", true);
    ("machine.traced_s", "s", traced_s, true);
    ("machine.traced_insns", "insns", f c.traced_insns, true);
    ("machine.traced_insns_per_s", "insns/s", per (f c.traced_insns) traced_s, true);
    ("machine.untraced_s", "s", untraced_s, false);
    ("machine.untraced_insns", "insns", f c.untraced_insns, true);
    ("machine.untraced_insns_per_s", "insns/s", per (f c.untraced_insns) untraced_s, false);
    ("machine.dilation_x", "x", per (f c.traced_insns) (f c.measured_insns), true);
    ("parser.feed_s", "s", feed_s, true);
    ("parser.words", "words", f c.parser_words, true);
    ("parser.refs", "refs", f c.parser_refs, true);
    ("parser.words_per_s", "words/s", per (f c.parser_words) feed_s, true);
    ("memsim.single_s", "s", single_s, false);
    ("memsim.sweep_s", "s", sweep_s, false);
    ("memsim.refs", "refs", f c.memsim_refs, true);
    ("memsim.refs_per_s", "refs/s", per (f c.memsim_refs) (single_s +. sweep_s), false);
    ("memsim.configs", "count", f c.memsim_configs, true);
    ("tracefile.write_s", "s", write_s, false);
    ("tracefile.write_words_per_s", "words/s", per (f c.written_words) write_s, false);
    ("tracefile.read_s", "s", read_s, false);
    ("tracefile.read_words_per_s", "words/s", per (f c.read_words) read_s, false);
    ("tracefile.bytes", "bytes", f c.written_bytes, true);
    ("tracefile.ratio_x", "x", per (4.0 *. f c.written_words) (f c.written_bytes), true);
    ("serve.client_send_s", "s", total "serve.client_send", false);
    ("serve.reply_wait_s", "s", total "serve.reply_wait", false);
    ("serve.drain_p50_s", "s", sv (fun s -> s.Wl_serve.Server.drain_p50), false);
    ("serve.drain_p99_s", "s", sv (fun s -> s.Wl_serve.Server.drain_p99), false);
    ("serve.peak_resident_words", "words",
     sv (fun s -> f s.Wl_serve.Server.peak_resident_words), true);
    ("serve.words_dropped", "words", sv (fun s -> f s.Wl_serve.Server.words_dropped), true);
    ("serve.streams_faulted", "count", sv (fun s -> f s.Wl_serve.Server.streams_faulted), true);
    ("serve.analyzed_ratio", "ratio",
     sv (fun s -> per (f s.Wl_serve.Server.words_analyzed) (f s.Wl_serve.Server.words_in)),
     true);
    ("gc.minor_words", "words", minor, true);
    ("gc.promoted_words", "words", promoted, true);
    ("gc.major_collections", "count", majors, true);
  ]
  @ List.map gc_layer [ "builder"; "machine"; "parser"; "memsim"; "tracefile"; "serve"; "bench" ]
  @ [
      ("bench.trace_overhead_pct", "%", overhead, true);
      ("bench.unattributed_pct", "%", 100.0 *. unattributed, true);
    ]

let print_spans () =
  let tbl = Span.totals () in
  let rows = List.sort compare (Hashtbl.fold (fun n t a -> (n, t) :: a) tbl []) in
  Printf.printf "  %-22s %8s %12s %12s\n" "span" "calls" "total s" "self s";
  List.iter
    (fun (n, t) ->
      Printf.printf "  %-22s %8d %12.4f %12.4f\n" n t.Span.calls t.Span.total_s t.Span.self_s)
    rows

(* ------------------------------------------------------------------ *)

let main () =
  let workload = ref "" and seconds = ref 10 and trace = ref 0 and golden_file = ref "" in
  let usage = "journey.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME validate, offline or serve_ingest");
      ("--seed", Arg.Set_int seed, "N page-map / RNG / tear-offset seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--inject-fault", Arg.Set inject_fault, " perturb one output (self-check)");
      ("--golden-out", Arg.Set_string golden_file, "FILE write this run's golden records");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and traced = !trace = 1 in
  load_golden ();
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  (* set-up, each repeat right after three host samples *)
  if traced then Span.enabled := true;
  let gc0 = gc_now () in
  let setups = ref [] and st = ref None and setup_wall = ref 0.0 in
  let repeats = if traced then 1 else if !workload = "validate" then 7 else 3 in
  for _ = 1 to repeats do
    let w0 = now () in
    Option.iter stop !st;
    st := None;
    Gc.compact ();
    for _ = 1 to 3 do
      sample_host ()
    done;
    let t0 = now () in
    st := Some (Span.with_ ~job:(-1) "bench.setup" (fun () -> setup ~seed !workload));
    setups := (t0, now ()) :: !setups;
    setup_wall := !setup_wall +. (now () -. w0)
  done;
  let st = Option.get !st in
  let gc_setup = gc_diff gc0 (gc_now ()) and setup_rss = peak_rss_mb () in
  Fun.protect
    ~finally:(fun () -> stop st)
    (fun () ->
      let untraced, traced_run =
        phase ~seed ~seconds:(float_of_int !seconds) ~alternate:traced st
      in
      let attempted = Atomic.get attempted and failed = Atomic.get failed in
      let rss = peak_rss_mb () in
      (* Every time from here on is divided by the host factor around it.
         Operation latencies are the clean streams of the fastest window
         for the closed loop, the per-kind latencies for the fixed
         operation set of a pass.  Their median is reported for
         serve_ingest only (stream_p50_s): over the operation kinds of a
         pass it swings between kinds. *)
      let samples = timed ~scaled:true untraced in
      let wps, latencies = summary ~scaled:true untraced in
      let setup_time ~scaled (t0, t1) = (t1 -. t0) /. factor ~scaled t0 t1 in
      let setup_s ~scaled = median (List.map (setup_time ~scaled) !setups) in
      let e2e =
        [
          ("words_per_s", "words/s", wps);
          ("op_p90_s", "s", quantile 0.9 latencies);
          ("peak_rss_mb", "MB", rss);
          ("setup_s", "s", setup_s ~scaled:true);
        ]
      in
      let journey =
        match st with
        | Validate _ ->
          [
            ("workload_insns_per_s", "insns/s", rate_per_kind (fun s -> s.insns) samples);
            ("interp_insns_per_s", "insns/s", rate_per_kind (fun s -> s.interp) samples);
            ("predict_error_pct", "%", Wl_validate.predict_error_pct ());
          ]
        | Offline _ ->
          let rate p = rate_per_kind (fun s -> s.words) (prefixed p samples) in
          [
            ("store_write_words_per_s", "words/s", rate "write ");
            ("analyze_words_per_s", "words/s", rate "analyze ");
            ("sweep_words_per_s", "words/s", rate "sweep ");
          ]
        | Serve _ ->
          [
            ("ingest_words_per_s", "words/s", wps);
            ("stream_p50_s", "s", quantile 0.5 latencies);
            ("stream_p90_s", "s", quantile 0.9 latencies);
            ("streams_sampled", "count", float_of_int (List.length latencies));
          ]
      in
      Printf.printf "workload %s, seed %d, %d s, trace %d: %d operations sampled, set-ups %s s\n"
        !workload seed !seconds !trace (List.length samples)
        (String.concat " "
           (List.rev_map (fun s -> Printf.sprintf "%.3f" (setup_time ~scaled:false s)) !setups));
      Printf.printf "  peak resident memory after set-up: %.1f MB\n" setup_rss;
      let ks = List.map snd !ref_samples in
      Printf.printf "  reference kernel: %d runs, median %.4f s, min %.4f, max %.4f\n"
        (List.length ks) (median ks) (List.fold_left min infinity ks)
        (List.fold_left max 0.0 ks);
      let raw_wps, raw_latencies = summary ~scaled:false untraced in
      Printf.printf "  unscaled: words_per_s %.6g, op_p90_s %.6g, setup_s %.6g\n" raw_wps
        (quantile 0.9 raw_latencies) (setup_s ~scaled:false);
      List.iter
        (fun (k, fastest, _) ->
          let ts = secs (List.filter (fun s -> s.kind = k) samples) in
          Printf.printf "  %-24s n=%-5d min %.4f s  median %.4f  max %.4f\n" k
            (List.length ts) fastest (median ts)
            (List.fold_left max 0.0 ts))
        (per_kind samples);
      List.iter print_metric
        ((("failed_ratio", "ratio", per (float_of_int failed) (float_of_int attempted)) :: e2e)
        @ journey);
      let metrics =
        if not traced then e2e
        else begin
          let overhead =
            100.0 *. (per raw_wps (fst (summary ~scaled:false traced_run)) -. 1.0)
          in
          let gc = gc_add gc_setup traced_run.gc in
          let serve =
            match st with
            | Serve d -> Some (Wl_serve.Server.stats d.Wl_serve.server)
            | Validate _ | Offline _ -> None
          in
          let ms = layer_metrics ~overhead ~gc ~wall:(!setup_wall +. traced_run.wall) ~serve in
          Printf.printf "per-layer metrics (traced run):\n";
          List.iter (fun (n, u, v, _) -> print_metric (n, u, v)) ms;
          print_spans ();
          let spans = Filename.concat work_dir (Printf.sprintf "spans-%s-%d.tsv" !workload seed) in
          Span.write spans;
          Printf.printf "spans written to %s\n" spans;
          List.filter_map (fun (n, u, v, j) -> if j then Some (n, u, v) else None) ms
        end
      in
      if !golden_file <> "" then
        Out_channel.with_open_text !golden_file (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !golden_out));
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
        (failed = 0) attempted failed (json_metrics metrics))

let () =
  main ();
  (* stored traces are scratch; the span logs stay for inspection *)
  Array.iter
    (fun f -> if Filename.check_suffix f ".strc" then Sys.remove (Filename.concat work_dir f))
    (try Sys.readdir work_dir with Sys_error _ -> [||])
