(* The [offline] workload: per captured trace, dump's write path (a
   compressed v3 file through Sink.to_file), then the [analyze] journey
   (Systrace.replay_file at the default geometry) and the [sweep] journey
   (Systrace.replay_sweep_file over the 72-configuration default grid of
   `systrace sweep`, decoded sequentially) off the stored file.  Each read
   journey first builds the traced system for its block tables, as the
   CLI does.  No instruction is interpreted in the timed phase.

   With tracing on, the reads are made from Systrace.replay_sink /
   replay_sweep_sink and Tracefile.fold_words so decode, parse and
   simulation can be spanned apart; each chunk also goes to a
   null-handler parser to time parsing alone. *)

open Systrace
open Common
module Memsim = Systrace_tracesim.Memsim
module Sink = Systrace_tracing.Sink
module Tf = Systrace_tracing.Tracefile

let work_dir = ".perfbench_work"
let path_of (tr : Capture.trace) = Filename.concat work_dir (tr.Capture.job.name ^ ".strc")

(* the `systrace sweep` defaults *)
let grid ~system =
  Memsim.grid ~base:(default_memsim_cfg ~system)
    ~sizes:(List.map (fun k -> k * 1024) [ 4; 8; 16; 64 ])
    ~lines:[ 4; 16; 32 ] ~tlb_entries:[ 16; 32; 64 ] ~wb_depths:[ 2; 4 ] ()

let file_bytes path = In_channel.with_open_bin path In_channel.length |> Int64.to_int

let write (tr : Capture.trace) check =
  let job = tr.Capture.job.id and path = path_of tr in
  let t0 = now () in
  let sink = Sink.to_file ~compress:true path in
  Array.iter
    (fun c ->
      Span.with_ ~job "tracefile.write" (fun () -> sink.Sink.on_words c ~len:(Array.length c)))
    tr.Capture.chunks;
  Span.with_ ~job "tracefile.write" sink.Sink.finish;
  let secs = now () -. t0 in
  (* read the file back: the words must checksum-equal the capture *)
  let words, sum =
    Span.with_ ~job "tracefile.read" (fun () ->
        Tf.fold_words path ~init:(0, 0) ~f:(fun (n, h) w ~len ->
            (n + len, Capture.mix h w len)))
  in
  let bytes = file_bytes path in
  count (fun c ->
      c.written_words <- c.written_words + tr.Capture.words;
      c.written_bytes <- c.written_bytes + bytes;
      c.read_words <- c.read_words + words);
  check (words = tr.Capture.words) "file word count differs from the capture";
  check (perturb_once sum = tr.Capture.sum) "file words differ from the capture";
  expect check ~section:"write" tr.Capture.job [ ("file_bytes", i bytes) ];
  sample ("write " ^ tr.Capture.job.label) secs tr.Capture.words

(* Fold the stored trace into [sink], spanning decode and each chunk's
   simulation, with the null-handler [shadow] parser beside it. *)
let spanned_fold ~job ~engine path (sink : Sink.t) shadow =
  Span.with_ ~job "tracefile.read" (fun () ->
      Tf.fold_words path ~init:() ~f:(fun () w ~len ->
          count (fun c -> c.read_words <- c.read_words + len);
          Span.with_ ~job ("memsim." ^ engine) (fun () -> sink.Sink.on_words w ~len);
          Span.with_ ~job ("parser.feed." ^ engine) (fun () -> P.feed shadow w ~len)))

let count_sim ~configs (parse : P.stats) (mem : Memsim.stats) =
  add_parse parse;
  count (fun c ->
      c.memsim_refs <- c.memsim_refs + mem.Memsim.insts + mem.Memsim.datas;
      c.memsim_configs <- c.memsim_configs + configs)

let analyze ~seed (tr : Capture.trace) check =
  let j = tr.Capture.job in
  let job = j.id and path = path_of tr in
  let t0 = now () in
  let system = build ~job ~cfg:(system_cfg ~traced:true ~seed j.os) j in
  let memsim_cfg = default_memsim_cfg ~system in
  let (mem, parse), shadow =
    if !Span.enabled then begin
      let sink, result =
        Span.with_ ~job "memsim.create" (fun () -> replay_sink ~system ~memsim_cfg ())
      in
      let shadow = parser_for ~job system in
      spanned_fold ~job ~engine:"single" path sink shadow;
      (result (), Some (P.stats shadow))
    end
    else (replay_file ~system ~memsim_cfg path, None)
  in
  let secs = now () -. t0 in
  count_sim ~configs:1 parse mem;
  check (parse.P.words = tr.Capture.words) "analyze parsed a different word count";
  (match shadow with Some s -> check (s = parse) "null-handler parse differs" | None -> ());
  expect check ~section:"analyze" j [ ("parse_md5", parse_md5 parse); ("mem_md5", mem_md5 mem) ];
  (sample ("analyze " ^ j.label) secs tr.Capture.words, (mem, parse))

(* Statistics a configuration's TLB size alone decides: every grid
   column with the default 64-entry TLB must agree with [analyze]. *)
let tlb_fields (s : Memsim.stats) =
  Memsim.
    [ s.insts; s.datas; s.kernel_insts; s.user_insts; s.synth_insts; s.utlb_misses;
      s.ktlb_misses; s.unmapped; s.uncached_reads; s.uncached_writes ]

let sweep ~seed (tr : Capture.trace) (amem, aparse) check =
  let j = tr.Capture.job in
  let job = j.id and path = path_of tr in
  let t0 = now () in
  let system = build ~job ~cfg:(system_cfg ~traced:true ~seed j.os) j in
  let grid = grid ~system in
  let memsim_cfgs = List.map snd grid in
  let (stats, accesses, parse), shadow =
    if !Span.enabled then begin
      let sink, result =
        Span.with_ ~job "memsim.create" (fun () ->
            replay_sweep_sink ~system ~memsim_cfgs ())
      in
      let shadow = parser_for ~job system in
      spanned_fold ~job ~engine:"sweep" path sink shadow;
      (result (), Some (P.stats shadow))
    end
    else (replay_sweep_file ~system ~memsim_cfgs path, None)
  in
  let secs = now () -. t0 in
  count_sim ~configs:(List.length grid) parse stats.(0);
  check (List.length grid = 72) "the default grid is not 72 configurations";
  check (parse = aparse) "sweep and analyze parsed differently";
  (match shadow with Some s -> check (s = parse) "null-handler parse differs" | None -> ());
  List.iteri
    (fun k (_, (c : Memsim.config)) ->
      if c.Memsim.tlb_entries = 64 then
        check (tlb_fields stats.(k) = tlb_fields amem)
          (Printf.sprintf "sweep column %d disagrees with analyze" k))
    grid;
  let columns =
    List.concat (Array.to_list (Array.map2 (fun s (ia, da) -> ia :: da :: mem_fields s) stats accesses))
  in
  expect check ~section:"sweep" j [ ("stats_md5", md5 columns) ];
  sample ("sweep " ^ j.label) secs tr.Capture.words

let pass ~seed traces =
  List.concat_map
    (fun (tr : Capture.trace) ->
      let out = ref [] in
      let label = tr.Capture.job.label in
      attempt ~fresh:true ("write " ^ label) (fun check -> out := [ write tr check ]);
      let analyzed = ref None in
      attempt ~fresh:true ("analyze " ^ label) (fun check ->
          let s, stats = analyze ~seed tr check in
          analyzed := Some stats;
          out := s :: !out);
      attempt ~fresh:true ("sweep " ^ label) (fun check ->
          match !analyzed with
          | Some a -> out := sweep ~seed tr a check :: !out
          | None -> check false "analyze failed");
      List.rev !out)
    traces
