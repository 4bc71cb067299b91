(* Shared plumbing of the journey benchmark: the three validation jobs,
   the spanned calls into each layer, operation bookkeeping with output
   checks, golden statistics, and the counters the traced run reports. *)

open Systrace
module B = Systrace_kernel.Builder
module Kcfg = Systrace_kernel.Kcfg
module M = Systrace_machine.Machine
module P = Systrace_tracing.Parser

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Jobs: the paper's own workload/system pairs, chosen for their spread
   (FP loops with a small hot set; Mach integer code with IPC and a
   random page map; a short run dominated by boot and build). *)

type job = { id : int; name : string; label : string; os : Validate.os;
             spec : Validate.spec }

let jobs () =
  List.mapi
    (fun id (name, os) ->
      let e = Workloads.Suite.find name in
      {
        id;
        name;
        label =
          (name ^ "/" ^ match os with Validate.Ultrix -> "ultrix" | Mach -> "mach");
        os;
        spec =
          {
            Validate.wname = name;
            files = e.Workloads.Suite.files;
            programs = [ e.Workloads.Suite.program () ];
          };
      })
    [ ("tomcatv", Validate.Ultrix); ("gcc", Validate.Mach); ("egrep", Validate.Ultrix) ]

(* The system configuration the library journeys boot (Validate's base
   config, Systrace.run_traced, the CLI's analyze and sweep). *)
let system_cfg ~traced ~seed os =
  {
    B.default_config with
    B.traced;
    seed;
    personality = (match os with Validate.Ultrix -> Kcfg.Ultrix | Mach -> Kcfg.Mach);
    pagemap = (match os with Validate.Ultrix -> Kcfg.Careful | Mach -> Kcfg.Random);
  }

let programs j =
  match j.os with
  | Validate.Ultrix -> j.spec.Validate.programs
  | Mach ->
    B.program ~is_server:true "uxserver"
      [
        Workloads.Ux_server.make ~file_plan:(B.file_plan j.spec.Validate.files) ();
        Workloads.Userlib.make ();
      ]
    :: j.spec.Validate.programs

(* ------------------------------------------------------------------ *)
(* Counters recorded beside the spans (traced run only). *)

type counters = {
  mutable drain_words : int;
  mutable traced_insns : int;
  mutable untraced_insns : int;
  mutable measured_insns : int;
  mutable parser_words : int;
  mutable parser_refs : int;
  mutable memsim_refs : int;
  mutable memsim_configs : int;
  mutable written_words : int;
  mutable written_bytes : int;
  mutable read_words : int;
}

let ctr =
  {
    drain_words = 0; traced_insns = 0; untraced_insns = 0; measured_insns = 0;
    parser_words = 0; parser_refs = 0; memsim_refs = 0; memsim_configs = 0;
    written_words = 0; written_bytes = 0; read_words = 0;
  }

let count f = if !Span.enabled then f ctr

let add_parse (s : P.stats) =
  count (fun c ->
      c.parser_words <- c.parser_words + s.P.words;
      c.parser_refs <- c.parser_refs + s.P.insts + s.P.datas)

(* ------------------------------------------------------------------ *)
(* Spanned calls into the layers.  With tracing off each is the bare
   call behind one branch. *)

let build ~job ~cfg j =
  Span.with_ ~job "builder.build" (fun () ->
      B.build ~cfg ~programs:(programs j) ~files:j.spec.Validate.files ())

let insns (t : B.t) = t.B.machine.M.c.M.instructions

let run_to_halt ~job t =
  let traced = t.B.cfg.B.traced in
  Span.with_ ~job (if traced then "machine.traced" else "machine.untraced")
    (fun () ->
      match B.run t ~max_insns:2_000_000_000 with
      | M.Halt -> ()
      | M.Limit -> failwith "system did not halt");
  count (fun c ->
      if traced then c.traced_insns <- c.traced_insns + insns t
      else c.untraced_insns <- c.untraced_insns + insns t)

let drain_final ~job t =
  Span.with_ ~job "builder.drain_final" (fun () -> B.drain_final t)

(* The [trace_sink] callback, spanned: the time the machine waits on its
   trace consumer. *)
let set_trace_sink ~job t f =
  t.B.trace_sink <-
    Some
      (fun words len ->
        count (fun c -> c.drain_words <- c.drain_words + len);
        Span.with_ ~job "builder.drain" (fun () -> f words len))

(* A parser over [t]'s block tables, as every library journey makes. *)
let parser_for ~job (t : B.t) =
  Span.with_ ~job "parser.create" (fun () ->
      let p = P.create ~kernel_bbs:(Option.get t.B.kernel_bbs) () in
      List.iter
        (fun (pi : B.proc_info) -> P.register_pid p ~pid:pi.B.pid (Option.get pi.B.bbs))
        t.B.procs;
      p)

let live_pids (t : B.t) =
  List.filter_map
    (fun (pi : B.proc_info) -> if pi.B.prog.B.is_server then Some pi.B.pid else None)
    t.B.procs

(* ------------------------------------------------------------------ *)
(* Operations and their output checks.  An operation (a validate job, an
   offline sub-journey, a stream) fails when any of its checks does; the
   failures over the operations attempted make [failed_ratio]. *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

(* [--inject-fault]: perturb one output so the benchmark's own checks
   can be shown to fire. *)
let inject_fault = ref false

let perturb_once =
  let armed = Atomic.make true in
  fun x -> if !inject_fault && Atomic.exchange armed false then x + 1 else x

type check = bool -> string -> unit

(* ------------------------------------------------------------------ *)
(* Host speed.  The host is shared: other tenants' use of the last-level
   cache and memory slows every operation, by up to 2x, in phases that
   last from seconds to several minutes.  A fixed reference kernel, run
   between operations, measures how fast the host is right now; the
   benchmark's times are scaled by it (see [host_factor]).  The kernel is
   a read-modify-write walk at random over 16 MB, like the interpreter's
   memory traffic larger than the core's own caches, and allocates
   nothing.  Its code is the benchmark's own, so no change to the
   program under test can move it. *)

let ref_kernel_s = 0.040
(* outside the OCaml heap, so the collector's pacing and the process's
   peak memory do not depend on it beyond its own 16 MB *)
let ref_words =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
     for i = 0 to (1 lsl 21) - 1 do
       a.{i} <- i
     done;
     a)
(* (when taken, kernel seconds) *)
let ref_samples : (float * float) list ref = ref []

(* Time the kernel once.  Not while spans are recorded: the traced run's
   wall must be the layers' own. *)
let sample_host () =
  if not !Span.enabled then begin
    let a = Lazy.force ref_words in
    let t0 = now () in
    let x = ref 12345 and acc = ref 0 in
    for i = 1 to 3_000_000 do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let k = (!x lsr 7) land 0x1FFFFF in
      let v = Bigarray.Array1.unsafe_get a k in
      if v land 3 = 0 then Bigarray.Array1.unsafe_set a k (v + i) else acc := !acc + (v lxor k)
    done;
    ignore (Sys.opaque_identity !acc);
    let t1 = now () in
    ref_samples := (t1, t1 -. t0) :: !ref_samples
  end

(* Each validate job and offline sub-journey starts from a compacted
   heap, as a fresh CLI process would, so the garbage one operation
   leaves does not tax the next one's timing or peak memory; the host's
   speed is sampled right before it. *)
let attempt ?(fresh = false) name (f : check -> unit) =
  if fresh then begin
    Gc.compact ();
    sample_host ()
  end;
  Atomic.incr attempted;
  let ok = ref true in
  let check cond msg =
    if not cond then begin
      ok := false;
      Printf.eprintf "check failed: %s: %s\n%!" name msg
    end
  in
  (try f check
   with e -> check false ("raised " ^ Printexc.to_string e));
  if not !ok then Atomic.incr failed

(* ------------------------------------------------------------------ *)
(* Golden statistics.  Simulated results are deterministic, so every
   repeat of an operation must reproduce the first one's key/value
   record exactly, and records stored for the default seed (or for any
   seed, on the Ultrix jobs, whose careful page map ignores the seed)
   must match perfbench/golden.txt. *)

let seed = ref 1
let golden_path = Filename.concat "perfbench" "golden.txt"
let golden : (string, string) Hashtbl.t = Hashtbl.create 64
let first_seen : (string, (string * string) list) Hashtbl.t = Hashtbl.create 16
let golden_out : string list ref = ref []

let load_golden () =
  if Sys.file_exists golden_path then
    In_channel.with_open_text golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun line ->
           match String.split_on_char ' ' line with
           | [ s; section; label; key; value ] ->
             Hashtbl.replace golden (String.concat " " [ s; section; label; key ]) value
           | _ -> ())

let seed_invariant (j : job) = j.os = Validate.Ultrix

let expect (check : check) ~section (j : job) kvs =
  let id = section ^ " " ^ j.label in
  (match Hashtbl.find_opt first_seen id with
  | None ->
    Hashtbl.replace first_seen id kvs;
    let s = if seed_invariant j then "*" else string_of_int !seed in
    List.iter
      (fun (k, v) ->
        golden_out := String.concat " " [ s; section; j.label; k; v ] :: !golden_out)
      kvs
  | Some first ->
    List.iter2
      (fun (k, v) (_, v0) ->
        check (v = v0) (Printf.sprintf "%s %s: %s differs from the first run (%s vs %s)"
                          id k k v v0))
      kvs first);
  List.iter
    (fun (k, v) ->
      let find s = Hashtbl.find_opt golden (String.concat " " [ s; section; j.label; k ]) in
      match (find (string_of_int !seed), find "*") with
      | Some g, _ | None, Some g ->
        check (v = g) (Printf.sprintf "%s %s: %s = %s, golden %s" id k k v g)
      | None, None -> ())
    kvs

let i = string_of_int
let md5 fields = Digest.to_hex (Digest.string (String.concat "," (List.map i fields)))

(* Digests over named fields, so a counter added later leaves them be. *)
let parse_md5 (s : P.stats) =
  md5
    P.[ s.words; s.bb_records; s.markers; s.insts; s.user_insts; s.kernel_insts; s.datas;
        s.user_datas; s.kernel_datas; s.idle_insts; s.drains; s.pid_switches; s.exc_markers;
        s.max_exc_depth; s.mode_transitions; s.analysis_mode_words ]

let mem_fields (s : Systrace_tracesim.Memsim.stats) =
  Systrace_tracesim.Memsim.
    [ s.insts; s.datas; s.kernel_insts; s.user_insts; s.kernel_stall; s.user_stall;
      s.synth_insts; s.icache_misses; s.dcache_read_misses; s.uncached_reads;
      s.uncached_writes; s.wb_stalls; s.utlb_misses; s.ktlb_misses; s.unmapped ]

let mem_md5 s = md5 (mem_fields s)

(* ------------------------------------------------------------------ *)
(* Samples and summaries. *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation quantile, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* One timed operation.  [kind] groups repeats of the same operation;
   [words] is the trace words it moved; [insns] and [interp] are the
   validate journey's workload and interpreted instruction counts. *)
type sample = {
  kind : string;
  secs : float;
  words : int;
  insns : int;
  interp : int;
  at : float;  (** when the operation started *)
}

(* Made as the operation ends. *)
let sample ?(insns = 0) ?(interp = 0) kind secs words =
  { kind; secs; words; insns; interp; at = now () -. secs }

(* How much slower than a quiet host the host was around [t0, t1]: the
   median reference-kernel time sampled within [host_window] seconds of
   the interval, over the kernel's quiet-host time; 1 when none was
   sampled there.  A slow phase lasts seconds to minutes, so the kernel
   runs next to a timing tell the host's speed during it, and the timing
   divided by the factor reads as on a quiet host. *)
let host_window = 5.0

let host_factor t0 t1 =
  match
    List.filter_map
      (fun (t, k) -> if t >= t0 -. host_window && t <= t1 +. host_window then Some k else None)
      !ref_samples
  with
  | [] -> 1.0
  | ks -> median ks /. ref_kernel_s

(* Each operation kind's latency: the fastest of its repeats in the
   run.  The benchmark host is shared, and other tenants' load slows
   every repeat it overlaps, by up to 2x, in stretches of seconds to
   minutes; the slowdown is one-sided, so the fastest repeat is the
   steadiest estimate of the operation's own cost. *)
let per_kind samples =
  let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) samples) in
  List.map
    (fun k ->
      let ss = List.filter (fun s -> s.kind = k) samples in
      (k, List.fold_left (fun m s -> Float.min m s.secs) infinity ss, List.hd ss))
    kinds

(* Work per second over one pass of the per-kind latencies. *)
let rate_per_kind f samples =
  let ks = per_kind samples in
  let work = List.fold_left (fun a (_, _, s) -> a +. float_of_int (f s)) 0.0 ks in
  let secs = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 ks in
  work /. secs

(* Process peak resident memory, from the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.get
