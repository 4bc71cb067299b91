(* Quickstart: trace a small program and look at its address trace.

   This is Figure 1 of the paper end to end: a user workload runs on the
   traced kernel; its per-process trace buffer drains into the in-kernel
   buffer on every kernel entry; the analysis side (us) receives the
   interleaved system trace and reconstructs the original binaries'
   reference stream.

     dune exec examples/quickstart.exe                                 *)

open Systrace

let greeting_program () : Systrace_kernel.Builder.program =
  let open Isa in
  let a = Asm.create "greet" in
  Asm.func a "main" ~frame:0 ~saves:[ Reg.s0 ] (fun () ->
      Asm.li a Reg.s0 3;
      Asm.label a "$loop";
      Asm.la a Reg.a0 "$msg";
      Asm.jal a "puts";
      Asm.addiu a Reg.s0 Reg.s0 (-1);
      Asm.bgtz a Reg.s0 "$loop";
      Asm.li a Reg.v0 0);
  Asm.dlabel a "$msg";
  Asm.asciiz a "traced hello\n";
  {
    Systrace_kernel.Builder.pname = "greet";
    modules = [ Asm.to_obj a; Workloads.Userlib.make () ];
    heap_pages = 2;
    is_server = false;
    notrace = false;
  }

let () =
  (* Collect the first few reconstructed references to show what a system
     trace looks like. *)
  let shown = ref 0 in
  let on_event ev =
    if !shown < 24 then begin
      incr shown;
      match ev with
      | Inst { addr; pid; kernel } ->
        Printf.printf "  I %08x  pid=%d %s\n" addr pid
          (if kernel then "kernel" else "user")
      | Data { addr; pid; kernel; is_load; _ } ->
        Printf.printf "  %s %08x  pid=%d %s\n"
          (if is_load then "L" else "S")
          addr pid
          (if kernel then "kernel" else "user")
    end
  in
  print_endline "First references of the interleaved system trace:";
  (* A streaming sink consumes the raw trace words online, chunk by chunk
     as each ANALYZE phase drains the in-kernel buffer — here a tee fans
     one run out to a stored trace file, a word counter, and a peak
     tracker, all in O(chunk) memory. *)
  let tmp = Filename.temp_file "quickstart" ".strc" in
  let counter, words_seen = Tracing.Sink.counting () in
  let peak, peak_words = Tracing.Sink.peak () in
  let sink =
    Tracing.Sink.tee [ Tracing.Sink.to_file tmp; counter; peak ]
  in
  let run = run_traced ~on_event ~sink [ greeting_program () ] [] in
  let s = run.parse_stats in
  Printf.printf "\nConsole output: %S\n" run.console;
  Printf.printf "Trace inventory:\n";
  Printf.printf "  %d trace words, %d basic-block records\n"
    s.Tracing.Parser.words s.Tracing.Parser.bb_records;
  Printf.printf "  %d instructions (%d user, %d kernel), %d data references\n"
    s.Tracing.Parser.insts s.Tracing.Parser.user_insts
    s.Tracing.Parser.kernel_insts s.Tracing.Parser.datas;
  Printf.printf "  %d buffer drains, %d pid switches, %d idle-loop instructions\n"
    s.Tracing.Parser.drains s.Tracing.Parser.pid_switches
    s.Tracing.Parser.idle_insts;
  Printf.printf
    "Streaming sinks: %d words streamed (largest chunk %d), stored trace \
     holds %d words\n"
    (words_seen ()) (peak_words ())
    (Tracing.Tracefile.fold_words tmp ~init:0 ~f:(fun n _ ~len -> n + len));
  Sys.remove tmp
