(* Mach threads (paper §3.6): multiple traced threads in one address
   space, each with independent trace pages that the context switch maps
   in when the thread is activated. *)

open Systrace_isa
open Systrace_tracing
open Systrace_kernel
open Systrace_workloads
open Systrace_validate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* main spawns a thread; both sides loop doing stores and prints, then
   join crudely via yields. *)
let threads_prog () : Builder.program =
  let a = Asm.create "thr" in
  let open Asm in
  (* the thread body: print "b" five times *)
  func a "thread_body" ~frame:8 ~saves:[ Reg.s0 ] (fun () ->
      li a Reg.s0 5;
      label a "$tb_loop";
      la a Reg.a0 "$bmsg";
      jal a "puts";
      jal a "u_yield";
      addiu a Reg.s0 Reg.s0 (-1);
      bgtz a Reg.s0 "$tb_loop";
      (* mark completion for the main thread *)
      la a Reg.t0 "$done";
      li a Reg.t1 1;
      sw a Reg.t1 0 Reg.t0;
      li a Reg.v0 0);
  func a "main" ~frame:8 ~saves:[ Reg.s0 ] (fun () ->
      (* stack for the thread: top of a static buffer *)
      la a Reg.a1 "$tstack";
      addiu a Reg.a1 Reg.a1 (4096 - 16);
      la a Reg.a0 "thread_body";
      jal a "u_thread_create";
      move a Reg.s0 Reg.v0;
      bltz a Reg.s0 "$fail";
      li a Reg.s0 5;
      label a "$m_loop";
      la a Reg.a0 "$amsg";
      jal a "puts";
      jal a "u_yield";
      addiu a Reg.s0 Reg.s0 (-1);
      bgtz a Reg.s0 "$m_loop";
      (* wait for the thread *)
      label a "$wait";
      la a Reg.t0 "$done";
      lw a Reg.t1 0 Reg.t0;
      bnez a Reg.t1 "$joined";
      nop a;
      jal a "u_yield";
      j_ a "$wait";
      label a "$joined";
      li a Reg.v0 0;
      j_ a "main$epilogue";
      label a "$fail";
      li a Reg.v0 1);
  dlabel a "$amsg";
  asciiz a "a";
  dlabel a "$bmsg";
  asciiz a "b";
  dlabel a "$done";
  word a 0;
  align a 8;
  dlabel a "$tstack";
  space a 4096;
  {
    Builder.pname = "thr";
    modules = [ to_obj a; Userlib.make () ];
    heap_pages = 4;
    is_server = false;
    notrace = false;
  }

let mach_cfg traced =
  {
    Builder.default_config with
    Builder.personality = Kcfg.Mach;
    pagemap = Kcfg.Random;
    traced;
  }

let build_system traced =
  let files = [] in
  let server =
    {
      Builder.pname = "uxserver";
      modules =
        [ Ux_server.make ~file_plan:(Builder.file_plan files) ();
          Userlib.make () ];
      heap_pages = 4;
      is_server = true;
      notrace = false;
    }
  in
  Builder.build ~cfg:(mach_cfg traced) ~programs:[ server; threads_prog () ]
    ~files ()

let count_chars c s =
  String.fold_left (fun n x -> if x = c then n + 1 else n) 0 s

let test_threads_untraced () =
  let t = build_system false in
  Validate.run t;
  let out = Builder.console t in
  check_int "a count" 5 (count_chars 'a' out);
  check_int "b count" 5 (count_chars 'b' out);
  (* interleaving proves both ran concurrently *)
  check "interleaved" true
    (String.length out >= 2 && String.contains out 'a' && String.contains out 'b')

let test_threads_traced () =
  let t = build_system true in
  let p = Builder.trace_parser t in
  (* The spawned thread gets the first free PCB: pid 2 (0 = server,
     1 = main).  It runs the same binary as pid 1. *)
  let thr_prog = Builder.proc t 1 in
  Parser.register_pid p ~pid:2 (Option.get thr_prog.Builder.bbs);
  let per_pid = Hashtbl.create 8 in
  Parser.set_handlers p
    {
      Parser.on_inst =
        (fun _addr pid kernel ->
          if not kernel then
            Hashtbl.replace per_pid pid
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_pid pid)));
      on_data = (fun _ _ _ _ _ -> ());
    };
  Validate.run ~sink:(Sink.to_parser ~live:[ 0; 2 ] p) t;
  let out = Builder.console t in
  check_int "a count" 5 (count_chars 'a' out);
  check_int "b count" 5 (count_chars 'b' out);
  (* both threads produced traced user work under their own pids *)
  let insts pid = Option.value ~default:0 (Hashtbl.find_opt per_pid pid) in
  check "main thread traced work" true (insts 1 > 100);
  check "spawned thread traced work" true (insts 2 > 100);
  (* the thread got its own trace pages: its PCB records valid PTEs that
     differ from the main thread's *)
  let pte pid k =
    Builder.peek_off t "pcbs"
      ((pid * Kcfg.pcb_size) + Kcfg.pcb_trace_ptes + (4 * k))
  in
  check "main thread traced" true (pte 1 0 land 0x200 <> 0);
  check "spawned thread traced" true (pte 2 0 land 0x200 <> 0);
  check "independent trace pages" true (pte 1 0 <> pte 2 0)

let tests =
  [
    Alcotest.test_case "mach threads: untraced" `Quick test_threads_untraced;
    Alcotest.test_case "mach threads: traced, per-thread pages" `Quick
      test_threads_traced;
  ]
