(* Tests for the machine simulator: instruction semantics, exceptions, TLB,
   caches, write buffer, FPU, and devices.

   Test programs are assembled with the eDSL, linked at a kseg0 virtual
   address, and loaded at the corresponding physical address.  The machine
   boots in kernel mode, so programs can use privileged instructions. *)

open Systrace_isa
open Systrace_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let text_va = 0x8000_1000
let data_va = 0x8000_8000

(* Build a machine running the given module from "_start"; the hcall 0
   handler halts the machine. *)
let setup ?(cfg = Machine.default_config) ?(extra = []) (build : Asm.t -> unit) =
  let a = Asm.create "test" in
  Asm.global a "_start";
  Asm.label a "_start";
  build a;
  let exe =
    Link.link ~name:"test" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      (Asm.to_obj a :: extra)
  in
  let m = Machine.create ~cfg () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  m.Machine.pc <- exe.Exe.entry;
  m.Machine.npc <- exe.Exe.entry + 4;
  m.Machine.hcall_handler <-
    Some (fun m code -> if code = 0 then Machine.halt m);
  (m, exe)

let run ?(max_insns = 1_000_000) m =
  match Machine.run m ~max_insns with
  | Machine.Halt -> ()
  | Machine.Limit -> Alcotest.fail "instruction limit reached"

let halt a = Asm.hcall a 0

(* ------------------------------------------------------------------ *)

let test_arith () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 21;
        li a Reg.t1 2;
        mul a Reg.t2 Reg.t0 Reg.t1;       (* 42 *)
        li a Reg.t3 (-7);
        div_ a Reg.t4 Reg.t2 Reg.t3;      (* -6 *)
        rem_ a Reg.t5 Reg.t2 Reg.t3;      (* 0 *)
        subu a Reg.t6 Reg.t2 Reg.t0;      (* 21 *)
        slt a Reg.s0 Reg.t3 Reg.zero;     (* 1: -7 < 0 signed *)
        sltu a Reg.s1 Reg.t3 Reg.zero;    (* 0: 0xfffffff9 > 0 unsigned *)
        halt a)
  in
  run m;
  check_int "mul" 42 m.Machine.regs.(Reg.t2);
  check_int "div" ((-6) land 0xFFFFFFFF) m.Machine.regs.(Reg.t4);
  check_int "rem" 0 m.Machine.regs.(Reg.t5);
  check_int "subu" 21 m.Machine.regs.(Reg.t6);
  check_int "slt signed" 1 m.Machine.regs.(Reg.s0);
  check_int "sltu unsigned" 0 m.Machine.regs.(Reg.s1)

let test_shifts () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (-8);
        sra a Reg.t1 Reg.t0 1;            (* -4 *)
        srl a Reg.t2 Reg.t0 28;           (* 0xF *)
        sll a Reg.t3 Reg.t0 1;            (* -16 *)
        halt a)
  in
  run m;
  check_int "sra" ((-4) land 0xFFFFFFFF) m.Machine.regs.(Reg.t1);
  check_int "srl" 0xF m.Machine.regs.(Reg.t2);
  check_int "sll" ((-16) land 0xFFFFFFFF) m.Machine.regs.(Reg.t3)

let test_loads_stores () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "buf";
        li a Reg.t1 0x12345678;
        sw a Reg.t1 0 Reg.t0;
        lw a Reg.t2 0 Reg.t0;
        lbu a Reg.t3 0 Reg.t0;            (* little-endian: 0x78 *)
        lb a Reg.t4 1 Reg.t0;             (* 0x56 *)
        lhu a Reg.t5 2 Reg.t0;            (* 0x1234 *)
        li a Reg.t6 0xFF80;
        sh a Reg.t6 4 Reg.t0;
        lh a Reg.t7 4 Reg.t0;             (* sign-extended: -128 *)
        halt a;
        dlabel a "buf";
        space a 16)
  in
  run m;
  check_int "lw" 0x12345678 m.Machine.regs.(Reg.t2);
  check_int "lbu" 0x78 m.Machine.regs.(Reg.t3);
  check_int "lb" 0x56 m.Machine.regs.(Reg.t4);
  check_int "lhu" 0x1234 m.Machine.regs.(Reg.t5);
  check_int "lh sign" ((-128) land 0xFFFFFFFF) m.Machine.regs.(Reg.t7)

let test_branch_delay_slot () =
  (* The delay slot executes even for taken branches. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0;
        li a Reg.t1 5;
        label a "loop";
        Asm.i a (Insn.Bne (Reg.t1, Reg.zero, Sym "loop"));
        (* delay slot: executes 5 times *)
        Asm.i a (Insn.Alui (ADDIU, Reg.t0, Reg.t0, Imm 1));
        halt a)
  in
  (* Wait: the delay slot must also decrement t1, else infinite loop. Redo
     with a proper loop below. *)
  ignore m;
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0;
        li a Reg.t1 5;
        label a "loop";
        addiu a Reg.t1 Reg.t1 (-1);
        Asm.i a (Insn.Bne (Reg.t1, Reg.zero, Sym "loop"));
        Asm.i a (Insn.Alui (ADDIU, Reg.t0, Reg.t0, Imm 1)) (* delay slot *);
        halt a)
  in
  run m;
  (* Delay slot runs on every iteration including the fall-through one. *)
  check_int "delay slot executed each iteration" 5 m.Machine.regs.(Reg.t0);
  check_int "loop counter" 0 m.Machine.regs.(Reg.t1)

let test_jal_ra () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        jal a "callee";
        move a Reg.s0 Reg.v0;
        halt a;
        leaf a "callee" (fun () -> li a Reg.v0 99))
  in
  run m;
  check_int "return value" 99 m.Machine.regs.(Reg.s0)

let test_syscall_exception () =
  (* A syscall from kernel mode enters the general vector with EPC set. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_epc;
  Asm.mfc0 vec Reg.k1 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, exe =
    setup (fun a ->
        let open Asm in
        nop a;
        syscall a;
        nop a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  let syscall_addr = exe.Exe.entry + 4 in
  check_int "epc" syscall_addr m.Machine.regs.(Reg.k0);
  check_int "cause code" (Machine.Exc.syscall lsl 2)
    (m.Machine.regs.(Reg.k1) land 0x7C);
  check_int "syscall counter" 1 m.Machine.c.Machine.syscalls

let test_delay_slot_exception () =
  (* An exception in a delay slot sets EPC to the branch and BD in cause. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_epc;
  Asm.mfc0 vec Reg.k1 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, exe =
    setup (fun a ->
        let open Asm in
        nop a;
        Asm.i a (Insn.J (Sym "away"));
        Asm.i a Insn.Syscall (* delay slot *);
        label a "away";
        nop a;
        halt a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  let branch_addr = exe.Exe.entry + 4 in
  check_int "epc points at branch" branch_addr m.Machine.regs.(Reg.k0);
  check "BD bit set" true (m.Machine.regs.(Reg.k1) land 0x80000000 <> 0)

let test_utlb_miss_vector () =
  (* A kuseg reference with no TLB entry vectors to 0x80000000. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_utlb";
  Asm.label vec "_vec_utlb";
  Asm.mfc0 vec Reg.k0 Insn.C0_badvaddr;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.utlb_vector ~data_base:0x8000_0C00
      ~entry:"_vec_utlb" [ Asm.to_obj vec ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0x0040_0404;
        lw a Reg.t1 0 Reg.t0;
        halt a)
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.utlb_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  check_int "badvaddr" 0x0040_0404 m.Machine.regs.(Reg.k0);
  check_int "utlb miss counted" 1 m.Machine.c.Machine.utlb_misses

let test_tlb_mapping () =
  (* Write a TLB entry mapping user page 0x400 (va 0x00400000) to a physical
     frame, then access it from kernel mode through kuseg. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* entryhi: vpn 0x400, asid 0 *)
        li a Reg.t0 (0x400 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        (* entrylo: pfn 0x200 (pa 0x200000), valid+dirty *)
        li a Reg.t1 ((0x200 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 (0 lsl 8);
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* Store through the mapping, read back through kseg0. *)
        li a Reg.t3 0x00400010;
        li a Reg.t4 0xBEEF;
        sw a Reg.t4 0 Reg.t3;
        li a Reg.t5 0x80200010;
        lw a Reg.s0 0 Reg.t5;
        halt a)
  in
  run m;
  check_int "mapped store visible at pa" 0xBEEF m.Machine.regs.(Reg.s0);
  check_int "no utlb misses" 0 m.Machine.c.Machine.utlb_misses

let test_tlbp () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0x123 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        li a Reg.t1 ((0x77 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 (5 lsl 8);
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* Probe for it. *)
        li a Reg.t3 (0x123 lsl 12);
        mtc0 a Reg.t3 Insn.C0_entryhi;
        tlbp a;
        mfc0 a Reg.s0 Insn.C0_index;
        (* Probe for something absent. *)
        li a Reg.t4 (0x999 lsl 12);
        mtc0 a Reg.t4 Insn.C0_entryhi;
        tlbp a;
        mfc0 a Reg.s1 Insn.C0_index;
        halt a)
  in
  run m;
  check_int "probe hit index" (5 lsl 8) m.Machine.regs.(Reg.s0);
  check "probe miss flag" true (m.Machine.regs.(Reg.s1) land 0x80000000 <> 0)

let test_user_mode_protection () =
  (* In user mode, privileged instructions trap, and kseg access traps. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_cause;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  (* Map a user text page: we place user code at va 0x00400000 backed by
     pa 0x200000 and jump to it with user mode set via rfe. *)
  let user = Asm.create "user" in
  Asm.global user "_user";
  Asm.label user "_user";
  Asm.li user Reg.t0 0x80000000;
  Asm.lw user Reg.t1 0 Reg.t0;
  (* should trap AdEL before this: *)
  Asm.nop user;
  let uexe =
    Link.link ~name:"user" ~text_base:0x0040_0000 ~data_base:0x0041_0000
      ~entry:"_user" [ Asm.to_obj user ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* TLB entry for user text page *)
        li a Reg.t0 (0x400 lsl 12);
        mtc0 a Reg.t0 Insn.C0_entryhi;
        li a Reg.t1 ((0x200 lsl 12) lor 0x600);
        mtc0 a Reg.t1 Insn.C0_entrylo;
        li a Reg.t2 0;
        mtc0 a Reg.t2 Insn.C0_index;
        tlbwi a;
        (* status: KUp=1 (user after rfe), IEp=0; KUc=0 now *)
        li a Reg.t3 0x8;
        mtc0 a Reg.t3 Insn.C0_status;
        li a Reg.t4 0x0040_0000;
        mtc0 a Reg.t4 Insn.C0_epc;
        mfc0 a Reg.t5 Insn.C0_epc;
        Asm.i a (Insn.Jr Reg.t5);
        Asm.i a Insn.Rfe (* delay slot: classic return-to-user sequence *))
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  Machine.load_exe_phys m uexe ~text_pa:0x20_0000 ~data_pa:0x21_0000;
  run m;
  check_int "AdEL cause" (Machine.Exc.adel lsl 2)
    (m.Machine.regs.(Reg.k0) land 0x7C)

let test_console_device () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 (Char.code 'h');
        sw a Reg.t1 Addr.dev_console_tx Reg.t0;
        li a Reg.t1 (Char.code 'i');
        sw a Reg.t1 Addr.dev_console_tx Reg.t0;
        halt a)
  in
  run m;
  Alcotest.(check string) "console" "hi" (Machine.console_contents m)

let test_clock_interrupt () =
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  (* Ack the clock and halt. *)
  Asm.li vec Reg.k0 (0xA0000000 + Addr.device_base_pa);
  Asm.sw vec Reg.zero Addr.dev_clock_ack Reg.k0;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, _ =
    setup (fun a ->
        let open Asm in
        (* Program the clock for 500 cycles. *)
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 500;
        sw a Reg.t1 Addr.dev_clock_interval Reg.t0;
        (* Enable interrupts: IEc=1, IM for the clock line. *)
        li a Reg.t2 (1 lor (1 lsl (Addr.irq_clock + 8)));
        mtc0 a Reg.t2 Insn.C0_status;
        label a "spin";
        j_ a "spin")
  in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  check_int "one tick" 1 m.Machine.c.Machine.clock_ticks;
  check_int "one interrupt" 1 m.Machine.c.Machine.interrupts

let test_disk_read () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        (* Read block 3 into pa 0x100000. *)
        li a Reg.t1 3;
        sw a Reg.t1 Addr.dev_disk_block Reg.t0;
        li a Reg.t1 0x100000;
        sw a Reg.t1 Addr.dev_disk_addr Reg.t0;
        li a Reg.t1 1;
        sw a Reg.t1 Addr.dev_disk_count Reg.t0;
        sw a Reg.t1 Addr.dev_disk_cmd Reg.t0;
        (* Busy-wait on the done block register. *)
        label a "wait";
        lw a Reg.t2 Addr.dev_disk_done_block Reg.t0;
        li a Reg.t3 3;
        bne a Reg.t2 Reg.t3 "wait";
        sw a Reg.zero Addr.dev_disk_ack Reg.t0;
        (* Load the first word of the block. *)
        li a Reg.t4 0x80100000;
        lw a Reg.s0 0 Reg.t4;
        halt a)
  in
  Disk.write_image m.Machine.disk ~block:3 ~off:0 "\xEF\xBE\xAD\xDE";
  run m;
  check_int "dma contents" 0xDEADBEEF m.Machine.regs.(Reg.s0);
  check "took disk latency" true (m.Machine.cycles > 20000)

let test_dcache_behavior () =
  (* First pass over an array misses; second pass hits. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.s0 "arr";
        List.iter
          (fun _pass ->
            move a Reg.t0 Reg.s0;
            li a Reg.t1 64;
            let l = fresh_label a "lp" in
            label a l;
            lw a Reg.t2 0 Reg.t0;
            addiu a Reg.t0 Reg.t0 4;
            addiu a Reg.t1 Reg.t1 (-1);
            bnez a Reg.t1 l)
          [ 1; 2 ];
        halt a;
        dlabel a "arr";
        space a 256)
  in
  let misses_before = Machine.dcache_misses m in
  run m;
  let misses = Machine.dcache_misses m - misses_before in
  (* 256 bytes / 4-byte lines = 64 misses on the first pass only. *)
  check_int "compulsory misses" 64 misses

let test_write_buffer_stalls () =
  (* A burst of back-to-back stores overwhelms the 4-entry buffer. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "arr";
        for k = 0 to 19 do
          sw a Reg.zero (k * 4) Reg.t0
        done;
        halt a;
        dlabel a "arr";
        space a 128)
  in
  run m;
  check "wb stalls happened" true (Machine.wb_stalls m > 0)

let test_fpu_arithmetic () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "vals";
        ld a 0 0 Reg.t0;                      (* 1.5 *)
        ld a 1 8 Reg.t0;                      (* 2.5 *)
        fadd a 2 0 1;                         (* 4.0 *)
        fmul a 3 2 2;                         (* 16.0 *)
        i a (Insn.Fop (FDIV, 4, 3, 1));       (* 6.4 *)
        sd a 4 16 Reg.t0;
        (* Integer conversion round-trip *)
        li a Reg.t1 7;
        mtc1 a Reg.t1 5;
        cvtdw a 5 5;
        fadd a 5 5 0;                         (* 8.5 *)
        truncwd a 5 5;
        mfc1 a Reg.s0 5;                      (* 8 *)
        halt a;
        dlabel a "vals";
        double a 1.5;
        double a 2.5;
        double a 0.0)
  in
  run m;
  check_int "trunc result" 8 m.Machine.regs.(Reg.s0);
  let bits =
    Int64.logor
      (Int64.of_int (Machine.read_phys_u32 m (Addr.kseg0_pa data_va + 16)))
      (Int64.shift_left
         (Int64.of_int (Machine.read_phys_u32 m (Addr.kseg0_pa data_va + 20)))
         32)
  in
  Alcotest.(check (float 1e-9)) "fp result" 6.4 (Int64.float_of_bits bits);
  check "fp ops counted" true (m.Machine.fpu.Fpu.ops >= 5)

let test_fpu_stalls () =
  (* A dependent chain of divides must accumulate arithmetic stalls. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        la a Reg.t0 "vals";
        ld a 0 0 Reg.t0;
        ld a 1 8 Reg.t0;
        for _ = 1 to 8 do
          i a (Insn.Fop (FDIV, 0, 0, 1))
        done;
        halt a;
        dlabel a "vals";
        double a 1000.0;
        double a 1.1)
  in
  run m;
  check "arith stalls accumulate" true (Machine.arith_stalls m > 50)

let test_cycle_counter_device () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        lw a Reg.s0 Addr.dev_cycle_lo Reg.t0;
        lw a Reg.s1 Addr.dev_cycle_lo Reg.t0;
        halt a)
  in
  run m;
  check "cycle counter advances" true
    (m.Machine.regs.(Reg.s1) > m.Machine.regs.(Reg.s0))

let test_idle_range_counting () =
  let m, exe =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 10;
        label a "idle_loop";
        addiu a Reg.t0 Reg.t0 (-1);
        bnez a Reg.t0 "idle_loop";
        label a "idle_end";
        halt a)
  in
  m.Machine.idle_lo <- Exe.symbol exe "test::idle_loop";
  m.Machine.idle_hi <- Exe.symbol exe "test::idle_end";
  run m;
  (* 10 iterations x 3 instructions (addiu, bnez, nop-delay). *)
  check_int "idle instructions" 30 m.Machine.c.Machine.idle_instructions

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "loads and stores" `Quick test_loads_stores;
    Alcotest.test_case "branch delay slot" `Quick test_branch_delay_slot;
    Alcotest.test_case "jal/ra" `Quick test_jal_ra;
    Alcotest.test_case "syscall exception" `Quick test_syscall_exception;
    Alcotest.test_case "exception in delay slot" `Quick test_delay_slot_exception;
    Alcotest.test_case "utlb miss vector" `Quick test_utlb_miss_vector;
    Alcotest.test_case "tlb mapping" `Quick test_tlb_mapping;
    Alcotest.test_case "tlbp probe" `Quick test_tlbp;
    Alcotest.test_case "user mode protection" `Quick test_user_mode_protection;
    Alcotest.test_case "console device" `Quick test_console_device;
    Alcotest.test_case "clock interrupt" `Quick test_clock_interrupt;
    Alcotest.test_case "disk read + dma" `Quick test_disk_read;
    Alcotest.test_case "dcache hit/miss" `Quick test_dcache_behavior;
    Alcotest.test_case "write buffer stalls" `Quick test_write_buffer_stalls;
    Alcotest.test_case "fpu arithmetic" `Quick test_fpu_arithmetic;
    Alcotest.test_case "fpu stalls" `Quick test_fpu_stalls;
    Alcotest.test_case "cycle counter device" `Quick test_cycle_counter_device;
    Alcotest.test_case "idle range counting" `Quick test_idle_range_counting;
  ]

(* ------------------------------------------------------------------ *)
(* Additional machine semantics                                        *)

let run_expect_vec body =
  (* Run [body] with a general-vector stub that records cause/badvaddr
     into k0/k1 and halts. *)
  let vec = Asm.create "vec" in
  Asm.global vec "_vec_general";
  Asm.label vec "_vec_general";
  Asm.mfc0 vec Reg.k0 Insn.C0_cause;
  Asm.mfc0 vec Reg.k1 Insn.C0_badvaddr;
  Asm.hcall vec 0;
  let vexe =
    Link.link ~name:"vec" ~text_base:Addr.general_vector
      ~data_base:0x8000_0C00 ~entry:"_vec_general" [ Asm.to_obj vec ]
  in
  let m, _ = setup body in
  Machine.load_exe_phys m vexe
    ~text_pa:(Addr.kseg0_pa Addr.general_vector)
    ~data_pa:(Addr.kseg0_pa 0x8000_0C00);
  run m;
  ((m.Machine.regs.(Reg.k0) lsr 2) land 0x1F, m.Machine.regs.(Reg.k1))

let test_alignment_traps () =
  let code, badva =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002002;
        lw a Reg.t1 0 Reg.t0)
  in
  check_int "AdEL" Machine.Exc.adel code;
  check_int "badva" 0x80002002 badva;
  let code, _ =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002001;
        sh a Reg.t1 0 Reg.t0)
  in
  check_int "AdES" Machine.Exc.ades code;
  let code, _ =
    run_expect_vec (fun a ->
        let open Asm in
        li a Reg.t0 0x80002004;  (* 4-aligned but not 8 *)
        ld a 0 0 Reg.t0)
  in
  check_int "l.d AdEL" Machine.Exc.adel code

let test_interrupt_masking () =
  (* With IM clear, a pending clock line must NOT interrupt. *)
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
        li a Reg.t1 200;
        sw a Reg.t1 Addr.dev_clock_interval Reg.t0;
        (* IEc on, but IM = 0 *)
        li a Reg.t2 1;
        mtc0 a Reg.t2 Insn.C0_status;
        li a Reg.t3 3000;
        label a "spin";
        addiu a Reg.t3 Reg.t3 (-1);
        bgtz a Reg.t3 "spin";
        hcall a 0)
  in
  run m;
  check "ticks pending but uninterrupted" true
    (m.Machine.c.Machine.clock_ticks > 0
    && m.Machine.c.Machine.interrupts = 0)

let test_store_invalidates_decode () =
  (* Self-modifying code: a store over an instruction must invalidate the
     decoded-instruction cache (the machine-level mechanism the kernel's
     cache-flush discipline relies on). *)
  let m, exe =
    setup (fun a ->
        let open Asm in
        (* patch target: turns "li v0, 1" into "li v0, 42" *)
        la a Reg.t0 "$patch";
        li a Reg.t1 0x24020063;  (* addiu v0, zero, 99 *)
        (* run the instruction once, patch it, run again *)
        jal a "$target";
        move a Reg.s0 Reg.v0;
        sw a Reg.t1 0 Reg.t0;
        jal a "$target";
        move a Reg.s1 Reg.v0;
        hcall a 0;
        label a "$target";
        label a "$patch";
        li a Reg.v0 1;
        ret a)
  in
  ignore exe;
  run m;
  check_int "before patch" 1 m.Machine.regs.(Reg.s0);
  check_int "after patch" 99 m.Machine.regs.(Reg.s1)

let test_random_register_range () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        mfc0 a Reg.s0 Insn.C0_random;
        nop a; nop a; nop a;
        mfc0 a Reg.s1 Insn.C0_random;
        hcall a 0)
  in
  run m;
  let idx r = (r lsr 8) land 0x3F in
  check "in range" true
    (idx m.Machine.regs.(Reg.s0) >= 8 && idx m.Machine.regs.(Reg.s0) < 64);
  check "advances" true (m.Machine.regs.(Reg.s0) <> m.Machine.regs.(Reg.s1))

let test_context_register () =
  let m, _ =
    setup (fun a ->
        let open Asm in
        li a Reg.t0 0xC0200000;
        mtc0 a Reg.t0 Insn.C0_context;
        (* touch an unmapped user address to set BadVPN; the utlb stub at
           the vector returns through k1 after a tlbwr of garbage, so give
           it a vector that just records context. *)
        mfc0 a Reg.s0 Insn.C0_context;
        hcall a 0)
  in
  run m;
  (* with no fault yet, BadVPN is whatever was there (0): base preserved *)
  check_int "PTEbase preserved" 0xC0200000
    (m.Machine.regs.(Reg.s0) land 0xFFE00000)

(* ------------------------------------------------------------------ *)
(* Translation micro-cache vs the full TLB walk                        *)

(* Random CP0 traffic for the property below.  Every mutation runs as real
   instructions (mtc0/tlbwi/tlbwr/rfe), so the micro-cache sees exactly the
   invalidation points the interpreter gives it — a direct [Tlb.write]
   would bypass them and prove nothing. *)
type tc_op =
  | Access of { va : int; write : bool; fetch : bool }
  | Sweep of { write : bool; fetch : bool; seg : int }
  | Op_tlbwi of { hi : int; lo : int; index : int }
  | Op_tlbwr of { hi : int; lo : int }
  | Op_status of int
  | Op_user of int
  | Op_entryhi of int
  | Op_context of int
  | Op_rfe

let tc_machine () =
  (* One snippet per mutation kind; parameters arrive in t0..t2. *)
  let a = Asm.create "tcprop" in
  let snippet name build =
    Asm.global a name;
    Asm.label a name;
    build ();
    Asm.hcall a 0
  in
  Asm.global a "_start";
  Asm.label a "_start";
  Asm.hcall a 0;
  snippet "op_tlbwi" (fun () ->
      Asm.mtc0 a Reg.t0 Insn.C0_entryhi;
      Asm.mtc0 a Reg.t1 Insn.C0_entrylo;
      Asm.mtc0 a Reg.t2 Insn.C0_index;
      Asm.tlbwi a);
  snippet "op_tlbwr" (fun () ->
      Asm.mtc0 a Reg.t0 Insn.C0_entryhi;
      Asm.mtc0 a Reg.t1 Insn.C0_entrylo;
      Asm.tlbwr a);
  snippet "op_status" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_status);
  snippet "op_entryhi" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_entryhi);
  snippet "op_context" (fun () -> Asm.mtc0 a Reg.t0 Insn.C0_context);
  snippet "op_rfe" (fun () -> Asm.rfe a);
  let exe =
    Link.link ~name:"tcprop" ~text_base:text_va ~data_base:data_va
      ~entry:"_start" [ Asm.to_obj a ]
  in
  let m = Machine.create () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  (* In user mode, fetching a snippet from kseg0 takes an address error:
     the general vector halts, back in kernel mode. *)
  Machine.write_phys_u32 m
    (Addr.kseg0_pa Addr.general_vector)
    (Encode.encode ~pc:Addr.general_vector (Insn.Hcall 0));
  m.Machine.hcall_handler <- Some (fun m code -> if code = 0 then Machine.halt m);
  (m, exe)

let tc_enter m exe name ~max_insns =
  m.Machine.pc <- Exe.symbol exe name;
  m.Machine.npc <- m.Machine.pc + 4;
  m.Machine.next_is_delay <- false;
  m.Machine.halted <- false;
  Machine.run m ~max_insns

(* Run a snippet in kernel mode.  From user mode, the first attempt
   traps to kernel mode through exception entry, which is itself one of
   the flushes under test. *)
let tc_run_snippet m exe name =
  if m.Machine.status land 0x2 <> 0 then ignore (tc_enter m exe name ~max_insns:20);
  match tc_enter m exe name ~max_insns:20 with
  | Machine.Halt -> ()
  | Machine.Limit -> Alcotest.fail (name ^ ": snippet did not halt")

(* Random status values have their KU stack masked off, so a write
   changes only the IE and IM bits of the mode the machine is in;
   [Op_user] then sets KUc, and the machine stays in user mode (its
   accesses checked there) until the next snippet traps back. *)
let tc_status_mask = lnot 0x2A

(* Mapped pages: a few small vpns plus the two a traced user reference
   alternates between, text vpn 0x400 and the bookkeeping page's vpn
   0x7e000 (one second-level slot under a plain [vpn land 63]). *)
let tc_vpn = QCheck.Gen.(oneof [ int_range 0 7; oneofl [ 0x400; 0x7e000 ] ])

(* A sweep touches more pages than the second-level cache has slots in
   one access class, plus the two vpns above, so lookups meet evicted,
   refilled and conflicting slots. *)
let tc_sweep_pages = Machine.l2_slots + 16

let tc_gen_op =
  let open QCheck.Gen in
  let va =
    oneof
      [
        map2
          (fun seg vpn -> seg lor (vpn lsl 12) lor 0x100)
          (oneofl [ 0x0000_0000; 0xC000_0000 ])
          tc_vpn;
        map2
          (fun seg vpn -> seg lor (vpn lsl 12) lor 0x100)
          (oneofl [ 0x8000_0000; 0xA000_0000 ])
          (int_range 0 (2 * tc_sweep_pages));
      ]
  in
  let entry_hi =
    map2 (fun vpn asid -> Tlb.make_entryhi ~vpn ~asid) tc_vpn (int_range 0 3)
  in
  let entry_lo =
    map2
      (fun pfn (valid, dirty, global, nc) ->
        Tlb.make_entrylo ~noncacheable:nc ~dirty ~valid ~global ~pfn ())
      (int_range 0 15)
      (quad bool bool bool bool)
  in
  frequency
    [
      (6, map3 (fun va write fetch ->
               Access { va; write; fetch = fetch && not write })
            va bool bool);
      (1, map3 (fun write fetch seg ->
               Sweep { write; fetch = fetch && not write; seg })
            bool bool (oneofl [ 0x8000_0000; 0xA000_0000 ]));
      (2, map3 (fun hi lo index -> Op_tlbwi { hi; lo; index = index lsl 8 })
            entry_hi entry_lo (int_range 0 63));
      (1, map2 (fun hi lo -> Op_tlbwr { hi; lo }) entry_hi entry_lo);
      (1, map (fun s -> Op_status (s land tc_status_mask)) (int_bound 0xFFFF));
      (1, map (fun s -> Op_user (s land tc_status_mask lor 0x2)) (int_bound 0xFFFF));
      (1, map (fun hi -> Op_entryhi hi) entry_hi);
      (1, map (fun c -> Op_context (c lsl 21)) (int_bound 0x3F));
      (1, return Op_rfe);
    ]

let tc_arb_ops =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 60) tc_gen_op)

let prop_tcache_matches_walk =
  QCheck.Test.make ~count:100
    ~name:"translate micro-cache == full TLB walk on every result"
    tc_arb_ops
    (fun ops ->
      let m, exe = tc_machine () in
      let result f =
        match f () with
        | r -> Ok r
        | exception Machine.Trap { code; badva; refill } ->
          Error (code, badva, refill)
      in
      let access va write fetch =
        (* Oracle first: the walk never reads the translation cache, so
           the order only affects counters, which we don't compare. *)
        let oracle =
          result (fun () -> Machine.translate_walk m va ~write ~fetch)
        in
        let fast = result (fun () -> Machine.translate m va ~write ~fetch) in
        fast = oracle
      in
      List.for_all
        (fun op ->
          match op with
          | Access { va; write; fetch } -> access va write fetch
          | Sweep { write; fetch; seg } ->
            List.for_all
              (fun va -> access va write fetch)
              (0x0040_0100 :: 0x7E00_0100
              :: List.init tc_sweep_pages (fun p -> seg lor (p lsl 12) lor 0x100))
          | Op_tlbwi { hi; lo; index } ->
            m.Machine.regs.(Reg.t0) <- hi;
            m.Machine.regs.(Reg.t1) <- lo;
            m.Machine.regs.(Reg.t2) <- index;
            tc_run_snippet m exe "op_tlbwi";
            true
          | Op_tlbwr { hi; lo } ->
            m.Machine.regs.(Reg.t0) <- hi;
            m.Machine.regs.(Reg.t1) <- lo;
            tc_run_snippet m exe "op_tlbwr";
            true
          | Op_status s ->
            m.Machine.regs.(Reg.t0) <- s;
            tc_run_snippet m exe "op_status";
            true
          | Op_user s ->
            (* back to kernel mode if need be, then the mtc0 alone: the
               next fetch would trap *)
            if m.Machine.status land 0x2 <> 0 then
              ignore (tc_enter m exe "op_status" ~max_insns:20);
            m.Machine.regs.(Reg.t0) <- s;
            tc_enter m exe "op_status" ~max_insns:1 = Machine.Limit
            && m.Machine.status land 0x2 <> 0
          | Op_entryhi hi ->
            m.Machine.regs.(Reg.t0) <- hi;
            tc_run_snippet m exe "op_entryhi";
            true
          | Op_context c ->
            m.Machine.regs.(Reg.t0) <- c;
            tc_run_snippet m exe "op_context";
            true
          | Op_rfe ->
            tc_run_snippet m exe "op_rfe";
            true)
        ops)

(* ------------------------------------------------------------------ *)
(* Block-cache oracle: replay must be indistinguishable from [step]    *)

(* Complete architectural state plus every ground-truth counter.  Any
   divergence here means the block cache leaked into the simulation.  FP
   registers are compared by their bits, so a NaN equals itself. *)
let bb_fingerprint (m : Machine.t) =
  let c = m.Machine.c in
  ( ( Array.to_list m.Machine.regs,
      (m.Machine.pc, m.Machine.npc, m.Machine.next_is_delay),
      (m.Machine.status, m.Machine.cause, m.Machine.epc, m.Machine.badvaddr),
      m.Machine.cycles ),
    ( (c.Machine.instructions, c.Machine.user_instructions,
       c.Machine.kernel_instructions, c.Machine.idle_instructions),
      (c.Machine.utlb_misses, c.Machine.ktlb_misses, c.Machine.exceptions,
       c.Machine.interrupts, c.Machine.clock_ticks),
      (Machine.icache_misses m, Machine.dcache_misses m, Machine.wb_stalls m) ),
    ( Array.to_list (Array.map Int64.bits_of_float m.Machine.fregs),
      m.Machine.fcc,
      Machine.arith_stalls m,
      m.Machine.fpu.Fpu.ops ),
    Machine.console_contents m )

(* The general/utlb vectors get a host-assembled stub: interrupts ack the
   clock and resume at epc; any other trap skips the faulting
   instruction (epc + 4).  Written straight into physical memory so the
   generated programs stay simple. *)
let bb_install_vectors m =
  let open Insn in
  let stub base =
    [
      Mfc0 (Reg.k0, C0_cause);
      Alui (ANDI, Reg.k0, Reg.k0, Imm 0x3c);
      Bne (Reg.k0, Reg.zero, Abs (base + (9 * 4)));
      nop;
      Lui (Reg.k1, Imm 0xA100);
      Store (W, Reg.zero, Reg.k1, Imm 0x08) (* dev_clock_ack *);
      Mfc0 (Reg.k1, C0_epc);
      Jr Reg.k1;
      Rfe;
      Mfc0 (Reg.k1, C0_epc);
      Alui (ADDIU, Reg.k1, Reg.k1, Imm 4);
      Jr Reg.k1;
      Rfe;
    ]
  in
  let write base insns =
    List.iteri
      (fun i insn ->
        Machine.write_phys_u32 m
          (Addr.kseg0_pa base + (4 * i))
          (Encode.encode ~pc:(base + (4 * i)) insn))
      insns
  in
  write Addr.general_vector (stub Addr.general_vector);
  write Addr.utlb_vector (stub Addr.utlb_vector)

(* Run the same program under the step-at-a-time oracle and the block
   cache tier (translation and block caches) with identical budgets;
   [prepare] pokes extra host-side state (mapped routines, clock) into
   every machine identically. *)
let bb_run_both ?(prepare = fun (_ : Machine.t) -> ()) ?(max_insns = 400_000)
    build =
  let run_tier tier =
    let cfg = { Machine.default_config with Machine.tier } in
    let m, _ = setup ~cfg build in
    bb_install_vectors m;
    prepare m;
    (match Machine.run m ~max_insns with
    | Machine.Halt -> ()
    | Machine.Limit ->
      QCheck.Test.fail_report "generated program hit the instruction limit");
    m
  in
  let ms = run_tier Uop.Step in
  let mb = run_tier Uop.Bcache in
  if not (Bytes.equal ms.Machine.mem mb.Machine.mem) then
    QCheck.Test.fail_report "bcache tier diverges from step mode in memory";
  if bb_fingerprint mb <> bb_fingerprint ms then
    QCheck.Test.fail_report
      "bcache tier diverges from step mode in registers/counters";
  true

(* Generated program fragments.  [Patch] stores a freshly encoded
   instruction over a callable slot's first word (through kseg0, like
   the stores self-modifying code does); [Call_slot] jumps into it, so a
   stale decoded block would be caught immediately.  [Delay_fault] puts
   an unaligned load in a jump's delay slot: the fault must recover the
   branch pc and the in-delay flag from mid-block state.

   The FP fragments work on the doubles at [fpd]: [Fp_chain] loads two,
   then runs a dependent div.d -> add.d -> s.d chain, so each op waits
   on the scoreboard for its predecessor (add.d through its [ft]);
   [Fp_cmp] branches on c.lt.d over a skip; [Fp_move] round-trips an
   integer through mtc1/mul.d/mfc1; [Fp_unaligned] is an l.d that takes
   AdEL mid-block. *)
type bb_op =
  | Arith of int
  | Mem_rw of int
  | Skip_fwd
  | Loop of int * int
  | Patch of int * int
  | Call_slot of int
  | Unaligned
  | Delay_fault
  | Fp_chain of int
  | Fp_cmp of bool
  | Fp_move of int
  | Fp_unaligned

let bb_nslots = 3

let bb_emit_op a fresh op =
  let open Asm in
  match op with
  | Arith k ->
    addiu a Reg.s0 Reg.s0 k;
    xor_ a Reg.s1 Reg.s1 Reg.s0
  | Mem_rw k ->
    li a Reg.t4 (data_va + (4 * k));
    sw a Reg.s0 0 Reg.t4;
    lw a Reg.t5 0 Reg.t4;
    addu a Reg.s1 Reg.s1 Reg.t5
  | Skip_fwd ->
    let l = fresh "skip" in
    beq a Reg.zero Reg.zero l;
    addiu a Reg.s0 Reg.s0 1;
    addiu a Reg.s0 Reg.s0 2;
    label a l
  | Loop (n, k) ->
    let l = fresh "loop" in
    li a Reg.t3 n;
    label a l;
    addiu a Reg.s0 Reg.s0 k;
    addiu a Reg.t3 Reg.t3 (-1);
    bnez a Reg.t3 l
  | Patch (slot, k) ->
    li a Reg.t0
      (Encode.encode ~pc:0 (Insn.Alui (Insn.ADDIU, Reg.s7, Reg.s7, Insn.Imm k)));
    la a Reg.t1 (Printf.sprintf "slot%d" (slot mod bb_nslots));
    sw a Reg.t0 0 Reg.t1
  | Call_slot slot ->
    la a Reg.t2 (Printf.sprintf "slot%d" (slot mod bb_nslots));
    jalr a Reg.t2
  | Unaligned ->
    li a Reg.t8 (data_va + 0x101);
    lw a Reg.t9 0 Reg.t8
  | Delay_fault ->
    let l = fresh "df" in
    li a Reg.t8 (data_va + 0x203);
    i a (Insn.J (Insn.Sym l));
    i a (Insn.Load (Insn.W, Reg.t9, Reg.t8, Insn.Imm 0));
    label a l
  | Fp_chain k ->
    la a Reg.t7 "fpd";
    ld a 0 0 Reg.t7;
    ld a 2 8 Reg.t7;
    fdiv a 4 0 2;
    fadd a 6 0 4;
    sd a 6 (16 + (8 * (k land 3))) Reg.t7
  | Fp_cmp lt ->
    let l = fresh "fskip" in
    la a Reg.t7 "fpd";
    ld a 8 0 Reg.t7;
    ld a 10 8 Reg.t7;
    if lt then fcmp a Insn.FLT 8 10 else fcmp a Insn.FLT 10 8;
    bc1t a l;
    addiu a Reg.s0 Reg.s0 5;
    label a l
  | Fp_move k ->
    li a Reg.t6 k;
    mtc1 a Reg.t6 12;
    fmul a 12 12 12;
    mfc1 a Reg.t6 12;
    addu a Reg.s1 Reg.s1 Reg.t6
  | Fp_unaligned ->
    la a Reg.t7 "fpd";
    ld a 14 4 Reg.t7

(* The program's data: room for the fixed addresses [Mem_rw],
   [Unaligned] and [Delay_fault] use, then the doubles [fpd] the FP
   fragments read and write. *)
let bb_emit_data a =
  let open Asm in
  space a 0x400;
  align a 8;
  dlabel a "fpd";
  List.iter (double a) [ 1.5; 2.5; 0.0; 0.0; 0.0; 0.0 ]

let bb_build_program ops a =
  let open Asm in
  let fresh = fresh_label a in
  List.iter (bb_emit_op a fresh) ops;
  halt a;
  for s = 0 to bb_nslots - 1 do
    label a (Printf.sprintf "slot%d" s);
    addiu a Reg.s7 Reg.s7 1;
    jr_ a Reg.ra
  done;
  bb_emit_data a

let bb_gen_op =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun k -> Arith k) (int_range 1 100));
      (3, map (fun k -> Mem_rw k) (int_range 0 63));
      (2, return Skip_fwd);
      (2, map2 (fun n k -> Loop (n, k)) (int_range 2 6) (int_range 1 9));
      (3, map2 (fun s k -> Patch (s, k)) (int_range 0 2) (int_range 1 200));
      (3, map (fun s -> Call_slot s) (int_range 0 2));
      (1, return Unaligned);
      (1, return Delay_fault);
      (3, map (fun k -> Fp_chain k) (int_range 0 3));
      (2, map (fun b -> Fp_cmp b) bool);
      (2, map (fun k -> Fp_move k) (int_range (-50) 50));
      (1, return Fp_unaligned);
    ]

let bb_arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Arith k -> Printf.sprintf "arith%d" k
             | Mem_rw k -> Printf.sprintf "mem%d" k
             | Skip_fwd -> "skip"
             | Loop (n, k) -> Printf.sprintf "loop%dx%d" n k
             | Patch (s, k) -> Printf.sprintf "patch%d<-%d" s k
             | Call_slot s -> Printf.sprintf "call%d" s
             | Unaligned -> "unaligned"
             | Delay_fault -> "delayfault"
             | Fp_chain k -> Printf.sprintf "fchain%d" k
             | Fp_cmp b -> Printf.sprintf "fcmp%B" b
             | Fp_move k -> Printf.sprintf "fmove%d" k
             | Fp_unaligned -> "funaligned")
           ops))
    QCheck.Gen.(list_size (int_range 1 40) bb_gen_op)

let prop_bcache_matches_step =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: self-modifying text, faults, branches"
    bb_arb_ops
    (fun ops -> bb_run_both (bb_build_program ops))

(* TLB remaps under the block cache: one kuseg page flips between two
   physical frames holding different routines; jumping through the
   mapping must always execute the routine the TLB currently names, and
   stores through kseg0 to either frame must invalidate blocks decoded
   through the kuseg mapping (block keys are physical). *)

let bb_map_va = 0x0000_6000
let bb_frame1 = 0x0040_0000
let bb_frame2 = 0x0040_1000

type bb_map_op =
  | Map_remap of bool
  | Map_call
  | Map_poke of bool * int
  | Map_arith of int

let bb_map_routine k = [ Insn.Alui (Insn.ADDIU, Reg.s6, Reg.s6, Insn.Imm k); Insn.Jr Reg.ra; Insn.nop ]

let bb_map_prepare m =
  List.iteri
    (fun i insn ->
      Machine.write_phys_u32 m (bb_frame1 + (4 * i))
        (Encode.encode ~pc:(bb_map_va + (4 * i)) insn))
    (bb_map_routine 1);
  List.iteri
    (fun i insn ->
      Machine.write_phys_u32 m (bb_frame2 + (4 * i))
        (Encode.encode ~pc:(bb_map_va + (4 * i)) insn))
    (bb_map_routine 64)

let bb_map_emit a op =
  let open Asm in
  match op with
  | Map_remap second ->
    let frame = if second then bb_frame2 else bb_frame1 in
    li a Reg.t0 (Tlb.make_entryhi ~vpn:(bb_map_va lsr Addr.page_shift) ~asid:0);
    mtc0 a Reg.t0 Insn.C0_entryhi;
    li a Reg.t1
      (Tlb.make_entrylo ~dirty:true ~valid:true ~global:true
         ~pfn:(frame lsr Addr.page_shift) ());
    mtc0 a Reg.t1 Insn.C0_entrylo;
    li a Reg.t2 (8 lsl 8);
    mtc0 a Reg.t2 Insn.C0_index;
    tlbwi a
  | Map_call ->
    li a Reg.t6 bb_map_va;
    jalr a Reg.t6
  | Map_poke (second, k) ->
    let frame = if second then bb_frame2 else bb_frame1 in
    li a Reg.t0
      (Encode.encode ~pc:bb_map_va
         (Insn.Alui (Insn.ADDIU, Reg.s6, Reg.s6, Insn.Imm k)));
    li a Reg.t1 (Addr.kseg0_base lor frame);
    sw a Reg.t0 0 Reg.t1
  | Map_arith k -> addiu a Reg.s0 Reg.s0 k

let bb_map_build ops a =
  List.iter (bb_map_emit a) (Map_remap false :: ops);
  halt a

let bb_map_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Map_remap b -> Printf.sprintf "remap%B" b
             | Map_call -> "call"
             | Map_poke (b, k) -> Printf.sprintf "poke%B<-%d" b k
             | Map_arith k -> Printf.sprintf "arith%d" k)
           ops))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [
             (3, map (fun b -> Map_remap b) bool);
             (4, return Map_call);
             (2, map2 (fun b k -> Map_poke (b, k)) bool (int_range 1 200));
             (2, map (fun k -> Map_arith k) (int_range 1 100));
           ]))

let prop_bcache_tlb_remap =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: TLB remaps over cached blocks"
    bb_map_arb
    (fun ops -> bb_run_both ~prepare:bb_map_prepare (bb_map_build ops))

(* Clock interrupts at random intervals sweep the interrupt-arrival
   point across every block-boundary alignment — including an irq
   raised at the branch→delay-slot boundary, whose delivery [step]
   defers by exactly one instruction (the regression that motivated
   this property: block chaining must not defer it further). *)

type bb_clk_op = Clk_arith of int | Clk_skip | Clk_loop of int * int | Clk_mem of int

let bb_clk_build ops a =
  let open Asm in
  let fresh = fresh_label a in
  li a Reg.t0 (0x401 lor (1 lsl (Addr.irq_clock + 8)));
  mtc0 a Reg.t0 Insn.C0_status;
  List.iter
    (fun op ->
      bb_emit_op a fresh
        (match op with
        | Clk_arith k -> Arith k
        | Clk_skip -> Skip_fwd
        | Clk_loop (n, k) -> Loop (n, k)
        | Clk_mem k -> Mem_rw k))
    ops;
  halt a;
  for s = 0 to bb_nslots - 1 do
    label a (Printf.sprintf "slot%d" s);
    addiu a Reg.s7 Reg.s7 1;
    jr_ a Reg.ra
  done

let bb_clk_arb =
  QCheck.make
    ~print:(fun (iv, ops) -> Printf.sprintf "interval=%d <%d ops>" iv (List.length ops))
    QCheck.Gen.(
      (* Floor the interval above the handler's steady-state cost (~30
         cycles: nine instructions plus the uncached ack store) — below
         that the clock refires mid-handler forever and the *guest*
         livelocks, on real hardware just as much as here. *)
      pair (int_range 100 300)
        (list_size (int_range 5 40)
           (frequency
              [
                (4, map (fun k -> Clk_arith k) (int_range 1 100));
                (3, return Clk_skip);
                (4, map2 (fun n k -> Clk_loop (n, k)) (int_range 2 8) (int_range 1 9));
                (2, map (fun k -> Clk_mem k) (int_range 0 63));
              ])))

let prop_bcache_clock_interrupts =
  QCheck.Test.make ~count:60
    ~name:"block replay == step: clock interrupts at random intervals"
    bb_clk_arb
    (fun (interval, ops) ->
      bb_run_both
        ~prepare:(fun m ->
          m.Machine.clock_interval <- interval;
          m.Machine.next_clock <- interval)
        (bb_clk_build ops))

(* A TLB miss on the load of the *last* load-modify-store triple of a
   block: the block has already retired the uops of its earlier triples
   when the final triple's load faults, so the block cache's trap
   recovery rebuilds pc/epc and the counters from mid-block state.
   Registers, EPC, BadVAddr, memory and every counter must match
   step-at-a-time exactly. *)
let test_lmw_last_load_tlb_miss () =
  let build a =
    let open Asm in
    li a Reg.s0 30;
    la a Reg.t2 "buf";
    label a "loop";
    lw a Reg.t3 0 Reg.t2;
    addiu a Reg.t3 Reg.t3 1;
    sw a Reg.t3 0 Reg.t2;
    lw a Reg.t4 4 Reg.t2;
    addiu a Reg.t4 Reg.t4 1;
    sw a Reg.t4 4 Reg.t2;
    addiu a Reg.s0 Reg.s0 (-1);
    bnez a Reg.s0 "loop";
    (* fall out: one more valid triple, then one through an unmapped
       kuseg page — its load takes a utlb refill mid-block, the vector
       stub skips the faulting instruction (and then the store's) *)
    lw a Reg.t5 8 Reg.t2;
    addiu a Reg.t5 Reg.t5 1;
    sw a Reg.t5 8 Reg.t2;
    li a Reg.t2 0x4000;
    lw a Reg.t6 0 Reg.t2;
    addiu a Reg.t6 Reg.t6 1;
    sw a Reg.t6 0 Reg.t2;
    halt a;
    dlabel a "buf";
    word a 0;
    word a 0;
    word a 0
  in
  let run_tier tier =
    let cfg = { Machine.default_config with Machine.tier } in
    let m, _ = setup ~cfg build in
    bb_install_vectors m;
    (match Machine.run m ~max_insns:10_000 with
    | Machine.Halt -> ()
    | Machine.Limit -> Alcotest.fail "instruction limit reached");
    m
  in
  let ms = run_tier Uop.Step and mb = run_tier Uop.Bcache in
  check "bcache: memory matches step after lmw fault" true
    (Bytes.equal ms.Machine.mem mb.Machine.mem);
  check "bcache: registers/epc/counters match step" true
    (bb_fingerprint mb = bb_fingerprint ms);
  (* the run really took the fault path it claims to test *)
  check_int "two utlb refills (lw then sw)" 2 ms.Machine.c.Machine.utlb_misses;
  check_int "badvaddr names the unmapped page" 0x4000 ms.Machine.badvaddr;
  let buf_pa = Addr.kseg0_pa data_va in
  check_int "buf.0 counted every loop pass" 30 (Machine.read_phys_u32 ms buf_pa);
  check_int "buf.8 counted once on fall-out" 1
    (Machine.read_phys_u32 ms (buf_pa + 8))

(* The FP uops mid-block: a loop of dependent FP work, then (after FP
   uops have retired in the fall-out block) an l.d through an unmapped
   kuseg page, whose utlb refill the block cache must recover from
   mid-block, then an s.d over two instructions later in its own block.
   The store-class recheck must leave the block there, so the patched
   instructions run (s2 = 1 + 100 + 200), as step-at-a-time runs them;
   the default epilogue would replay the stale ones (s2 = 31). *)
let test_fp_block_faults () =
  let addiu_s2 k = Encode.encode ~pc:0 (Insn.Alui (Insn.ADDIU, Reg.s2, Reg.s2, Insn.Imm k)) in
  let build a =
    let open Asm in
    li a Reg.s0 20;
    la a Reg.t2 "vals";
    label a "loop";
    ld a 0 0 Reg.t2;
    ld a 2 8 Reg.t2;
    fdiv a 4 0 2;
    fadd a 6 0 4;
    fmul a 0 6 2;
    sd a 0 16 Reg.t2;
    addiu a Reg.s0 Reg.s0 (-1);
    bnez a Reg.s0 "loop";
    ld a 8 16 Reg.t2;
    fmul a 10 8 8;
    li a Reg.t3 0x4000;
    ld a 12 0 Reg.t3;
    mfc1 a Reg.s1 10;
    la a Reg.t4 "patch";
    la a Reg.t5 "code";
    ld a 14 0 Reg.t5;
    (* s.d at an 8-aligned pc, so [patch] (two words on) is 8-aligned *)
    if insn_count a land 1 = 1 then nop a;
    sd a 14 0 Reg.t4;
    addiu a Reg.s2 Reg.s2 1;
    label a "patch";
    addiu a Reg.s2 Reg.s2 10;
    addiu a Reg.s2 Reg.s2 20;
    halt a;
    dlabel a "vals";
    double a 3.0;
    double a 1.25;
    double a 0.0;
    align a 8;
    dlabel a "code";
    words a [ addiu_s2 100; addiu_s2 200 ]
  in
  let run_tier tier =
    let cfg = { Machine.default_config with Machine.tier } in
    let m, _ = setup ~cfg build in
    bb_install_vectors m;
    (match Machine.run m ~max_insns:10_000 with
    | Machine.Halt -> ()
    | Machine.Limit -> Alcotest.fail "instruction limit reached");
    m
  in
  let ms = run_tier Uop.Step and mb = run_tier Uop.Bcache in
  check "bcache: memory matches step after FP faults" true
    (Bytes.equal ms.Machine.mem mb.Machine.mem);
  check "bcache: registers/FPU/counters match step" true
    (bb_fingerprint mb = bb_fingerprint ms);
  check_int "one utlb refill (the l.d)" 1 ms.Machine.c.Machine.utlb_misses;
  check_int "badvaddr names the unmapped page" 0x4000 ms.Machine.badvaddr;
  check_int "patched instructions ran" 301 ms.Machine.regs.(Reg.s2);
  check "dependent FP ops stalled" true (Machine.arith_stalls ms > 20 * 19)

(* ------------------------------------------------------------------ *)
(* Per-page host state: the decode cache and the disk image            *)

(* Code placed and run by the host: routines at physical addresses,
   entered through kseg0 with $ra at the program's halting entry. *)
let pg_a = 0x20000
let pg_b = 0x30000
let pg_c = 0x40000

let pg_words pa insns =
  List.mapi (fun i insn -> Encode.encode ~pc:(Addr.kseg0_base + pa + (4 * i)) insn) insns

let pg_bytes ws =
  String.concat ""
    (List.map
       (fun w ->
         let b = Bytes.create 4 in
         Bytes.set_int32_le b 0 (Int32.of_int w);
         Bytes.to_string b)
       ws)

let pg_put m pa insns =
  List.iteri (fun i w -> Machine.write_phys_u32 m (pa + (4 * i)) w) (pg_words pa insns)

let pg_routine k = [ Insn.Alui (Insn.ADDIU, Reg.s0, Reg.zero, Insn.Imm k); Insn.Jr Reg.ra; Insn.nop ]

let pg_has_dec (m : Machine.t) pa = Array.length m.Machine.dec.(pa lsr Addr.page_shift) > 0

(* A guest routine that DMAs disk block [block] into physical page [pa]
   and waits for it. *)
let pg_dma_routine a name ~block ~pa =
  let open Asm in
  label a name;
  li a Reg.t0 (0xA0000000 + Addr.device_base_pa);
  li a Reg.t1 block;
  sw a Reg.t1 Addr.dev_disk_block Reg.t0;
  li a Reg.t1 pa;
  sw a Reg.t1 Addr.dev_disk_addr Reg.t0;
  li a Reg.t1 1;
  sw a Reg.t1 Addr.dev_disk_count Reg.t0;
  sw a Reg.t1 Addr.dev_disk_cmd Reg.t0;
  let w = fresh_label a "wait" in
  label a w;
  lw a Reg.t2 Addr.dev_disk_done_block Reg.t0;
  li a Reg.t3 block;
  bne a Reg.t2 Reg.t3 w;
  sw a Reg.zero Addr.dev_disk_ack Reg.t0;
  jr_ a Reg.ra

(* Invalidation through each host and device write path, on a page that
   has a decode array (its code already ran) and on one that does not;
   returns the machine for the cross-tier comparison. *)
let pg_scenario tier =
  let cfg = { Machine.default_config with Machine.tier } in
  let m, exe =
    setup ~cfg (fun a ->
        halt a;
        pg_dma_routine a "dma_a" ~block:5 ~pa:pg_a;
        pg_dma_routine a "dma_c" ~block:6 ~pa:pg_c)
  in
  let what = Uop.tier_name tier ^ ": " in
  let call va =
    m.Machine.pc <- va;
    m.Machine.npc <- va + 4;
    m.Machine.next_is_delay <- false;
    m.Machine.halted <- false;
    m.Machine.regs.(Reg.ra) <- exe.Exe.entry;
    run m;
    m.Machine.regs.(Reg.s0)
  in
  let k0 pa = Addr.kseg0_base + pa in
  (* host write_phys_u32 over code that ran, then into a fresh page *)
  pg_put m pg_a (pg_routine 1);
  check_int (what ^ "routine A") 1 (call (k0 pg_a));
  check (what ^ "A has a decode array") true (pg_has_dec m pg_a);
  pg_put m pg_a [ Insn.Alui (Insn.ADDIU, Reg.s0, Reg.zero, Insn.Imm 2) ];
  check_int (what ^ "write_phys_u32 over decoded code") 2 (call (k0 pg_a));
  check (what ^ "B has no decode array") false (pg_has_dec m pg_b);
  pg_put m pg_b (pg_routine 3);
  check_int (what ^ "write_phys_u32 into an undecoded page") 3 (call (k0 pg_b));
  (* write_phys_bytes from A's last words into the next, undecoded page *)
  let e = pg_a + Addr.page_size - 12 in
  pg_put m e (pg_routine 10);
  check_int (what ^ "routine at A's end") 10 (call (k0 e));
  check (what ^ "A's successor has no decode array") false
    (pg_has_dec m (pg_a + Addr.page_size));
  Machine.write_phys_bytes m e
    (pg_bytes
       (pg_words e
          [
            Insn.Alui (Insn.ADDIU, Reg.s0, Reg.zero, Insn.Imm 20);
            Insn.Alui (Insn.ADDIU, Reg.s0, Reg.s0, Insn.Imm 1);
            Insn.Alui (Insn.ADDIU, Reg.s0, Reg.s0, Insn.Imm 2);
            Insn.Alui (Insn.ADDIU, Reg.s0, Reg.s0, Insn.Imm 3);
            Insn.Jr Reg.ra;
            Insn.nop;
          ]));
  check_int (what ^ "write_phys_bytes across two pages") 26 (call (k0 e));
  (* disk DMA over text that ran, and into a page never decoded *)
  Disk.write_image m.Machine.disk ~block:5 ~off:0 (pg_bytes (pg_words pg_a (pg_routine 40)));
  Disk.write_image m.Machine.disk ~block:6 ~off:0 (pg_bytes (pg_words pg_c (pg_routine 50)));
  check_int (what ^ "A still runs its old code") 2 (call (k0 pg_a));
  ignore (call (Exe.symbol exe "test::dma_a"));
  check_int (what ^ "DMA over decoded code") 40 (call (k0 pg_a));
  check (what ^ "C has no decode array") false (pg_has_dec m pg_c);
  ignore (call (Exe.symbol exe "test::dma_c"));
  check_int (what ^ "DMA into an undecoded page") 50 (call (k0 pg_c));
  m

let test_page_invalidation () =
  let ms = pg_scenario Uop.Step and mb = pg_scenario Uop.Bcache in
  check "bcache: memory matches step" true (Bytes.equal ms.Machine.mem mb.Machine.mem);
  check "bcache: registers/counters match step" true
    (bb_fingerprint mb = bb_fingerprint ms)

let test_disk_image () =
  let d = Disk.create ~blocks:16 () in
  let bb = Disk.block_bytes in
  check "unwritten block reads as zeros" true
    (Disk.read_image d ~block:7 ~off:0 ~len:bb = String.make bb '\000');
  let s = String.init 40 (fun i -> Char.chr (65 + i)) in
  Disk.write_image d ~block:2 ~off:(bb - 15) s;
  check "write_image across a block boundary reads back" true
    (Disk.read_image d ~block:2 ~off:(bb - 15) ~len:40 = s);
  check "its tail is the next block's head" true
    (Disk.read_image d ~block:3 ~off:0 ~len:25 = String.sub s 15 25);
  check "the rest of the written blocks is zeros" true
    (Disk.read_image d ~block:3 ~off:25 ~len:(bb - 25) = String.make (bb - 25) '\000');
  (* a three-block DMA write from memory, then a DMA read back elsewhere *)
  let mem = Bytes.init (8 * bb) (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let dma ~block ~paddr ~count ~is_write =
    d.Disk.reg_block <- block;
    d.Disk.reg_addr <- paddr;
    d.Disk.reg_count <- count;
    check "submitted" true (Disk.submit d ~now:0 ~is_write);
    ignore (Disk.poll d ~now:max_int ~mem ~on_dma:(fun ~paddr:_ ~len:_ -> ()));
    Disk.ack d
  in
  dma ~block:9 ~paddr:bb ~count:3 ~is_write:true;
  check "multi-block DMA write reads back" true
    (Disk.read_image d ~block:9 ~off:0 ~len:(3 * bb) = Bytes.sub_string mem bb (3 * bb));
  dma ~block:9 ~paddr:(5 * bb) ~count:3 ~is_write:false;
  check "multi-block DMA read lands intact" true
    (Bytes.sub_string mem (5 * bb) (3 * bb) = Bytes.sub_string mem bb (3 * bb));
  dma ~block:6 ~paddr:0 ~count:1 ~is_write:false;
  check "DMA read of an unwritten block zeroes memory" true
    (Bytes.sub_string mem 0 bb = String.make bb '\000');
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check "write_image past the end raises" true
    (raises (fun () -> Disk.write_image d ~block:15 ~off:(bb - 4) "12345678"));
  check "write_image at a negative offset raises" true
    (raises (fun () -> Disk.write_image d ~block:0 ~off:(-1) "x"));
  check "read_image past the end raises" true
    (raises (fun () -> Disk.read_image d ~block:16 ~off:0 ~len:1));
  check "DMA past the end of the disk raises" true
    (raises (fun () -> dma ~block:15 ~paddr:0 ~count:2 ~is_write:false));
  check "DMA past the end of memory raises" true
    (raises (fun () -> dma ~block:0 ~paddr:(7 * bb) ~count:2 ~is_write:true))

(* The host footprint of one simulated system: simulated RAM (2M words)
   plus what its run touches.  A flat host table with a slot per word
   of RAM (4M slots) would more than double it. *)
let test_machine_footprint () =
  let open Systrace_validate in
  let b =
    Validate.system ~traced:true Validate.Ultrix
      (Experiments.spec_of (Systrace_workloads.Suite.find "egrep"))
  in
  let words = Obj.reachable_words (Obj.repr b.Systrace_kernel.Builder.machine) in
  check (Printf.sprintf "traced egrep machine: %d words < 3M" words) true
    (words < 3_000_000)

(* ------------------------------------------------------------------ *)
(* The kernel's trace-buffer loop stubs against step-at-a-time         *)

(* The drain's copy loop as ktraceops.ml assembles it — a head block
   [beq src, stop; nop], then a body entered through one more nop —
   copying [n] words from [src] to [dst], then the analysis spin
   counting [spin] down (with [spin] <= 1 its block is never entered at
   its head, so no [Spin] stub dispatches).  [pre] runs first. *)
let ks_build ?(pre = fun _ -> ()) ~src ~dst ~n ~spin a =
  let open Asm in
  pre a;
  li a Reg.t4 src;
  li a Reg.t3 (src + (4 * n));
  li a Reg.s0 dst;
  label a "kd_loop";
  beq a Reg.t4 Reg.t3 "kd_done";
  nop a;
  lw a Reg.t5 0 Reg.t4;
  sw a Reg.t5 0 Reg.s0;
  addiu a Reg.t4 Reg.t4 4;
  i a (Insn.J (Sym "kd_loop"));
  addiu a Reg.s0 Reg.s0 4;
  label a "kd_done";
  li a Reg.v1 spin;
  label a "ka_spin";
  addiu a Reg.v1 Reg.v1 (-1);
  bgtz a Reg.v1 "ka_spin";
  halt a

(* Enable the clock interrupt (the machine's clock is armed by
   [ks_clock]). *)
let ks_irq_on a =
  Asm.li a Reg.t0 (0x401 lor (1 lsl (Addr.irq_clock + 8)));
  Asm.mtc0 a Reg.t0 Insn.C0_status

let ks_clock interval m =
  m.Machine.clock_interval <- interval;
  m.Machine.next_clock <- interval

(* A kuseg source whose two virtual pages 0x10 and 0x11 map to frames
   0x30 and 0x50, so a copy that ran past the first page's end would
   read frame 0x31's poison instead of frame 0x50's words. *)
let ks_map_source m =
  List.iteri
    (fun i (vpn, pfn) ->
      Tlb.write m.Machine.tlb (8 + i)
        ~hi:(Tlb.make_entryhi ~vpn ~asid:0)
        ~lo:(Tlb.make_entrylo ~dirty:true ~valid:true ~global:true ~pfn ()))
    [ (0x10, 0x30); (0x11, 0x50) ];
  for w = 0 to 1023 do
    Machine.write_phys_u32 m ((0x30 lsl 12) + (4 * w)) (0x3000_0000 + w);
    Machine.write_phys_u32 m ((0x31 lsl 12) + (4 * w)) 0xDEAD_BEEF;
    Machine.write_phys_u32 m ((0x50 lsl 12) + (4 * w)) (0x5000_0000 + w)
  done

(* Source words at [data_va] for the kseg0/kseg1 sources. *)
let ks_fill_data m =
  for w = 0 to 255 do
    Machine.write_phys_u32 m (Addr.kseg0_pa data_va + (4 * w)) (0x1000 + w)
  done

(* Dispatches of the stub kind named [name] (see [Uop.stub_kinds]). *)
let kind_runs m name =
  let i = ref (-1) in
  Array.iteri (fun k n -> if n = name then i := k) Uop.stub_kinds;
  m.Machine.stub_kind_runs.(!i)

(* Run [build] at step and at the block cache in lockstep, [chunk]
   instructions per [Machine.run], comparing the fingerprints after
   every chunk and memory (and the per-word execution counts) at the
   end; returns the block-cache machine. *)
let ks_both ?(prepare = fun (_ : Machine.t) -> ()) ?(cfg = Machine.default_config)
    ?(chunk = 1_000_000) build =
  let make tier =
    let m, _ = setup ~cfg:{ cfg with Machine.tier } build in
    bb_install_vectors m;
    ks_fill_data m;
    prepare m;
    m
  in
  let ms = make Uop.Step and mb = make Uop.Bcache in
  let rec go rounds =
    if rounds > 200_000 then Alcotest.fail "program did not halt";
    let rs = Machine.run ms ~max_insns:chunk in
    let rb = Machine.run mb ~max_insns:chunk in
    check "same stop reason" true (rs = rb);
    if bb_fingerprint mb <> bb_fingerprint ms then
      Alcotest.failf "bcache diverges from step after %d chunks of %d" (rounds + 1)
        chunk;
    if rs = Machine.Limit then go (rounds + 1)
  in
  go 0;
  check "memory matches step" true (Bytes.equal ms.Machine.mem mb.Machine.mem);
  check "execution counts match step" true
    (ms.Machine.exec_counts = mb.Machine.exec_counts);
  mb

let kseg0 = data_va
let kseg1 = data_va + 0x2000_0000
let ks_dst = data_va + 0x1000

(* A copy across a source page end whose next page is elsewhere in
   physical memory, then a 2,000-iteration spin: both stubs run, the
   copy in at least two dispatches. *)
let test_ks_page_end () =
  let m =
    ks_both ~prepare:ks_map_source
      (ks_build ~src:0x10F00 ~dst:ks_dst ~n:200 ~spin:2000)
  in
  check "copy ran in two or more dispatches" true (kind_runs m "kd_copy" >= 2);
  check "spin ran" true (kind_runs m "spin" >= 1);
  check_int "last word from the second frame" (0x5000_0000 + 135)
    (Machine.read_phys_u32 m (Addr.kseg0_pa ks_dst + (4 * 199)));
  check_int "word before the page end" (0x3000_0000 + 1023)
    (Machine.read_phys_u32 m (Addr.kseg0_pa ks_dst + (4 * 63)))

(* One fall-through cause each: the stub kinds in [none] must leave
   everything to the scalar uops, and the result must still be step's. *)
let ks_falls ?prepare ?cfg ?chunk ~none build () =
  let m = ks_both ?prepare ?cfg ?chunk build in
  check "stub uops fell through" true (m.Machine.stub_falls > 0);
  List.iter (fun kind -> check_int (kind ^ ": no dispatch") 0 (kind_runs m kind)) none

let ks_plain = ks_build ~src:kseg0 ~dst:ks_dst ~n:100 ~spin:500

let test_ks_uncached_source =
  ks_falls ~none:[ "kd_copy" ] (ks_build ~src:kseg1 ~dst:ks_dst ~n:100 ~spin:1)

let test_ks_uncached_dest =
  ks_falls ~none:[ "kd_copy" ]
    (ks_build ~src:kseg0 ~dst:(ks_dst + 0x2000_0000) ~n:100 ~spin:1)

let test_ks_tlb_miss_source () =
  let m =
    ks_both (ks_build ~src:0x20000 ~dst:ks_dst ~n:20 ~spin:1)
  in
  check_int "no copy dispatch" 0 (kind_runs m "kd_copy");
  check_int "a refill per word" 20 m.Machine.c.Machine.utlb_misses

let test_ks_dest_on_text =
  ks_falls ~none:[ "kd_copy" ]
    (ks_build ~src:kseg0 ~dst:(text_va + 0xC00) ~n:100 ~spin:1)

let test_ks_watchpoint =
  ks_falls ~none:[ "kd_copy"; "spin" ]
    ~prepare:(fun m -> m.Machine.watchpoint <- Some (fun _ _ -> ()))
    ks_plain

let test_ks_ref_tracer =
  ks_falls ~none:[ "kd_copy"; "spin" ]
    ~prepare:(fun m -> m.Machine.ref_tracer <- Some (fun _ _ -> ()))
    ks_plain

let test_ks_count_exec =
  ks_falls ~none:[ "kd_copy"; "spin" ]
    ~cfg:{ Machine.default_config with Machine.count_exec = true }
    ks_plain

(* Five instructions per [run]: never room for the copy's 6-instruction
   body, while the 3-instruction spin still runs one iteration at a
   time. *)
let test_ks_budget_below_block = ks_falls ~none:[ "kd_copy" ] ~chunk:5 ks_plain

(* 50 instructions per [run]: copies end mid-run at the budget, and the
   counters must agree after every run. *)
let test_ks_budget_mid_copy () =
  let m = ks_both ~chunk:50 ks_plain in
  check "copy ran" true (kind_runs m "kd_copy" > 0);
  check "spin ran" true (kind_runs m "spin" > 0)

(* The first body entry finds its icache lines cold and falls through;
   the second word's entry finds them resident. *)
let test_ks_icache_cold () =
  let m = ks_both (ks_build ~src:kseg0 ~dst:ks_dst ~n:2 ~spin:1) in
  check_int "cold entry fell through" 1 m.Machine.stub_falls;
  check_int "warm entry ran" 1 (kind_runs m "kd_copy")

(* A clock every 150 cycles: the copy's horizon is often too close, and
   ticks fall due mid-spin; each must be taken at step's cycle and pc. *)
let test_ks_clock () =
  let m =
    ks_both ~prepare:(ks_clock 150)
      (ks_build ~pre:ks_irq_on ~src:kseg0 ~dst:ks_dst ~n:200 ~spin:3000)
  in
  check "ticks taken" true (m.Machine.c.Machine.interrupts > 20);
  check "copy ran" true (kind_runs m "kd_copy" > 0);
  check "spin ran" true (kind_runs m "spin" > 0);
  (* a cold icache accounts for at most one fall per loop *)
  check "stubs fell through at the horizon" true (m.Machine.stub_falls > 10)

let tests =
  tests
  @ [
      QCheck_alcotest.to_alcotest prop_tcache_matches_walk;
      QCheck_alcotest.to_alcotest prop_bcache_matches_step;
      QCheck_alcotest.to_alcotest prop_bcache_tlb_remap;
      QCheck_alcotest.to_alcotest prop_bcache_clock_interrupts;
      Alcotest.test_case "lmw last-load tlb miss vs step" `Quick
        test_lmw_last_load_tlb_miss;
      Alcotest.test_case "FP uops: faults and s.d over its own block" `Quick
        test_fp_block_faults;
      Alcotest.test_case "per-page decode cache: every write path" `Quick
        test_page_invalidation;
      Alcotest.test_case "per-block disk image" `Quick test_disk_image;
      Alcotest.test_case "machine host footprint" `Quick test_machine_footprint;
      Alcotest.test_case "alignment traps" `Quick test_alignment_traps;
      Alcotest.test_case "interrupt masking" `Quick test_interrupt_masking;
      Alcotest.test_case "store invalidates decode" `Quick
        test_store_invalidates_decode;
      Alcotest.test_case "random register range" `Quick test_random_register_range;
      Alcotest.test_case "context register" `Quick test_context_register;
      Alcotest.test_case "loop stubs: copy across a page end" `Quick
        test_ks_page_end;
      Alcotest.test_case "loop stub falls through: uncached source" `Quick
        test_ks_uncached_source;
      Alcotest.test_case "loop stub falls through: uncached dest" `Quick
        test_ks_uncached_dest;
      Alcotest.test_case "loop stub falls through: source tlb miss" `Quick
        test_ks_tlb_miss_source;
      Alcotest.test_case "loop stub falls through: store to text" `Quick
        test_ks_dest_on_text;
      Alcotest.test_case "loop stub falls through: watchpoint" `Quick
        test_ks_watchpoint;
      Alcotest.test_case "loop stub falls through: ref tracer" `Quick
        test_ks_ref_tracer;
      Alcotest.test_case "loop stub falls through: count_exec" `Quick
        test_ks_count_exec;
      Alcotest.test_case "loop stub falls through: budget < block" `Quick
        test_ks_budget_below_block;
      Alcotest.test_case "loop stubs: budget ends mid-copy" `Quick
        test_ks_budget_mid_copy;
      Alcotest.test_case "loop stub falls through: icache cold" `Quick
        test_ks_icache_cold;
      Alcotest.test_case "loop stubs: clock ticks mid-spin" `Quick
        test_ks_clock;
    ]
