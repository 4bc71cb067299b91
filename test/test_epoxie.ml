(* End-to-end tests for epoxie instrumentation.

   The strategy mirrors the paper's own validation (§4.3): run a
   deterministic program twice — original and epoxie-instrumented — on the
   machine simulator.  The original run's reference trace (captured by the
   machine itself, our "independently developed CPU simulator") must match,
   address for address, the trace reconstructed by the parsing library from
   the instrumented run's buffer.  Both runs must also compute the same
   results, which exercises register stealing and hazard handling. *)

open Systrace_isa
open Systrace_machine
open Systrace_tracing
open Systrace_epoxie

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let text_va = 0x8000_1000
let data_va = 0x8004_0000
let book_va = 0x8010_0000 (* bookkeeping area, kseg0 *)
let buf_va = 0x8010_1000 (* trace buffer, kseg0 *)
let buf_bytes = 0x80000 (* 512 KB: ample for these tests *)

(* Start-up shim: initialise the stolen registers and shadow slots, call
   main, halt.  Untraced (no_instrument). *)
let shim () =
  let a = Asm.create ~no_instrument:true "shim" in
  let open Asm in
  global a "_start";
  label a "_start";
  li a Abi.xreg_book book_va;
  li a Abi.xreg_cursor buf_va;
  li a Abi.xreg_limit (buf_va + buf_bytes - 256);
  (* Shadow slots start as zero; give the stolen registers recognisable
     shadow values so steal-rewriting is observable. *)
  li a Reg.v0 0x1111;
  sw a Reg.v0 (Abi.shadow_slot Abi.xreg_book) Abi.xreg_book;
  li a Reg.v0 0x2222;
  sw a Reg.v0 (Abi.shadow_slot Abi.xreg_cursor) Abi.xreg_book;
  li a Reg.v0 0x3333;
  sw a Reg.v0 (Abi.shadow_slot Abi.xreg_limit) Abi.xreg_book;
  li a Reg.sp (data_va + 0x2000);
  jal a "main";
  hcall a 0;
  to_obj a

(* Same shim without tracing registers, for the original run. *)
let shim_orig () =
  let a = Asm.create ~no_instrument:true "shim" in
  let open Asm in
  global a "_start";
  label a "_start";
  li a Reg.sp (data_va + 0x2000);
  jal a "main";
  hcall a 0;
  to_obj a

let make_machine exe =
  let m = Machine.create () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  m.Machine.pc <- exe.Exe.entry;
  m.Machine.npc <- exe.Exe.entry + 4;
  m.Machine.hcall_handler <- Some (fun m code -> if code = 0 then Machine.halt m);
  m

let run m =
  match Machine.run m ~max_insns:20_000_000 with
  | Machine.Halt -> ()
  | Machine.Limit -> Alcotest.fail "instruction limit reached"

(* Run a program (given as its instrumentable modules) both ways.  Returns
   (orig machine, instr machine, reference events, parsed events, stats). *)
type ev = { kind : int; addr : int }

let run_both (mods : Objfile.t list) =
  (* Original link and run, collecting the reference trace of main only
     (the shim differs between the two links). *)
  let orig_exe =
    Link.link ~name:"orig" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      (shim_orig () :: mods)
  in
  let shim_lo = Exe.symbol orig_exe "shim::$text_start" in
  let prog_lo =
    Exe.symbol orig_exe ((List.hd mods).Objfile.name ^ "::$text_start")
  in
  ignore shim_lo;
  let morig = make_machine orig_exe in
  let refev = ref [] in
  let in_prog = ref false in
  morig.Machine.ref_tracer <-
    Some
      (fun kind addr ->
        if kind = 0 then in_prog := addr >= prog_lo;
        if !in_prog then refev := { kind; addr } :: !refev);
  run morig;
  let refev = List.rev !refev in
  (* Instrumented link and run. *)
  let imods, descs = Epoxie.instrument_modules mods in
  let instr_exe =
    Link.link ~name:"instr" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      ((shim () :: imods) @ [ Runtime.make Runtime.User ])
  in
  let minstr = make_machine instr_exe in
  run minstr;
  (* Extract and parse the trace buffer. *)
  let table = Bbmap.build ~instrumented:instr_exe ~original:orig_exe descs in
  let cursor = minstr.Machine.regs.(Abi.xreg_cursor) in
  let nwords = (cursor - buf_va) / 4 in
  let words =
    Array.init nwords (fun k ->
        Machine.read_phys_u32 minstr (Addr.kseg0_pa buf_va + (k * 4)))
  in
  let parsed = ref [] in
  let p = Parser.create ~kernel_bbs:table () in
  Parser.set_handlers p
    {
      Parser.on_inst = (fun addr _ _ -> parsed := { kind = 0; addr } :: !parsed);
      on_data =
        (fun addr _ _ is_load _ ->
          parsed := { kind = (if is_load then 1 else 2); addr } :: !parsed);
    };
  Parser.feed p words ~len:nwords;
  Parser.finish p;
  (morig, minstr, refev, List.rev !parsed, Parser.stats p)

let pp_ev e =
  Printf.sprintf "%s 0x%x"
    (match e.kind with 0 -> "I" | 1 -> "L" | _ -> "S")
    e.addr

let compare_traces refev parsed =
  let rec go i r p =
    match (r, p) with
    | [], [] -> ()
    | r0 :: _, [] -> Alcotest.failf "parsed trace short at %d: ref has %s" i (pp_ev r0)
    | [], p0 :: _ -> Alcotest.failf "parsed trace long at %d: extra %s" i (pp_ev p0)
    | r0 :: r', p0 :: p' ->
      if r0 <> p0 then
        Alcotest.failf "trace mismatch at event %d: ref %s, parsed %s" i
          (pp_ev r0) (pp_ev p0);
      go (i + 1) r' p'
  in
  go 0 refev parsed

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)

(* A straightforward loop: sums an array, stores the running sum. *)
let prog_simple () =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  la a Reg.t0 "array";
  li a Reg.t1 16;
  li a Reg.v0 0;
  label a "loop";
  lw a Reg.t2 0 Reg.t0;
  addu a Reg.v0 Reg.v0 Reg.t2;
  sw a Reg.v0 64 Reg.t0;
  addiu a Reg.t0 Reg.t0 4;
  addiu a Reg.t1 Reg.t1 (-1);
  bnez a Reg.t1 "loop";
  ret a;
  dlabel a "array";
  words a (List.init 16 (fun k -> k * 3));
  space a 128;
  to_obj a

(* Uses the stolen registers heavily: $t7/$t8/$t9 as ordinary computation
   registers, including as load/store bases and in two-stolen-operand
   instructions. *)
let prog_stolen () =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  la a Reg.t7 "data";       (* stolen as base *)
  li a Reg.t8 5;            (* stolen as counter *)
  li a Reg.t9 0;            (* stolen as accumulator *)
  label a "loop";
  lw a Reg.t2 0 Reg.t7;     (* load via stolen base *)
  addu a Reg.t9 Reg.t9 Reg.t2;
  addu a Reg.t9 Reg.t9 Reg.t8;  (* two stolen sources, stolen dest *)
  sw a Reg.t9 32 Reg.t7;    (* store via stolen base *)
  addiu a Reg.t7 Reg.t7 4;
  addiu a Reg.t8 Reg.t8 (-1);
  bnez a Reg.t8 "loop";
  move a Reg.v0 Reg.t9;
  ret a;
  dlabel a "data";
  words a [ 10; 20; 30; 40; 50 ];
  space a 64;
  to_obj a

(* Hazard cases: function calls spill/reload $ra (sw ra / lw ra), and a
   load overwrites its own base register. *)
let prog_hazard () =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  func a "main" ~frame:8 ~saves:[ Reg.s0 ] (fun () ->
      la a Reg.s0 "cell";
      jal a "leaffn";
      move a Reg.t3 Reg.v0;
      (* load with rt = base *)
      la a Reg.t4 "ptr";
      lw a Reg.t4 0 Reg.t4;
      lw a Reg.t5 0 Reg.t4;
      addu a Reg.v0 Reg.t3 Reg.t5);
  leaf a "leaffn" (fun () ->
      la a Reg.t0 "cell";
      lw a Reg.v0 0 Reg.t0);
  dlabel a "cell";
  word a 77;
  dlabel a "ptr";
  addr a "cell";
  to_obj a

(* Floating point memory traffic. *)
let prog_fp () =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  la a Reg.t0 "vals";
  ld a 0 0 Reg.t0;
  ld a 1 8 Reg.t0;
  fadd a 2 0 1;
  sd a 2 16 Reg.t0;
  i a (Insn.Fop (TRUNCWD, 2, 2, 0));
  mfc1 a Reg.v0 2;
  ret a;
  dlabel a "vals";
  double a 1.25;
  double a 2.25;
  double a 0.0;
  to_obj a

(* ------------------------------------------------------------------ *)

let test_simple_equivalence () =
  let morig, minstr, refev, parsed, _ = run_both [ prog_simple () ] in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  check_int "result value" 360 morig.Machine.regs.(Reg.v0);
  compare_traces refev parsed

let test_stolen_registers () =
  let morig, minstr, refev, parsed, _ = run_both [ prog_stolen () ] in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  (* 10+5 + 20+4 + 30+3 + 40+2 + 50+1 accumulated: 10+5=15, +20+4=39,
     +30+3=72, +40+2=114, +50+1=165 *)
  check_int "result value" 165 morig.Machine.regs.(Reg.v0);
  compare_traces refev parsed

let test_hazards () =
  let morig, minstr, refev, parsed, _ = run_both [ prog_hazard () ] in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  check_int "result value" 154 morig.Machine.regs.(Reg.v0);
  compare_traces refev parsed

let test_fp () =
  let morig, minstr, refev, parsed, _ = run_both [ prog_fp () ] in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  check_int "result value" 3 morig.Machine.regs.(Reg.v0);
  compare_traces refev parsed

let test_stats_consistency () =
  let _, _, refev, _, stats = run_both [ prog_simple () ] in
  let insts = List.length (List.filter (fun e -> e.kind = 0) refev) in
  let datas = List.length (List.filter (fun e -> e.kind <> 0) refev) in
  check_int "inst count" insts stats.Parser.insts;
  check_int "data count" datas stats.Parser.datas;
  check "block records seen" true (stats.Parser.bb_records > 0)

let test_expansion_factor () =
  (* Text growth for epoxie should land in the paper's 1.9-2.3x band for
     ordinary code. *)
  let mods = [ prog_simple () ] in
  let imods, _ = Epoxie.instrument_modules mods in
  let f = Epoxie.expansion ~original:mods ~instrumented:imods in
  check "expansion >= 1.5" true (f >= 1.5);
  check "expansion <= 3.0" true (f <= 3.0)

let test_protected_function () =
  (* A protected function must produce no trace but still run correctly. *)
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  i a (Insn.Store (W, Reg.ra, Reg.sp, Imm (-4)));
  jal a "secret";
  i a (Insn.Load (W, Reg.ra, Reg.sp, Imm (-4)));
  ret a;
  protect a "secret";
  leaf a "secret" (fun () ->
      la a Reg.t0 "c";
      lw a Reg.v0 0 Reg.t0);
  dlabel a "c";
  word a 9;
  let mods = [ to_obj a ] in
  let morig, minstr, refev, parsed, _ = run_both mods in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  check_int "result" 9 morig.Machine.regs.(Reg.v0);
  (* The reference trace includes the protected function; the parsed trace
     must not. *)
  check "parsed shorter than ref" true (List.length parsed < List.length refev)

let tests =
  [
    Alcotest.test_case "simple program equivalence" `Quick test_simple_equivalence;
    Alcotest.test_case "stolen registers" `Quick test_stolen_registers;
    Alcotest.test_case "hazard cases" `Quick test_hazards;
    Alcotest.test_case "floating point" `Quick test_fp;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
    Alcotest.test_case "text expansion factor" `Quick test_expansion_factor;
    Alcotest.test_case "protected function untraced" `Quick test_protected_function;
  ]

(* ------------------------------------------------------------------ *)
(* Property: epoxie preserves semantics and trace fidelity on random
   programs.

   The generator produces structured random programs over the full
   allocatable register set — including the stolen registers $t7-$t9 — with
   arithmetic, memory traffic against a scratch buffer, and a counted
   loop.  Each program is run original and instrumented; the final
   register file and memory must agree, and the parsed trace must equal
   the machine's reference trace. *)

type rinsn =
  | RAlu of Insn.alu * int * int * int
  | RAlui of Insn.alui * int * int * int
  | RShift of Insn.shift * int * int * int
  | RLoad of int * int   (* rt, word offset *)
  | RStore of int * int

let value_regs =
  Reg.[ v0; v1; a0; a1; a2; a3; t0; t1; t2; t3; t4; t5; t6; t7; t8; t9;
        s1; s2; s3; s4; s5; s6; s7 ]

let gen_rinsn =
  let open QCheck.Gen in
  let reg = oneofl value_regs in
  oneof
    [
      map2 (fun op (a, b, c) -> RAlu (op, a, b, c))
        (oneofl Insn.[ ADDU; SUBU; AND; OR; XOR; SLT; SLTU; MUL ])
        (tup3 reg reg reg);
      map2 (fun op (a, b, c) -> RAlui (op, a, b, c))
        (oneofl Insn.[ ADDIU; ANDI; ORI; XORI; SLTI ])
        (tup3 reg reg (int_range 0 255));
      map2 (fun op (a, b, c) -> RShift (op, a, b, c))
        (oneofl Insn.[ SLL; SRL; SRA ])
        (tup3 reg reg (int_range 0 31));
      map2 (fun rt off -> RLoad (rt, off)) reg (int_range 0 63);
      map2 (fun rt off -> RStore (rt, off)) reg (int_range 0 63);
    ]

let gen_program = QCheck.Gen.(list_size (int_range 5 40) gen_rinsn)

let emit_rinsn a (ri : rinsn) =
  let open Asm in
  match ri with
  | RAlu (op, rd, rs, rt) -> i a (Insn.Alu (op, rd, rs, rt))
  | RAlui (op, rt, rs, v) -> i a (Insn.Alui (op, rt, rs, Imm v))
  | RShift (op, rd, rt, sa) -> i a (Insn.Shift (op, rd, rt, sa))
  | RLoad (rt, off) -> lw a rt (off * 4) Reg.s0
  | RStore (rt, off) -> sw a rt (off * 4) Reg.s0

let random_module (body : rinsn list) : Objfile.t =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  la a Reg.s0 "$scratch";
  (* seed the register file deterministically *)
  List.iteri (fun k r -> li a r ((k * 2654435761) land 0xFFFF)) value_regs;
  (* loop the body a few times so stolen-register state must survive
     iterations *)
  li a Reg.gp 3;   (* gp is free: loop counter outside the value regs *)
  label a "$top";
  List.iter (emit_rinsn a) body;
  addiu a Reg.gp Reg.gp (-1);
  bgtz a Reg.gp "$top";
  nop a;
  (* fold the register file into v0 *)
  List.iter (fun r -> xor_ a Reg.v0 Reg.v0 r) (List.tl value_regs);
  ret a;
  dlabel a "$scratch";
  space a 512;
  to_obj a

let prop_random_equivalence =
  QCheck.Test.make ~count:40 ~name:"random programs: instrumented = original"
    (QCheck.make gen_program)
    (fun body ->
      let mods = [ random_module body ] in
      let morig, minstr, refev, parsed, _ = run_both mods in
      if morig.Machine.regs.(Reg.v0) <> minstr.Machine.regs.(Reg.v0) then
        QCheck.Test.fail_reportf "result differs: %d vs %d"
          morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
      compare_traces refev parsed;
      true)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_random_equivalence ]

(* ------------------------------------------------------------------ *)
(* Mahler / Tunix-style instrumentation (paper §3.4): reserved registers,
   inline trace writes, two-word block records. *)

(* A program compiled under the Tunix contract: no $t7-$t9, no $at, no
   memory instructions in delay slots. *)
let prog_tunix () =
  let a = Asm.create "prog" in
  let open Asm in
  global a "main";
  label a "main";
  la a Reg.t0 "tarray";
  li a Reg.t1 12;
  li a Reg.v0 0;
  label a "tloop";
  lw a Reg.t2 0 Reg.t0;
  addu a Reg.v0 Reg.v0 Reg.t2;
  sw a Reg.v0 64 Reg.t0;
  addiu a Reg.t0 Reg.t0 4;
  addiu a Reg.t1 Reg.t1 (-1);
  bnez a Reg.t1 "tloop";
  ret a;
  dlabel a "tarray";
  words a (List.init 12 (fun k -> (k * 7) + 1));
  space a 128;
  to_obj a

let run_mahler (mods : Objfile.t list) =
  let orig_exe =
    Link.link ~name:"orig" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      (shim_orig () :: mods)
  in
  let prog_lo =
    Exe.symbol orig_exe ((List.hd mods).Objfile.name ^ "::$text_start")
  in
  let morig = make_machine orig_exe in
  let refev = ref [] in
  let in_prog = ref false in
  morig.Machine.ref_tracer <-
    Some
      (fun kind addr ->
        if kind = 0 then in_prog := addr >= prog_lo;
        if !in_prog then refev := { kind; addr } :: !refev);
  run morig;
  let imods, descs = Mahler.instrument_modules mods in
  let instr_exe =
    Link.link ~name:"instr" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      (shim () :: imods)
  in
  let minstr = make_machine instr_exe in
  run minstr;
  (* Build the lookup table from the Mahler descriptors. *)
  let table = Bbtable.create () in
  List.iter
    (fun (mname, ds) ->
      let orig_base = Exe.symbol orig_exe (mname ^ "::$text_start") in
      List.iter
        (fun (d : Mahler.bb_desc) ->
          Bbtable.add table
            ~record_addr:(Exe.symbol instr_exe (mname ^ "::" ^ d.Mahler.anchor))
            {
              Bbtable.orig_addr = orig_base + (d.Mahler.orig_index * 4);
              ninsns = d.Mahler.ninsns;
              mems = d.Mahler.mems;
              flags = 0;
            })
        ds)
    descs;
  let cursor = minstr.Machine.regs.(Abi.xreg_cursor) in
  let nwords = (cursor - buf_va) / 4 in
  let words =
    Array.init nwords (fun k ->
        Machine.read_phys_u32 minstr (Addr.kseg0_pa buf_va + (k * 4)))
  in
  let parsed = ref [] in
  let stats =
    Mahler.parse ~table words
      ~on_inst:(fun addr -> parsed := { kind = 0; addr } :: !parsed)
      ~on_data:(fun addr is_load ->
        parsed := { kind = (if is_load then 1 else 2); addr } :: !parsed)
  in
  (morig, minstr, List.rev !refev, List.rev !parsed, stats, nwords)

let test_mahler_equivalence () =
  let morig, minstr, refev, parsed, _, _ = run_mahler [ prog_tunix () ] in
  check_int "same result" morig.Machine.regs.(Reg.v0) minstr.Machine.regs.(Reg.v0);
  compare_traces refev parsed

let test_mahler_reserved_check () =
  let a = Asm.create "bad" in
  Asm.leaf a "main" (fun () -> Asm.li a Reg.t8 1);
  check "reserved register rejected" true
    (try
       ignore (Mahler.instrument_modules [ Asm.to_obj a ]);
       false
     with Mahler.Reserved_register_used _ -> true)

let test_mahler_trace_fatter_than_epoxie () =
  (* Same program, both instrumentations: the Tunix format writes one
     extra word per block (the inline length), so its trace is strictly
     bigger — the motivation for the one-word format of §3.5. *)
  let _, _, _, _, _, mahler_words = run_mahler [ prog_tunix () ] in
  let _, minstr, _, _, stats = run_both [ prog_tunix () ] in
  ignore minstr;
  let epoxie_words = stats.Parser.words in
  check "tunix trace bigger" true (mahler_words > epoxie_words);
  check_int "exactly one extra word per block"
    (mahler_words - epoxie_words) stats.Parser.bb_records

let test_mahler_length_validation () =
  (* Corrupt a length word: the redundancy check must catch it. *)
  let a = Asm.create "prog" in
  Asm.global a "main";
  Asm.label a "main";
  Asm.li a Reg.t0 1;
  Asm.ret a;
  let mods = [ Asm.to_obj a ] in
  let imods, descs = Mahler.instrument_modules mods in
  let orig_exe =
    Link.link ~name:"o" ~text_base:text_va ~data_base:data_va ~entry:"main" mods
  in
  let instr_exe =
    Link.link ~name:"i" ~text_base:text_va ~data_base:data_va ~entry:"main" imods
  in
  let table = Bbtable.create () in
  List.iter
    (fun (mname, ds) ->
      let base = Exe.symbol orig_exe (mname ^ "::$text_start") in
      List.iter
        (fun (d : Mahler.bb_desc) ->
          Bbtable.add table
            ~record_addr:(Exe.symbol instr_exe (mname ^ "::" ^ d.Mahler.anchor))
            { Bbtable.orig_addr = base + (d.Mahler.orig_index * 4);
              ninsns = d.Mahler.ninsns; mems = d.Mahler.mems; flags = 0 })
        ds)
    descs;
  let anchor = Exe.symbol instr_exe "prog::$mbb0" in
  check "bad length rejected" true
    (try
       ignore
         (Mahler.parse ~table [| anchor; 999 |]
            ~on_inst:(fun _ -> ()) ~on_data:(fun _ _ -> ()));
       false
     with Mahler.Corrupt _ -> true)

let tests =
  tests
  @ [
      Alcotest.test_case "mahler: equivalence + trace" `Quick
        test_mahler_equivalence;
      Alcotest.test_case "mahler: reserved register check" `Quick
        test_mahler_reserved_check;
      Alcotest.test_case "mahler: trace fatter than epoxie" `Quick
        test_mahler_trace_fatter_than_epoxie;
      Alcotest.test_case "mahler: length validation" `Quick
        test_mahler_length_validation;
    ]

(* ------------------------------------------------------------------ *)
(* Hand-traced routines (paper §3.3): code too delicate for epoxie is
   instrumented by hand; the parsing system recognises its record through
   a manually registered table entry. *)

(* The routine, as it exists in the original binary: 5 instructions, a
   load at position 0 and a store at position 2. *)
let hand_fn_plain () =
  let a = Asm.create ~no_instrument:true "handmod" in
  let open Asm in
  global a "hand_fn";
  label a "hand_fn";
  lw a Reg.v0 0 Reg.a0;
  addiu a Reg.v0 Reg.v0 1;
  sw a Reg.v0 0 Reg.a0;
  i a (Insn.Jr Reg.ra);
  nop a;
  to_obj a

(* The hand-instrumented variant: writes its own record and data words
   through the live cursor before executing the same body. *)
let hand_fn_traced () =
  let a = Asm.create ~no_instrument:true "handmod" in
  let open Asm in
  global a "hand_fn";
  global a "$hand_rec";
  label a "hand_fn";
  label a "$hand_rec";
  (* record word *)
  la a Reg.at "$hand_rec";
  addiu a Abi.xreg_cursor Abi.xreg_cursor 4;
  sw a Reg.at (-4) Abi.xreg_cursor;
  (* the two data addresses (both a0+0) *)
  addiu a Reg.at Reg.a0 0;
  addiu a Abi.xreg_cursor Abi.xreg_cursor 4;
  sw a Reg.at (-4) Abi.xreg_cursor;
  addiu a Reg.at Reg.a0 0;
  addiu a Abi.xreg_cursor Abi.xreg_cursor 4;
  sw a Reg.at (-4) Abi.xreg_cursor;
  (* the declared body *)
  lw a Reg.v0 0 Reg.a0;
  addiu a Reg.v0 Reg.v0 1;
  sw a Reg.v0 0 Reg.a0;
  i a (Insn.Jr Reg.ra);
  nop a;
  to_obj a

let hand_caller () =
  let a = Asm.create "prog" in
  let open Asm in
  func a "main" ~frame:8 ~saves:[ Reg.s0 ] (fun () ->
      la a Reg.s0 "$cell";
      li a Reg.t0 3;
      label a "$hc_loop";
      sw a Reg.t0 0 Reg.sp;
      move a Reg.a0 Reg.s0;
      jal a "hand_fn";
      lw a Reg.t0 0 Reg.sp;
      addiu a Reg.t0 Reg.t0 (-1);
      bgtz a Reg.t0 "$hc_loop";
      lw a Reg.v0 0 Reg.s0);
  dlabel a "$cell";
  word a 100;
  to_obj a

let test_hand_traced_routine () =
  (* Original: caller + plain routine; reference trace covers both. *)
  let orig_exe =
    Link.link ~name:"orig" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      [ shim_orig (); hand_caller (); hand_fn_plain () ]
  in
  let prog_lo = Exe.symbol orig_exe "prog::$text_start" in
  let morig = make_machine orig_exe in
  let refev = ref [] in
  let in_prog = ref false in
  morig.Machine.ref_tracer <-
    Some
      (fun kind addr ->
        if kind = 0 then in_prog := addr >= prog_lo;
        if !in_prog then refev := { kind; addr } :: !refev);
  run morig;
  (* Instrumented: epoxie handles the caller; the routine is hand-made. *)
  let imods, descs = Epoxie.instrument_modules [ hand_caller () ] in
  let instr_exe =
    Link.link ~name:"instr" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      ((shim () :: imods) @ [ hand_fn_traced (); Runtime.make Runtime.User ])
  in
  let minstr = make_machine instr_exe in
  run minstr;
  let table = Bbmap.build ~instrumented:instr_exe ~original:orig_exe descs in
  Bbmap.add_hand_traced table
    ~record_addr:(Exe.symbol instr_exe "$hand_rec")
    ~orig_addr:(Exe.symbol orig_exe "hand_fn")
    ~ninsns:5
    ~mems:[| (0, 4, true); (2, 4, false) |];
  (match Bbtable.find table (Exe.symbol instr_exe "$hand_rec") with
  | Some e -> check "flagged as hand-traced" true (Bbtable.is_hand e)
  | None -> Alcotest.fail "hand entry missing");
  let cursor = minstr.Machine.regs.(Abi.xreg_cursor) in
  let nwords = (cursor - buf_va) / 4 in
  let words =
    Array.init nwords (fun k ->
        Machine.read_phys_u32 minstr (Addr.kseg0_pa buf_va + (k * 4)))
  in
  let parsed = ref [] in
  let p = Parser.create ~kernel_bbs:table () in
  Parser.set_handlers p
    {
      Parser.on_inst = (fun addr _ _ -> parsed := { kind = 0; addr } :: !parsed);
      on_data =
        (fun addr _ _ is_load _ ->
          parsed := { kind = (if is_load then 1 else 2); addr } :: !parsed);
    };
  Parser.feed p words ~len:nwords;
  Parser.finish p;
  check_int "same result (103)" morig.Machine.regs.(Reg.v0)
    minstr.Machine.regs.(Reg.v0);
  check_int "result" 103 minstr.Machine.regs.(Reg.v0);
  compare_traces (List.rev !refev) (List.rev !parsed)

let tests =
  tests
  @ [ Alcotest.test_case "hand-traced routine" `Quick test_hand_traced_routine ]

(* ------------------------------------------------------------------ *)
(* The tracing runtime's stub uops against step-at-a-time: regressions
   for the two ways a stub must hand a traced reference back to the
   scalar uops.  The user runtime runs with its bookkeeping page and
   trace buffer at their user addresses, mapped through the TLB by a
   host-written refill handler; a syscall handler plays the kernel's
   trace flush by resetting the cursor. *)

let stub_vectors m =
  let open Insn in
  let buf_hi = Abi.user_buf_va lsr 16 and buf_lo = Abi.user_buf_va land 0xFFFF in
  let write base insns =
    List.iteri
      (fun i insn ->
        Machine.write_phys_u32 m
          (Addr.kseg0_pa base + (4 * i))
          (Encode.encode ~pc:(base + (4 * i)) insn))
      insns
  in
  (* refill: map user page vpn to frame 0x100 + (vpn land 0xff), dirty *)
  write Addr.utlb_vector
    [
      Mfc0 (Reg.k0, C0_entryhi);
      Shift (SRL, Reg.k0, Reg.k0, 12);
      Alui (ANDI, Reg.k0, Reg.k0, Imm 0xFF);
      Alui (ADDIU, Reg.k0, Reg.k0, Imm 0x100);
      Shift (SLL, Reg.k0, Reg.k0, 12);
      Alui (ORI, Reg.k0, Reg.k0, Imm (Tlb.entrylo_d lor Tlb.entrylo_v));
      Mtc0 (Reg.k0, C0_entrylo);
      Tlbwr;
      Mfc0 (Reg.k1, C0_epc);
      Jr Reg.k1;
      Rfe;
    ];
  (* the only other exception is the trace-flush syscall *)
  write Addr.general_vector
    [
      Lui (Abi.xreg_cursor, Imm buf_hi);
      Alui (ORI, Abi.xreg_cursor, Abi.xreg_cursor, Imm buf_lo);
      Mfc0 (Reg.k1, C0_epc);
      Alui (ADDIU, Reg.k1, Reg.k1, Imm 4);
      Jr Reg.k1;
      Rfe;
    ]

(* A counted loop of one load and one store, each traced by memtrace;
   with [evict], the trace buffer page's TLB entry is overwritten
   between the two. *)
let stub_prog ~evict =
  let a = Asm.create "main" in
  let open Asm in
  func a "main" ~frame:8 ~saves:[] (fun () ->
      li a Reg.t1 40;
      label a "loop";
      lw a Reg.t2 0 Reg.sp;
      addiu a Reg.t2 Reg.t2 1;
      if evict then begin
        li a Reg.t3 Abi.user_buf_va;
        mtc0 a Reg.t3 Insn.C0_entryhi;
        tlbp a;
        li a Reg.t3 (Abi.user_buf_va + 0x10_0000);
        mtc0 a Reg.t3 Insn.C0_entryhi;
        mtc0 a Reg.zero Insn.C0_entrylo;
        tlbwi a
      end;
      sw a Reg.t2 0 Reg.sp;
      addiu a Reg.t1 Reg.t1 (-1);
      bgtz a Reg.t1 "loop");
  to_obj a

let stub_run ~limit ~evict tier =
  let a = Asm.create ~no_instrument:true "shim" in
  let open Asm in
  global a "_start";
  label a "_start";
  li a Abi.xreg_book Abi.user_book_va;
  li a Abi.xreg_cursor Abi.user_buf_va;
  li a Abi.xreg_limit (Abi.user_buf_va + limit);
  li a Reg.sp (data_va + 0x2000);
  jal a "main";
  hcall a 0;
  let imods, _ = Epoxie.instrument_modules [ stub_prog ~evict ] in
  let exe =
    Link.link ~name:"stubs" ~text_base:text_va ~data_base:data_va
      ~entry:"_start"
      ((to_obj a :: imods) @ [ Runtime.make Runtime.User ])
  in
  let m = Machine.create ~cfg:{ Machine.default_config with Machine.tier } () in
  Machine.load_exe_phys m exe ~text_pa:(Addr.kseg0_pa text_va)
    ~data_pa:(Addr.kseg0_pa data_va);
  stub_vectors m;
  m.Machine.pc <- exe.Exe.entry;
  m.Machine.npc <- exe.Exe.entry + 4;
  m.Machine.hcall_handler <- Some (fun m code -> if code = 0 then Machine.halt m);
  run m;
  m

let stub_regression ~limit ~evict () =
  let ms = stub_run ~limit ~evict Uop.Step in
  let mf = stub_run ~limit ~evict Machine.default_config.Machine.tier in
  check "memory equal" true (Bytes.equal ms.Machine.mem mf.Machine.mem);
  check "fingerprint equal" true
    (Test_machine.bb_fingerprint ms = Test_machine.bb_fingerprint mf);
  check "stub uops ran" true (mf.Machine.stub_runs > 0);
  check "stub uops fell through" true (mf.Machine.stub_falls > 0);
  mf

let test_stub_full_buffer () =
  let m = stub_regression ~limit:16 ~evict:false () in
  check "trace-flush syscalls taken" true (m.Machine.c.Machine.syscalls > 20)

let test_stub_buffer_evicted () =
  let m = stub_regression ~limit:0x800 ~evict:true () in
  check "no flush" true (m.Machine.c.Machine.syscalls = 0);
  check "buffer page refilled after each eviction" true
    (m.Machine.c.Machine.utlb_misses >= 40)

let tests =
  tests
  @ [
      Alcotest.test_case "stub uops: bbtrace full-buffer flush path" `Quick
        test_stub_full_buffer;
      Alcotest.test_case "stub uops: trace-buffer TLB entry evicted" `Quick
        test_stub_buffer_evicted;
    ]
