(* Mahler-style instrumentation: the Tunix/Titan system (paper, §3.4).

   On the Titan, all compilers went through the Mahler intermediate
   language, so the tracing system could simply RESERVE registers at code
   generation time — no register stealing, no shadow slots — and the
   extended linker inserted the trace code.  Two further differences from
   epoxie:

   - the basic-block record carries the block's length inline ("the basic
     block records were written into the trace along with the traced
     addresses"), making the trace bigger — §3.5 explains why the
     DECstation systems switched to one-word records with a static lookup
     table;
   - because the registers are reserved, trace writes are short inline
     sequences rather than calls: there is no $ra save/restore dance and
     no hazard cases at all.

   Register convention (reserved, enforced): $t8 = cursor, $t9 = limit
   (unused by the inline writer; kept for parity), $at = scratch.

   The [parse] function is the corresponding small trace-parsing library
   for the Tunix record format. *)

open Systrace_isa
open Systrace_tracing
open Rewrite

exception Reserved_register_used of string

type bb_desc = Epoxie.bb_desc

let cursor = Abi.xreg_cursor

(* Enforce the compiler-side contract: reserved registers never appear in
   code compiled for a Tunix-style traced system. *)
let check_reserved (obj : Objfile.t) =
  List.iter
    (fun insn ->
      let touches =
        List.exists
          (fun r -> List.mem r Abi.stolen || r = Reg.at)
          (Insn.uses insn @ Insn.defs insn)
      in
      if touches then
        raise
          (Reserved_register_used
             (Printf.sprintf "%s: %s uses a reserved register" obj.name
                (Insn.to_string insn))))
    (Objfile.insns obj)

(* Inline trace write of [reg]'s value. *)
let emit_word_of_reg reg =
  [
    TInsn (Insn.Alui (ADDIU, cursor, cursor, Imm 4), false);
    TInsn (Insn.Store (W, reg, cursor, Imm (-4)), false);
  ]

let wrap_mem_inline (m : Insn.t) : titem list =
  match Insn.mem_base_offset m with
  | Some (base, Insn.Imm off) ->
    (TInsn (Insn.Alui (ADDIU, Reg.at, base, Imm off), false)
     :: emit_word_of_reg Reg.at)
    @ [ TInsn (m, true) ]
  | _ -> [ TInsn (m, true) ]

let instrument_obj (obj : Objfile.t) : Objfile.t * bb_desc list =
  if obj.Objfile.no_instrument then (obj, [])
  else begin
    check_reserved obj;
    let blocks = Bb.analyze obj.text in
    let starts = Hashtbl.create 64 in
    List.iteri (fun k (b : Bb.block) -> Hashtbl.replace starts b.Bb.start (k, b)) blocks;
    let descs = ref [] in
    let out = ref [] in
    let emit x = out := x :: !out in
    let idx = ref 0 in
    let pending_control = ref false in
    List.iter
      (function
        | Objfile.Label l -> emit (TLabel l)
        | Objfile.Insn insn ->
          let in_slot = !pending_control in
          pending_control := Insn.is_control insn;
          (match Hashtbl.find_opt starts !idx with
          | Some (k, b) when not in_slot ->
            let anchor = Printf.sprintf "$mbb%d" k in
            (* record: [address of block, length] — two words *)
            emit (TLabel anchor);
            emit (TInsn (Insn.Lui (Reg.at, Hi anchor), false));
            emit (TInsn (Insn.Alui (ORI, Reg.at, Reg.at, Lo anchor), false));
            List.iter emit (emit_word_of_reg Reg.at);
            emit (TInsn (Insn.Alui (ADDIU, Reg.at, Reg.zero, Imm b.Bb.len), false));
            List.iter emit (emit_word_of_reg Reg.at);
            descs :=
              {
                Epoxie.anchor;
                orig_index = b.Bb.start;
                ninsns = b.Bb.len;
                mems =
                  Array.of_list b.Bb.mems
                  |> Array.map (fun (m : Bb.mem_ref) ->
                         (m.Bb.pos, m.Bb.bytes, m.Bb.is_load));
              }
              :: !descs
          | _ -> ());
          (if Insn.is_mem insn then begin
             (* Compiler contract: Mahler never schedules a memory
                instruction into a delay slot when compiling for a traced
                system (code generation is under its control, unlike
                epoxie's post-hoc rewriting). *)
             if in_slot then
               raise
                 (Reserved_register_used
                    (Printf.sprintf
                       "%s: memory instruction in delay slot (recompile \
                        without slot scheduling for Tunix): %s"
                       obj.name (Insn.to_string insn)));
             List.iter emit (wrap_mem_inline insn)
           end
           else emit (TInsn (insn, true)));
          incr idx)
      obj.text;
    let text = untag_items (List.rev !out) in
    (Objfile.validate { obj with text }, List.rev !descs)
  end

let instrument_modules mods =
  let results = List.map (fun m -> (m.Objfile.name, instrument_obj m)) mods in
  ( List.map (fun (_, (m, _)) -> m) results,
    List.map (fun (name, (_, d)) -> (name, d)) results )

(* ------------------------------------------------------------------ *)
(* Tunix trace parsing: records are (anchor address, length) pairs
   followed by the block's data addresses.  The table maps anchors to the
   static block info, as for epoxie; the inline length is validated
   against it — part of the format's redundancy. *)

exception Corrupt of string

type stats = {
  mutable insts : int;
  mutable datas : int;
  mutable records : int;
}

let parse ~(table : Bbtable.t) (words : int array)
    ~(on_inst : int -> unit) ~(on_data : int -> bool -> unit) : stats =
  let s = { insts = 0; datas = 0; records = 0 } in
  let n = Array.length words in
  let pos = ref 0 in
  while !pos < n do
    let rec_addr = words.(!pos) in
    (match Bbtable.find table rec_addr with
    | None ->
      raise
        (Corrupt (Printf.sprintf "word %d: 0x%x is not a block record" !pos rec_addr))
    | Some e ->
      if !pos + 1 >= n then raise (Corrupt "truncated record");
      let len = words.(!pos + 1) in
      if len <> e.Bbtable.ninsns then
        raise
          (Corrupt
             (Printf.sprintf "word %d: length %d does not match table (%d)"
                !pos len e.Bbtable.ninsns));
      s.records <- s.records + 1;
      pos := !pos + 2;
      let next = ref 0 in
      Array.iter
        (fun (p, _bytes, is_load) ->
          while !next <= p do
            on_inst (e.Bbtable.orig_addr + (4 * !next));
            s.insts <- s.insts + 1;
            incr next
          done;
          if !pos >= n then raise (Corrupt "truncated data words");
          on_data words.(!pos) is_load;
          s.datas <- s.datas + 1;
          incr pos)
        e.Bbtable.mems;
      while !next < e.Bbtable.ninsns do
        on_inst (e.Bbtable.orig_addr + (4 * !next));
        s.insts <- s.insts + 1;
        incr next
      done)
  done;
  s
