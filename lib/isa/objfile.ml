(* Relocatable object modules.

   A module keeps its text as a list of items (instructions interleaved with
   labels) and its data as a list of data items.  Instructions retain
   symbolic operands; symbols and "relocations" are therefore structural,
   which is exactly the property epoxie exploits: rewriting object code at
   link time can distinguish every use of an address from a coincidentally
   similar constant, and all address correction happens statically. *)

module SSet = Set.Make (String)

type titem =
  | Label of string
  | Insn of Insn.t

type ditem =
  | Dlabel of string
  | Dword of int              (* 32-bit literal *)
  | Daddr of string * int     (* 32-bit address of symbol + addend *)
  | Dbytes of string          (* raw bytes *)
  | Dspace of int             (* zero-filled bytes *)
  | Dalign of int             (* align to given byte boundary *)

type t = {
  name : string;
  text : titem list;
  data : ditem list;
  globals : SSet.t;          (* symbols visible to other modules *)
  protected : SSet.t;        (* functions epoxie must not instrument *)
  no_instrument : bool;      (* whole module excluded from instrumentation *)
}

let insns t =
  List.filter_map (function Insn i -> Some i | Label _ -> None) t.text

let insn_count t =
  List.fold_left (fun n -> function Insn _ -> n + 1 | Label _ -> n) 0 t.text

(* Structural well-formedness checks shared by the assembler and epoxie:
   - no duplicate labels,
   - no control-transfer instruction in a delay slot,
   - no label between a control instruction and its delay slot,
   - text does not end with an unfilled delay slot. *)
let validate t =
  let seen = Hashtbl.create 64 in
  let check_dup l =
    if Hashtbl.mem seen l then
      failwith (Printf.sprintf "%s: duplicate label %S" t.name l);
    Hashtbl.add seen l ()
  in
  List.iter (function Label l -> check_dup l | Insn _ -> ()) t.text;
  List.iter (function Dlabel l -> check_dup l | _ -> ()) t.data;
  let rec walk = function
    | [] -> ()
    | Insn i :: rest when Insn.is_control i -> (
      match rest with
      | Insn d :: rest' ->
        if Insn.is_control d then
          failwith
            (Printf.sprintf "%s: control instruction in delay slot: %s"
               t.name (Insn.to_string d));
        walk rest'
      | Label l :: _ ->
        failwith
          (Printf.sprintf "%s: label %S lands in a delay slot" t.name l)
      | [] ->
        failwith
          (Printf.sprintf "%s: text ends with an unfilled delay slot" t.name))
    | _ :: rest -> walk rest
  in
  walk t.text;
  t
