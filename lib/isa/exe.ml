(* Linked executable images.

   Data and BSS are merged: [Dspace] regions are zero-filled in the data
   image, so loading an executable is a matter of copying [text] and [data]
   into (virtual or physical) memory at their bases. *)

type t = {
  name : string;
  entry : int;
  text_base : int;
  text : int array;            (* encoded instruction words *)
  text_insns : Insn.t array;   (* resolved ASTs, for disassembly and tools *)
  data_base : int;
  data : Bytes.t;
  symbols : (string, int) Hashtbl.t;
  (* Ultrix marks traced programs with a flag in the executable image
     (paper, section 3.6). *)
  traced : bool;
}

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some a -> a
  | None -> failwith (Printf.sprintf "%s: no such symbol %S" t.name name)

let symbol_opt t name = Hashtbl.find_opt t.symbols name

let text_size_bytes t = Array.length t.text * 4
let text_limit t = t.text_base + text_size_bytes t
let disassemble ?(lo = 0) ?(hi = max_int) t =
  let b = Buffer.create 1024 in
  let rev = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name addr ->
      if not (Hashtbl.mem rev addr) then Hashtbl.add rev addr name)
    t.symbols;
  Array.iteri
    (fun idx insn ->
      let addr = t.text_base + (idx * 4) in
      if addr >= lo && addr < hi then begin
        (match Hashtbl.find_opt rev addr with
        | Some l -> Buffer.add_string b (Printf.sprintf "%s:\n" l)
        | None -> ());
        Buffer.add_string b
          (Printf.sprintf "  %08x:  %s\n" addr (Insn.to_string insn))
      end)
    t.text_insns;
  Buffer.contents b
