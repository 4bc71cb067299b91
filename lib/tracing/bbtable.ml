(* Static basic-block lookup table.

   Keyed by the basic-block record address that appears in the trace — the
   address of the first instruction of the *instrumented* block body (the
   return address bbtrace captures).  Each entry carries the information the
   trace parsing library needs to reconstruct the reference stream of the
   *original* binary: the block's original address, its instruction count,
   and the position/size/direction of every memory reference.

   Entries can be flagged: IDLE blocks drive the idle-loop instruction
   counters used to estimate I/O time (paper, sections 3.5 and 5.1). *)

type entry = {
  orig_addr : int;                    (* block address in the original binary *)
  ninsns : int;
  mems : (int * int * bool) array;    (* (position, bytes, is_load) *)
  flags : int;
}

let flag_idle = 1

let is_idle e = e.flags land flag_idle <> 0

type t = {
  entries : (int, entry) Hashtbl.t;
  mutable total_blocks : int;
}

let create () = { entries = Hashtbl.create 1024; total_blocks = 0 }

let add t ~record_addr entry =
  if Hashtbl.mem t.entries record_addr then
    failwith
      (Printf.sprintf "Bbtable.add: duplicate record address 0x%x" record_addr);
  Hashtbl.add t.entries record_addr entry;
  t.total_blocks <- t.total_blocks + 1

let find t record_addr = Hashtbl.find_opt t.entries record_addr

(* Allocation-free lookup for the parser's hot loop. *)
let find_exn t record_addr = Hashtbl.find t.entries record_addr

let mem t record_addr = Hashtbl.mem t.entries record_addr

let size t = t.total_blocks

let iter f t = Hashtbl.iter f t.entries

(* Mark every block whose ORIGINAL address falls in [lo, hi) with [flag];
   used to tag the kernel idle loop after linking. *)
let flag_orig_range t ~lo ~hi flag =
  let updates =
    Hashtbl.fold
      (fun k e acc ->
        if e.orig_addr >= lo && e.orig_addr < hi then (k, e) :: acc else acc)
      t.entries []
  in
  List.iter
    (fun (k, e) -> Hashtbl.replace t.entries k { e with flags = e.flags lor flag })
    updates
