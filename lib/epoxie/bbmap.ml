(* Build the static basic-block lookup table for a traced program.

   epoxie's block descriptors refer to labels; after both the instrumented
   and the original versions of the program are linked, the labels resolve
   to the two addresses the trace parser needs: the record address (in the
   instrumented binary) and the original block address.  Keeping all
   address correction in the linker is the point of rewriting at link time
   (paper, §3.2). *)

open Systrace_isa
open Systrace_tracing

(* [build ~instrumented ~original descs] makes the lookup table for a
   program whose modules were instrumented with [Epoxie.instrument_modules]
   and then linked twice: once instrumented, once original, with the same
   module names. *)
let build ~(instrumented : Exe.t) ~(original : Exe.t)
    (descs : (string * Epoxie.bb_desc list) list) : Bbtable.t =
  let table = Bbtable.create () in
  List.iter
    (fun (mname, ds) ->
      let orig_base = Exe.symbol original (mname ^ "::$text_start") in
      List.iter
        (fun (d : Epoxie.bb_desc) ->
          let record_addr =
            Exe.symbol instrumented (mname ^ "::" ^ d.anchor)
          in
          Bbtable.add table ~record_addr
            {
              Bbtable.orig_addr = orig_base + (d.orig_index * 4);
              ninsns = d.ninsns;
              mems = d.mems;
              flags = 0;
            })
        ds)
    descs;
  table
