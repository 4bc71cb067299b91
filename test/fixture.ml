(* The files test/dune's deps put beside the test binary (the trace
   fixtures, and the CLI at ../bin), found from the binary's own
   location so that the suite runs from any working directory. *)
let path name = Filename.concat (Filename.dirname Sys.executable_name) name
