(* The CLI is total: bad paths, absent sockets and traces analysed
   against the wrong workload end with a one-line diagnosis and a
   documented exit code (1 bad data, 2 usage or environment), never
   Cmdliner's internal-error exit 125. *)

let cli = Fixture.path "../bin/systrace_cli.exe"
let v3 = Fixture.path "fixture_v3.strc"

(* Run the CLI with [args]; returns (exit code, stderr), or with
   [~stdout:true] (exit code, stdout). *)
let run ?(stdout = false) args =
  let err = Filename.temp_file "systrace_cli" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    if stdout then Unix.create_process cli (Array.of_list (cli :: args)) null fd null
    else Unix.create_process cli (Array.of_list (cli :: args)) null null fd
  in
  Unix.close fd;
  Unix.close null;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, msg)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "systrace-%d-%s" (Unix.getpid ()) name)

(* Paths in a directory that exists: a failed slice must leave no file
   at its output, and a refused daemon no socket. *)
let slice_out = tmp_path "slice-out.strc"
let sock = tmp_path "serve.sock"

(* The v3 fixture's first 100 bytes: a header whose payload is cut
   short. *)
let truncated = tmp_path "truncated.strc"

let write_truncated () =
  let bytes = In_channel.with_open_bin v3 In_channel.input_all in
  Out_channel.with_open_bin truncated (fun oc ->
      output_string oc (String.sub bytes 0 100))

let cases () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat dir "systrace-absent" in
  let file = Filename.concat missing "x.strc" in
  [
    (2, [ "check"; file ]);
    (2, [ "analyze"; "egrep"; file ]);
    (2, [ "sweep"; "egrep"; file ]);
    (2, [ "slice"; file; "--from"; "0"; "--until"; "10"; "-o"; file ]);
    (2, [ "slice"; file; "-o"; slice_out ]);
    (1, [ "slice"; v3; "--from"; "10"; "--until"; "5"; "-o"; slice_out ]);
    (2, [ "dump"; "egrep"; "-o"; file ]);
    (2, [ "serve"; "--send"; v3; "--connect"; "unix:" ^ file ]);
    (2, [ "serve"; "--send"; v3; "--connect"; "tcp:localhost:1" ]);
    (2, [ "serve"; "--send"; v3; "--connect"; "tcp:127.0.0.1:99999" ]);
    (2, [ "serve"; "--stats"; "--ctl"; file ]);
    (2, [ "serve"; "--unix"; sock; "--workers"; "1000" ]);
    (2, [ "serve"; "--unix"; sock; "--pipeline"; "parse" ]);
    (2, [ "serve"; "--unix"; sock; "--pipeline"; "bogus" ]);
    (1, [ "analyze"; "gcc"; v3 ]);
    (1, [ "sweep"; "egrep"; v3; "--tlb"; "8" ]);
    (1, [ "sweep"; "egrep"; v3; "--sizes"; "0" ]);
    (1, [ "sweep"; "egrep"; v3; "--sizes"; "3"; "--lines"; "24" ]);
    (1, [ "disasm"; "egrep"; "--symbol"; "nosuch" ]);
    (1, [ "analyze"; "egrep"; truncated ]);
    (1, [ "sweep"; "egrep"; truncated ]);
    (1, [ "slice"; truncated; "-o"; slice_out ]);
    (2, [ "slice"; v3; "--from"; "0"; "--until"; "10"; "-o"; "/dev/full" ]);
    (2, [ "check"; dir ]);
    (2, [ "analyze"; "egrep"; dir ]);
  ]

let test_bad_invocations () =
  write_truncated ();
  Fun.protect ~finally:(fun () -> Sys.remove truncated) @@ fun () ->
  List.iter
    (fun (expect, args) ->
      (try Sys.remove slice_out with Sys_error _ -> ());
      let code, msg = run args in
      let what = String.concat " " args in
      let msg = String.trim msg in
      Alcotest.(check int) (what ^ ": exit code") expect code;
      List.iter
        (fun path ->
          if List.mem path args then
            Alcotest.(check bool) (what ^ ": no file left at " ^ path) false
              (Sys.file_exists path))
        [ slice_out; sock ];
      Alcotest.(check bool) (what ^ ": stderr says why") true (msg <> "");
      Alcotest.(check bool) (what ^ ": one line on stderr") false
        (String.contains msg '\n');
      (* an uncaught exception exits 2 too, so the code alone cannot
         tell it from a usage error *)
      Alcotest.(check bool) (what ^ ": not an uncaught exception") false
        (String.starts_with ~prefix:"Fatal error" msg))
    (cases ())

(* The traced profile counts the kernel's trace-buffer work too: the
   drain's copy loop is the routine that found the kernel loop stubs. *)
let test_profile_traced () =
  let code, out = run ~stdout:true [ "profile"; "egrep"; "--traced" ] in
  Alcotest.(check int) "exit code" 0 code;
  let has s =
    let n = String.length s in
    let rec at i = i + n <= String.length out && (String.sub out i n = s || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "traced header" true (has "(Ultrix, traced):\n");
  Alcotest.(check bool) "lists the drain copy loop" true (has "ktraceops::$kd_loop")

(* Removed flags are refused by Cmdliner before anything runs: [dump] is
   the one command that stores a trace, always as format v3, a sweep
   runs on one domain, and [run] and [validate] run at the default
   interpreter tier. *)
let test_removed_flags () =
  List.iter
    (fun args ->
      let code, _ = run args in
      Alcotest.(check int) (String.concat " " args ^ ": exit code") 124 code)
    [
      [ "dump"; "egrep"; "-z" ];
      [ "trace"; "egrep"; "-z" ];
      [ "trace"; "egrep"; "--trace-out"; tmp_path "trace-out.strc" ];
      [ "sweep"; "egrep"; v3; "-j"; "2" ];
      [ "run"; "tomcatv"; "--interp-tier"; "step" ];
      [ "validate"; "liv"; "--interp-tier"; "bcache" ];
    ]

let tests =
  [
    Alcotest.test_case "bad invocations exit 1 or 2 with a message" `Quick test_bad_invocations;
    Alcotest.test_case "profile --traced lists the drain copy" `Quick test_profile_traced;
    Alcotest.test_case "removed flags exit 124" `Quick test_removed_flags;
  ]
