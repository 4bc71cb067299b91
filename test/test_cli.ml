(* The CLI is total: bad paths, absent sockets and traces analysed
   against the wrong workload end with a one-line diagnosis and a
   documented exit code (1 bad data, 2 usage or environment), never
   Cmdliner's internal-error exit 125. *)

let cli = "../bin/systrace_cli.exe"

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

let cases () =
  let dir = Filename.get_temp_dir_name () in
  let missing = Filename.concat dir "systrace-absent" in
  let file = Filename.concat missing "x.strc" in
  [
    (2, [ "check"; file ]);
    (2, [ "analyze"; "egrep"; file ]);
    (2, [ "sweep"; "egrep"; file ]);
    (2, [ "slice"; file; "--from"; "0"; "--until"; "10"; "-o"; file ]);
    (2, [ "trace"; "egrep"; "--trace-out"; file ]);
    (2, [ "serve"; "--send"; "fixture_v3.strc"; "--connect"; "unix:" ^ file ]);
    (2, [ "serve"; "--send"; "fixture_v3.strc"; "--connect"; "tcp:localhost:1" ]);
    (2, [ "serve"; "--send"; "fixture_v3.strc"; "--connect"; "tcp:127.0.0.1:99999" ]);
    (2, [ "serve"; "--stats"; "--ctl"; file ]);
    (2, [ "serve"; "--unix"; file; "--queue-slots"; "1" ]);
    (2, [ "serve"; "--unix"; file; "--slot-words"; "0" ]);
    (1, [ "analyze"; "gcc"; "fixture_v3.strc" ]);
    (1, [ "sweep"; "egrep"; "fixture_v3.strc"; "--tlb"; "8" ]);
    (1, [ "sweep"; "egrep"; "fixture_v3.strc"; "--sizes"; "0" ]);
    (1, [ "sweep"; "egrep"; "fixture_v3.strc"; "--sizes"; "3";
          "--lines"; "24" ]);
    (1, [ "disasm"; "egrep"; "--symbol"; "nosuch" ]);
    (2, [ "slice"; "fixture_v3.strc"; "--from"; "0"; "--until"; "10"; "-o"; "/dev/full" ]);
    (2, [ "check"; dir ]);
    (2, [ "analyze"; "egrep"; dir ]);
  ]

let test_bad_invocations () =
  List.iter
    (fun (expect, args) ->
      let code, msg = run args in
      let what = String.concat " " args in
      let msg = String.trim msg in
      Alcotest.(check int) (what ^ ": exit code") expect code;
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

let tests =
  [
    Alcotest.test_case "bad invocations exit 1 or 2 with a message" `Quick test_bad_invocations;
    Alcotest.test_case "profile --traced lists the drain copy" `Quick test_profile_traced;
  ]
