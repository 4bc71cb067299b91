(* Client side of the serve protocol: blocking sockets, and per stream
   one 1 MiB byte buffer that [Wire]'s frame writer fills with headers
   and words and writes to the socket whenever it is full, so a stream
   of many small sends still hits the kernel in large batches and a
   flush copies nothing into a fresh string. *)

module Tracefile = Systrace_tracing.Tracefile

type addr = Unix_path of string | Tcp of string * int

let connect = function
  | Unix_path p ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX p)
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
     with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
    fd

(* One [write] call at a time, so an EINTR means no byte of that call
   went out and the retry resends none twice. *)
let rec write_all fd b pos len =
  if len > 0 then begin
    match Unix.single_write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len
  end

type stream = { fd : Unix.file_descr; w : Wire.writer }

let start fd =
  {
    fd;
    w =
      Wire.writer (Bytes.create (1 lsl 20)) ~flush:(fun b n ->
          write_all fd b 0 n);
  }

let send st ws ~off ~len = Wire.write st.w ws ~off ~len

type reply = {
  r_words : int;
  r_frames : int;
  r_dropped_words : int;
  r_dropped_frames : int;
  r_diagnoses : int;
}

(* The reply is one short line: read until its newline or EOF. *)
let read_line_close fd =
  let one = Bytes.create 256 in
  let rec go acc =
    match Unix.read fd one 0 256 with
    | 0 -> acc
    | n ->
      let chunk = Bytes.sub_string one 0 n in
      if String.contains chunk '\n' then acc ^ chunk else go (acc ^ chunk)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
    | exception Unix.Unix_error _ -> acc
  in
  let line = go "" in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match line with "" -> None | s -> Some (String.trim s)

let parse_reply line =
  try
    Scanf.sscanf line
      "ok words=%d frames=%d dropped_words=%d dropped_frames=%d diagnoses=%d"
      (fun w f dw df dg ->
        Some
          {
            r_words = w;
            r_frames = f;
            r_dropped_words = dw;
            r_dropped_frames = df;
            r_diagnoses = dg;
          })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let finish_stream st =
  match Wire.close st.w with
  | () ->
    (try Unix.shutdown st.fd Unix.SHUTDOWN_SEND
     with Unix.Unix_error _ -> ());
    Option.bind (read_line_close st.fd) parse_reply
  | exception e ->
    (try Unix.close st.fd with Unix.Unix_error _ -> ());
    raise e

let run addr ws =
  let st = start (connect addr) in
  send st ws ~off:0 ~len:(Array.length ws);
  finish_stream st

let run_file addr file =
  let st = start (connect addr) in
  let () =
    Tracefile.fold_words file ~init:() ~f:(fun () ws ~len ->
        send st ws ~off:0 ~len)
  in
  finish_stream st

let send_raw addr bytes =
  let fd = connect addr in
  (try write_all fd (Bytes.unsafe_of_string bytes) 0 (String.length bytes)
   with Unix.Unix_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  read_line_close fd
