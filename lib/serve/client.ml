(* Client side of the serve protocol: blocking sockets, words buffered
   into frames in a Buffer and flushed in ~1 MiB writes so a stream of
   many small sends still hits the kernel in large batches. *)

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

let rec write_all fd s pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
  end

type stream = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  flush_bytes : int;
}

(* The largest frame one [send] range is split into. *)
let frame_words = 65536

let flush st =
  if Buffer.length st.buf > 0 then begin
    write_all st.fd (Buffer.contents st.buf) 0 (Buffer.length st.buf);
    Buffer.clear st.buf
  end

let start fd =
  let st = { fd; buf = Buffer.create (1 lsl 20); flush_bytes = 1 lsl 20 } in
  Wire.put_magic st.buf;
  st

let send st ws ~off ~len =
  let sent = ref 0 in
  while !sent < len do
    let k = min frame_words (len - !sent) in
    Wire.put_frame_header st.buf k;
    Wire.put_words st.buf ws ~off:(off + !sent) ~len:k;
    sent := !sent + k;
    if Buffer.length st.buf >= st.flush_bytes then flush st
  done

type reply = {
  r_words : int;
  r_frames : int;
  r_dropped_words : int;
  r_dropped_frames : int;
  r_diagnoses : int;
}

let read_line_close fd =
  let b = Buffer.create 128 in
  let one = Bytes.create 256 in
  let rec go () =
    match Unix.read fd one 0 256 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b one 0 n;
      if not (String.contains (Bytes.sub_string one 0 n) '\n') then go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match Buffer.contents b with "" -> None | s -> Some (String.trim s)

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
  Wire.put_end st.buf;
  match flush st with
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
  (try write_all fd bytes 0 (String.length bytes)
   with Unix.Unix_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  read_line_close fd
