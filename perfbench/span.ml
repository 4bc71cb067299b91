(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer, recorded from the benchmark side of
   the boundary: name ("layer.call"), start, end, the enclosing span on
   the same thread, the id of the operation it serves, and the minor-heap
   words the calling domain allocated meanwhile.  Spans are appended to
   an in-memory log and only summarised or written out when the run
   ends, so recording costs two clock reads, two allocation-counter
   reads and one small record per call.

   Self time is a span's duration minus the durations of its direct
   children.  Recording is off until [enabled] is set; every entry point is a
   no-op then, so the untraced run pays one branch per boundary. *)

type t = {
  name : string;
  job : int;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
  minor0 : float;
  mutable minor : float;  (** minor words allocated during the span *)
}

let enabled = ref false
let log : t array ref = ref [||]
let count = ref 0
let lock = Mutex.create ()

(* innermost open span per thread *)
let current : (int, int) Hashtbl.t = Hashtbl.create 8

let push s =
  if !count = Array.length !log then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !log 0 bigger 0 !count;
    log := bigger
  end;
  !log.(!count) <- s;
  incr count;
  !count - 1

let enter ~job name =
  if not !enabled then -1
  else begin
    let tid = Thread.id (Thread.self ()) in
    let minor0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    Mutex.lock lock;
    let parent = Option.value ~default:(-1) (Hashtbl.find_opt current tid) in
    let id =
      push { name; job; parent; start; stop = start; minor0; minor = 0.0 }
    in
    Hashtbl.replace current tid id;
    Mutex.unlock lock;
    id
  end

let leave id =
  if id >= 0 then begin
    let stop = Unix.gettimeofday () in
    let minor1 = Gc.minor_words () in
    Mutex.lock lock;
    let s = !log.(id) in
    s.stop <- stop;
    s.minor <- minor1 -. s.minor0;
    let tid = Thread.id (Thread.self ()) in
    if s.parent >= 0 then Hashtbl.replace current tid s.parent
    else Hashtbl.remove current tid;
    Mutex.unlock lock
  end

let with_ ~job name f =
  if not !enabled then f ()
  else begin
    let id = enter ~job name in
    match f () with
    | v ->
      leave id;
      v
    | exception e ->
      leave id;
      raise e
  end

(** Per-name totals over the whole log. *)
type total = {
  calls : int;
  total_s : float;  (** summed durations *)
  self_s : float;  (** summed self times *)
  self_minor : float;  (** minor words allocated outside child spans *)
}

let totals () : (string, total) Hashtbl.t =
  let n = !count in
  let child_s = Array.make n 0.0 and child_minor = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !log.(i) in
    if s.parent >= 0 then begin
      child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start);
      child_minor.(s.parent) <- child_minor.(s.parent) +. s.minor
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !log.(i) in
    let dur = s.stop -. s.start in
    let t =
      Option.value
        ~default:
          { calls = 0; total_s = 0.0; self_s = 0.0; self_minor = 0.0 }
        (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name
      {
        calls = t.calls + 1;
        total_s = t.total_s +. dur;
        self_s = t.self_s +. (dur -. child_s.(i));
        self_minor = t.self_minor +. (s.minor -. child_minor.(i));
      }
  done;
  tbl

(** Summed durations of the outermost spans that are not frames: those
    whose parent is a [frame] span, or that have none.  On one thread
    they never overlap, so this is the time they cover. *)
let outermost ~frame =
  let sum = ref 0.0 in
  for i = 0 to !count - 1 do
    let s = !log.(i) in
    if (not (frame s.name)) && (s.parent < 0 || frame !log.(s.parent).name) then
      sum := !sum +. (s.stop -. s.start)
  done;
  !sum

(** Write every span, one tab-separated line each, start times relative
    to the first span. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tparent\tjob\tname\tstart_s\tend_s\tminor_words\n";
      let t0 = if !count > 0 then !log.(0).start else 0.0 in
      for i = 0 to !count - 1 do
        let s = !log.(i) in
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.0f\n" i s.parent s.job
          s.name (s.start -. t0) (s.stop -. t0) s.minor
      done)
