(* Trace parsing library.

   Consumes the contents of the in-kernel trace buffer (streamed in chunks,
   one per trace-analysis phase) and reconstructs the exact interleaved
   instruction and data reference stream of the original, uninstrumented
   binaries, using the static basic-block tables.

   Sources and their framing:
     - Kernel trace is written directly into the buffer.  Nested exceptions
       can interrupt a kernel block mid-stream; the uninstrumented exception
       stubs bracket the nested activity with EXC_ENTER/EXC_EXIT markers and
       the parser keeps a stack of in-progress blocks (paper, section 3.3:
       "the trace-analysis system must correctly handle situations when
       arbitrary kernel activity is interrupted by an exception").
     - User trace arrives in DRAIN blocks copied from per-process buffers
       whenever the kernel is entered.  A process's block can be split
       across drains (an exception can land between two memory references),
       so per-pid parse state persists across drains.

   Defensive tracing (paper, section 4.3): every block record must exist in
   the static table of the right address space; data words must arrive
   exactly where the static record promises memory references.  Violations
   are surfaced two ways:
     - strict mode (the default) raises [Corrupt] with the offending word
       and position, discarding the rest of the phase — right for traces
       that are supposed to be pristine;
     - recovery mode ([create ~recover:true]) builds a structured {!error}
       (word index, source, expected vs got, enclosing drain/exception
       state), records it, abandons the suspect source state,
       resynchronizes at the next marker word (the only words
       identifiable without parser state, since they live in a reserved
       address slice), counts the skipped words per source, and keeps
       parsing — one bad word no longer discards a whole trace-analysis
       phase.

   The word loop is the innermost loop of every reconstruct-and-feed-memsim
   experiment, so [feed] is allocation-free: open blocks are tracked with
   a sentinel entry instead of an [option], block records are looked up
   with the non-allocating [Bbtable.find_exn], the innermost kernel source
   is cached in a mutable field instead of read through the exception
   stack, and marker words are dispatched on their raw kind field without
   building a [Format_.marker] value.  There used to be a second,
   variant-based "debug" word loop selected by [create ~debug:true ()];
   markers are a fraction of a percent of any real trace (38 in the 68k
   egrep capture), so the two paths were indistinguishable in benchmarks
   and the duplicate was folded away — the variant dispatch survives as a
   qcheck oracle in the test suite, checked equivalent to the raw-kind
   dispatch over every marker word. *)

exception Corrupt of string

(* Where a trace word was attributed when a violation fired. *)
type source =
  | Kernel of int  (* exception-nesting depth, 0 = base level *)
  | User of int    (* pid *)
  | Stream         (* framing: markers, drain counts, END *)

type error = {
  at : int;          (* word index in the whole fed stream *)
  source : source;
  expected : string; (* what the format promised at this point *)
  got : int;         (* the offending word (or pid for drain errors) *)
  in_drain : int;    (* enclosing drain's pid, -1 when outside a drain *)
  exc_depth : int;   (* kernel exception-nesting depth at the violation *)
  message : string;  (* the strict-mode [Corrupt] message *)
}

(* Internal: recovery mode throws the structured record to the word loop,
   which logs it and resynchronizes; strict mode raises [Corrupt]
   directly from the check site (zero cost on the hot path). *)
exception Parse_error of error

let source_name = function
  | Kernel d -> Printf.sprintf "kernel (exc depth %d)" d
  | User pid -> Printf.sprintf "pid %d" pid
  | Stream -> "stream framing"

let describe e =
  Printf.sprintf "%s [source: %s; expected %s; got 0x%x%s]" e.message
    (source_name e.source) e.expected e.got
    (if e.in_drain >= 0 then Printf.sprintf "; inside drain for pid %d" e.in_drain
     else "")

type handlers = {
  on_inst : int -> int -> bool -> unit;
  (* addr, pid, kernel *)
  on_data : int -> int -> bool -> bool -> int -> unit;
  (* addr, pid, kernel, is_load, bytes *)
}

let null_handlers = { on_inst = (fun _ _ _ -> ()); on_data = (fun _ _ _ _ _ -> ()) }

type stats = {
  mutable words : int;
  mutable bb_records : int;
  mutable markers : int;
  mutable insts : int;
  mutable user_insts : int;
  mutable kernel_insts : int;
  mutable datas : int;
  mutable user_datas : int;
  mutable kernel_datas : int;
  mutable idle_insts : int;
  mutable drains : int;
  mutable pid_switches : int;
  mutable exc_markers : int;
  mutable max_exc_depth : int;
  mutable mode_transitions : int;
  mutable analysis_mode_words : int;  (* "dirt" indicator *)
  mutable ended : bool;
  mutable parse_errors : int;    (* diagnoses recorded in recovery mode *)
  mutable skipped_words : int;   (* words discarded while resynchronizing *)
}

let fresh_stats () =
  {
    words = 0;
    bb_records = 0;
    markers = 0;
    insts = 0;
    user_insts = 0;
    kernel_insts = 0;
    datas = 0;
    user_datas = 0;
    kernel_datas = 0;
    idle_insts = 0;
    drains = 0;
    pid_switches = 0;
    exc_markers = 0;
    max_exc_depth = 0;
    mode_transitions = 0;
    analysis_mode_words = 0;
    ended = false;
    parse_errors = 0;
    skipped_words = 0;
  }

(* Sentinel for "no block open" — compared with physical equality so the
   hot loop never allocates or matches an [option]. *)
let no_entry : Bbtable.entry =
  { Bbtable.orig_addr = -1; ninsns = 0; mems = [||]; flags = 0 }

(* Parse state of one trace source (the kernel at one exception-nesting
   level, or one user process). *)
type src = {
  mutable entry : Bbtable.entry;  (* == [no_entry] when no block is open *)
  mutable next_pos : int;      (* next instruction position to emit *)
  mutable mem_idx : int;       (* next memory reference index *)
}

let fresh_src () = { entry = no_entry; next_pos = 0; mem_idx = 0 }

type t = {
  kernel_bbs : Bbtable.t;
  user_bbs : (int, Bbtable.t) Hashtbl.t;   (* pid -> table *)
  mutable kernel_stack : src list;          (* innermost first *)
  mutable kernel_top : src;                 (* == List.hd kernel_stack *)
  users : (int, src) Hashtbl.t;
  mutable cur_pid : int;
  mutable mode : int;
  mutable h : handlers;
  s : stats;
  (* drain framing *)
  mutable drain_pid : int;      (* -1 = not in a drain *)
  mutable drain_left : int;     (* -2: expecting count word *)
  (* the drain's source and block table, resolved once per drain *)
  mutable drain_src : src;
  mutable drain_bbs : Bbtable.t option;  (* None: pid not registered *)
  (* recovery mode *)
  recover : bool;
  mutable errors_rev : error list;
  skipped : (source, int) Hashtbl.t;
  mutable resync : bool;        (* discarding words until the next marker *)
  mutable resync_source : source;
}

let create ?(recover = false) ~kernel_bbs () =
  let base = fresh_src () in
  {
    kernel_bbs;
    user_bbs = Hashtbl.create 8;
    kernel_stack = [ base ];
    kernel_top = base;
    users = Hashtbl.create 8;
    cur_pid = -1;
    mode = 0;
    h = null_handlers;
    s = fresh_stats ();
    drain_pid = -1;
    drain_left = 0;
    drain_src = base;
    drain_bbs = None;
    recover;
    errors_rev = [];
    skipped = Hashtbl.create 8;
    resync = false;
    resync_source = Stream;
  }

let set_handlers t h = t.h <- h

let register_pid t ~pid bbs =
  Hashtbl.replace t.user_bbs pid bbs;
  if pid = t.drain_pid then t.drain_bbs <- Some bbs

let stats t = t.s

let errors t = List.rev t.errors_rev

let skipped t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.skipped [])

(* ------------------------------------------------------------------ *)
(* Failure sites                                                       *)

let fail t ~at ~source ~expected ~got fmt =
  Printf.ksprintf
    (fun message ->
      if not t.recover then raise (Corrupt message)
      else
        raise
          (Parse_error
             {
               at;
               source;
               expected;
               got;
               in_drain = t.drain_pid;
               exc_depth = List.length t.kernel_stack - 1;
               message;
             }))
    fmt

let src_of t ~kernel ~pid =
  if kernel then Kernel (List.length t.kernel_stack - 1) else User pid

(* ------------------------------------------------------------------ *)
(* Core block machinery, shared by both paths                          *)

let emit_inst t ~kernel ~pid addr =
  t.s.insts <- t.s.insts + 1;
  if kernel then t.s.kernel_insts <- t.s.kernel_insts + 1
  else t.s.user_insts <- t.s.user_insts + 1;
  t.h.on_inst addr pid kernel

let emit_data t ~kernel ~pid ~is_load ~bytes addr =
  t.s.datas <- t.s.datas + 1;
  if kernel then t.s.kernel_datas <- t.s.kernel_datas + 1
  else t.s.user_datas <- t.s.user_datas + 1;
  t.h.on_data addr pid kernel is_load bytes

(* Emit instruction fetches of the current block up to and including
   position [upto]. *)
let emit_insts_upto t src ~kernel ~pid upto =
  let e = src.entry in
  if e != no_entry then
    while src.next_pos <= upto do
      emit_inst t ~kernel ~pid (e.Bbtable.orig_addr + (src.next_pos * 4));
      src.next_pos <- src.next_pos + 1
    done

(* If all memory references of the current block have been consumed, emit
   its trailing instructions and close it. *)
let maybe_finish_block t src ~kernel ~pid =
  let e = src.entry in
  if e != no_entry && src.mem_idx >= Array.length e.Bbtable.mems then begin
    emit_insts_upto t src ~kernel ~pid (e.Bbtable.ninsns - 1);
    src.entry <- no_entry
  end

let open_entry t src ~kernel ~pid e =
  t.s.bb_records <- t.s.bb_records + 1;
  if Bbtable.is_idle e then t.s.idle_insts <- t.s.idle_insts + e.Bbtable.ninsns;
  src.entry <- e;
  src.next_pos <- 0;
  src.mem_idx <- 0;
  maybe_finish_block t src ~kernel ~pid

let feed_bb_record t src ~kernel ~pid ~table ~idx w =
  let cur = src.entry in
  if cur != no_entry then
    fail t ~at:idx ~source:(src_of t ~kernel ~pid)
      ~expected:
        (Printf.sprintf "%d more data words of block 0x%x"
           (Array.length cur.Bbtable.mems - src.mem_idx)
           cur.Bbtable.orig_addr)
      ~got:w
      "word %d: block record 0x%x while block at 0x%x still expects %d data \
       words"
      idx w cur.Bbtable.orig_addr
      (Array.length cur.Bbtable.mems - src.mem_idx);
  match Bbtable.find_exn table w with
  | e -> open_entry t src ~kernel ~pid e
  | exception Not_found ->
    fail t ~at:idx ~source:(src_of t ~kernel ~pid)
      ~expected:"a basic-block record of this address space" ~got:w
      "word %d: 0x%x is not a basic-block record of this address space" idx w

let feed_data_word t src ~kernel ~pid ~idx w =
  let e = src.entry in
  if e == no_entry then
    fail t ~at:idx ~source:(src_of t ~kernel ~pid)
      ~expected:"an open basic block" ~got:w
      "word %d: data address 0x%x with no open basic block" idx w;
  let pos, bytes, is_load = e.Bbtable.mems.(src.mem_idx) in
  emit_insts_upto t src ~kernel ~pid pos;
  emit_data t ~kernel ~pid ~is_load ~bytes w;
  src.mem_idx <- src.mem_idx + 1;
  maybe_finish_block t src ~kernel ~pid

(* A word belonging to the kernel's own stream.  [t.kernel_top] caches
   the head of [kernel_stack] so the per-word path does no list access. *)
let feed_kernel_word t ~idx w =
  let src = t.kernel_top in
  (* A kernel block record is a kseg0 text address present in the kernel
     table; anything else is a data address.  A kernel data address could
     in principle collide with a block-record address; the kernel table is
     consulted only when no block is open, and blocks never reference their
     own record addresses with loads in practice.  The expected-count check
     still catches any residual ambiguity. *)
  if src.entry != no_entry then
    feed_data_word t src ~kernel:true ~pid:t.cur_pid ~idx w
  else
    feed_bb_record t src ~kernel:true ~pid:t.cur_pid ~table:t.kernel_bbs ~idx w

let user_src t pid =
  match Hashtbl.find_opt t.users pid with
  | Some s -> s
  | None ->
    let s = fresh_src () in
    Hashtbl.replace t.users pid s;
    s

let feed_user_word t ~idx w =
  let pid = t.drain_pid and src = t.drain_src in
  if src.entry != no_entry then feed_data_word t src ~kernel:false ~pid ~idx w
  else
    match t.drain_bbs with
    | None ->
      fail t ~at:idx ~source:(User pid)
        ~expected:"a drain for a registered pid" ~got:w
        "word %d: drain for unregistered pid %d" idx pid
    | Some table -> feed_bb_record t src ~kernel:false ~pid ~table ~idx w

(* ------------------------------------------------------------------ *)
(* Marker dispatch: shared bodies                                      *)

let on_pid_switch t p =
  t.s.pid_switches <- t.s.pid_switches + 1;
  t.cur_pid <- p

let on_drain t p =
  t.s.drains <- t.s.drains + 1;
  t.drain_pid <- p;
  t.drain_src <- user_src t p;
  t.drain_bbs <- Hashtbl.find_opt t.user_bbs p;
  t.drain_left <- -2 (* count word follows *)

let on_exc_enter t =
  t.s.exc_markers <- t.s.exc_markers + 1;
  let top = fresh_src () in
  t.kernel_stack <- top :: t.kernel_stack;
  t.kernel_top <- top;
  t.s.max_exc_depth <- max t.s.max_exc_depth (List.length t.kernel_stack - 1)

(* The EXC_EXIT marker word, for [error.got]. *)
let w_of_exit = Format_.make_marker Format_.kind_exc_exit 0

let on_exc_exit t ~idx =
  t.s.exc_markers <- t.s.exc_markers + 1;
  match t.kernel_stack with
  | top :: (outer :: _ as rest) ->
    if top.entry != no_entry then
      fail t ~at:idx
        ~source:(Kernel (List.length t.kernel_stack - 1))
        ~expected:"a completed kernel block before EXC_EXIT" ~got:w_of_exit
        "word %d: exception exit with kernel block 0x%x still open" idx
        top.entry.Bbtable.orig_addr;
    t.kernel_stack <- rest;
    t.kernel_top <- outer
  | _ ->
    fail t ~at:idx ~source:Stream ~expected:"a matching EXC_ENTER"
      ~got:w_of_exit "word %d: exception exit at depth 0" idx

let on_mode t m =
  t.s.mode_transitions <- t.s.mode_transitions + 1;
  t.mode <- m

(* Marker dispatch on the raw kind field (no variant allocation).  The
   test suite holds this equivalent to a [Format_.decode_marker]-based
   oracle over every marker word. *)
let feed_marker t ~idx w =
  t.s.markers <- t.s.markers + 1;
  let kind = Format_.marker_kind w in
  if kind = Format_.kind_pid then on_pid_switch t (Format_.marker_arg w)
  else if kind = Format_.kind_drain then on_drain t (Format_.marker_arg w)
  else if kind = Format_.kind_exc_enter then on_exc_enter t
  else if kind = Format_.kind_exc_exit then on_exc_exit t ~idx
  else if kind = Format_.kind_mode then on_mode t (Format_.marker_arg w)
  else if kind = Format_.kind_onoff then ()
  else if kind = Format_.kind_thread then ()
  else if kind = Format_.kind_end then t.s.ended <- true
  else raise (Format_.Bad_marker w)

(* ------------------------------------------------------------------ *)
(* Word loop                                                           *)

let feed_word t ~idx w =
  t.s.words <- t.s.words + 1;
  if t.s.ended then
    fail t ~at:idx ~source:Stream ~expected:"no words after the END marker"
      ~got:w "word %d: trace continues after END marker" idx;
  if t.mode = 1 then t.s.analysis_mode_words <- t.s.analysis_mode_words + 1;
  if t.drain_left = -2 then begin
    (* The word after a DRAIN marker is the payload count. *)
    if w < 0 || w > 1 lsl 24 then
      fail t ~at:idx ~source:(User t.drain_pid)
        ~expected:"a drain payload count below 2^24" ~got:w
        "word %d: implausible drain count %d" idx w;
    t.drain_left <- w;
    (* An empty drain carries no payload: close the drain immediately so
       its pid does not linger in later diagnoses. *)
    if w = 0 then t.drain_pid <- -1
  end
  else if t.drain_left > 0 then begin
    t.drain_left <- t.drain_left - 1;
    if Format_.is_marker w then
      fail t ~at:idx ~source:(User t.drain_pid)
        ~expected:"user words inside the drain payload" ~got:w
        "word %d: marker 0x%x inside a drain block" idx w;
    if not (Format_.is_user_addr w) then
      fail t ~at:idx ~source:(User t.drain_pid)
        ~expected:"user-space addresses inside the drain payload" ~got:w
        "word %d: kernel address 0x%x inside a user drain block" idx w;
    feed_user_word t ~idx w;
    if t.drain_left = 0 then t.drain_pid <- -1
  end
  else if Format_.is_marker w then feed_marker t ~idx w
  else feed_kernel_word t ~idx w

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let record_error t e =
  t.s.parse_errors <- t.s.parse_errors + 1;
  t.errors_rev <- e :: t.errors_rev

let bump_skip t source n =
  Hashtbl.replace t.skipped source
    (n + Option.value ~default:0 (Hashtbl.find_opt t.skipped source))

let reset_source t = function
  | Kernel _ -> t.kernel_top.entry <- no_entry
  | User pid -> (
    match Hashtbl.find_opt t.users pid with
    | Some src -> src.entry <- no_entry
    | None -> ())
  | Stream -> ()

(* A diagnosis invalidates everything the parser believed about the
   offending source and the current framing: drop the open block, abandon
   the drain, and discard words until the next marker — the only words
   identifiable without parser state (they live in a reserved kseg1
   slice no data reference can produce). *)
let recover_from t e =
  record_error t e;
  t.s.skipped_words <- t.s.skipped_words + 1;  (* the offending word *)
  bump_skip t e.source 1;
  reset_source t e.source;
  t.drain_left <- 0;
  t.drain_pid <- -1;
  t.resync <- true;
  t.resync_source <- e.source

let is_resync_point w =
  Format_.is_marker w && Format_.marker_kind w <= Format_.kind_end

let rec feed_word_recovering t ~idx w =
  if t.resync then
    if is_resync_point w then begin
      t.resync <- false;
      feed_word_recovering t ~idx w
    end
    else begin
      t.s.words <- t.s.words + 1;
      t.s.skipped_words <- t.s.skipped_words + 1;
      bump_skip t t.resync_source 1
    end
  else
    try feed_word t ~idx w with
    | Parse_error e -> recover_from t e
    | Format_.Bad_marker bw ->
      recover_from t
        {
          at = idx;
          source = Stream;
          expected = "a marker kind the format defines";
          got = bw;
          in_drain = t.drain_pid;
          exc_depth = List.length t.kernel_stack - 1;
          message =
            Printf.sprintf "word %d: unknown marker kind in 0x%x" idx bw;
        }

(* Feed a chunk of trace (one trace-analysis phase's worth). *)
let feed t words ~len =
  if len < 0 || len > Array.length words then
    invalid_arg "Parser.feed: len outside the chunk";
  let base = t.s.words in
  if t.recover then
    for k = 0 to len - 1 do
      feed_word_recovering t ~idx:(base + k) (Array.unsafe_get words k)
    done
  else
    for k = 0 to len - 1 do
      feed_word t ~idx:(base + k) (Array.unsafe_get words k)
    done

(* End-of-run checks: every source must have completed its last block.
   Processes listed in [live] are allowed an incomplete block: a process
   that never exits (e.g. a server blocked in receive) legitimately stops
   mid-block when the machine halts.  In recovery mode the violations are
   recorded as diagnoses instead of raised. *)
let finish ?(live = []) t =
  let flag ~source ~expected ~got fmt =
    Printf.ksprintf
      (fun message ->
        if not t.recover then raise (Corrupt message)
        else
          record_error t
            {
              at = t.s.words;
              source;
              expected;
              got;
              in_drain = t.drain_pid;
              exc_depth = List.length t.kernel_stack - 1;
              message;
            })
      fmt
  in
  if t.drain_left > 0 || t.drain_left = -2 then
    flag ~source:(User t.drain_pid) ~expected:"a complete drain payload"
      ~got:t.drain_left "finish: drain for pid %d truncated (%s)" t.drain_pid
      (if t.drain_left = -2 then "count word missing"
       else Printf.sprintf "%d payload words missing" t.drain_left);
  (match t.kernel_stack with
  | [ top ] ->
    if top.entry != no_entry then
      flag ~source:(Kernel 0)
        ~expected:"a completed kernel block at end of trace"
        ~got:top.entry.Bbtable.orig_addr "finish: kernel block 0x%x incomplete"
        top.entry.Bbtable.orig_addr
  | stack ->
    flag
      ~source:(Kernel (List.length stack - 1))
      ~expected:"exception depth 0 at end of trace"
      ~got:(List.length stack - 1) "finish: exception depth %d at end of trace"
      (List.length stack - 1));
  Hashtbl.iter
    (fun pid src ->
      if src.entry != no_entry && not (List.mem pid live) then
        flag ~source:(User pid)
          ~expected:"a completed user block at end of trace"
          ~got:src.entry.Bbtable.orig_addr "finish: pid %d block 0x%x incomplete"
          pid src.entry.Bbtable.orig_addr)
    t.users

(* ------------------------------------------------------------------ *)
(* Structural scan                                                     *)

(* Table-free validation of a stored trace: everything that can be checked
   about the word stream without the static block tables — marker kinds,
   drain framing, exception bracketing, END placement.  Used by
   `systrace check` on traces whose binaries are not at hand.  The scan
   never raises; it reports every violation it can see and keeps going
   (re-deriving the framing optimistically after each one).

   The scanner is a persistent state machine fed one chunk at a time so
   `systrace check` can stream a stored trace through [Tracefile.fold_words]
   in bounded memory; {!scan} is the whole-array wrapper.  The carried
   state is exactly what the per-word logic threads between words — drain
   framing, exception depth, END position — so chunking cannot change the
   diagnoses. *)

type scanner = {
  mutable c_errs : error list;  (* newest first *)
  mutable c_drain_pid : int;
  mutable c_drain_left : int;
  mutable c_depth : int;
  mutable c_ended_at : int;
  mutable c_flagged_after_end : bool;
  mutable c_words : int;  (* words scanned so far, = next word's index *)
}

let scanner () =
  {
    c_errs = [];
    c_drain_pid = -1;
    c_drain_left = 0;
    c_depth = 0;
    c_ended_at = -1;
    c_flagged_after_end = false;
    c_words = 0;
  }

let scan_add c ~at ~source ~expected ~got message =
  c.c_errs <-
    {
      at;
      source;
      expected;
      got;
      in_drain = c.c_drain_pid;
      exc_depth = c.c_depth;
      message;
    }
    :: c.c_errs

let scan_word c w =
  let i = c.c_words in
  c.c_words <- i + 1;
  if c.c_ended_at >= 0 then begin
    if not c.c_flagged_after_end then begin
      scan_add c ~at:i ~source:Stream
        ~expected:"no words after the END marker" ~got:w
        (Printf.sprintf "word %d: trace continues after END marker (at word %d)"
           i c.c_ended_at);
      c.c_flagged_after_end <- true
    end
  end
  else if c.c_drain_left = -2 then begin
    if w < 0 || w > 1 lsl 24 then begin
      scan_add c ~at:i ~source:(User c.c_drain_pid)
        ~expected:"a drain payload count below 2^24" ~got:w
        (Printf.sprintf "word %d: implausible drain count %d" i w);
      c.c_drain_left <- 0;
      c.c_drain_pid <- -1
    end
    else begin
      c.c_drain_left <- w;
      if w = 0 then c.c_drain_pid <- -1
    end
  end
  else if c.c_drain_left > 0 then begin
    c.c_drain_left <- c.c_drain_left - 1;
    if Format_.is_marker w then
      scan_add c ~at:i ~source:(User c.c_drain_pid)
        ~expected:"user words inside the drain payload" ~got:w
        (Printf.sprintf "word %d: marker 0x%x inside a drain block" i w)
    else if not (Format_.is_user_addr w) then
      scan_add c ~at:i ~source:(User c.c_drain_pid)
        ~expected:"user-space addresses inside the drain payload" ~got:w
        (Printf.sprintf "word %d: kernel address 0x%x inside a user drain \
                         block" i w);
    if c.c_drain_left = 0 then c.c_drain_pid <- -1
  end
  else if Format_.is_marker w then begin
    let kind = Format_.marker_kind w in
    if kind > Format_.kind_end then
      scan_add c ~at:i ~source:Stream
        ~expected:"a marker kind the format defines" ~got:w
        (Printf.sprintf "word %d: unknown marker kind in 0x%x" i w)
    else if kind = Format_.kind_drain then begin
      c.c_drain_pid <- Format_.marker_arg w;
      c.c_drain_left <- -2
    end
    else if kind = Format_.kind_exc_enter then c.c_depth <- c.c_depth + 1
    else if kind = Format_.kind_exc_exit then begin
      if c.c_depth = 0 then
        scan_add c ~at:i ~source:Stream ~expected:"a matching EXC_ENTER" ~got:w
          (Printf.sprintf "word %d: exception exit at depth 0" i)
      else c.c_depth <- c.c_depth - 1
    end
    else if kind = Format_.kind_end then c.c_ended_at <- i
  end

(* Most words cannot change the scan's state: a user address inside a
   drain payload only counts the payload down, and a non-marker word
   outside a drain changes nothing.  [scan_feed] hands each run of such
   words to one of the two tight loops below, then advances [c_words]
   and [c_drain_left] once per run.  The loops take the format's bounds
   as arguments: a call to [Format_.is_marker] per word would cost more
   than the test itself.  Every other word goes through
   [scan_word]: markers, the drain count, any word it would diagnose,
   and everything after END.  So a feed reports what a feed of one word
   at a time reports, in any chunking; the test suite holds it to that
   word-at-a-time oracle. *)

(* The end of the run of user addresses in [words.(j .. stop-1)]. *)
let rec user_run (words : int array) j stop (limit : int) =
  if j < stop && Array.unsafe_get words j < limit then
    user_run words (j + 1) stop limit
  else j

(* The end of the run of non-marker words in [words.(j .. stop-1)]. *)
let rec plain_run (words : int array) j stop (lo : int) (hi : int) =
  if
    j < stop
    &&
    let w = Array.unsafe_get words j in
    w < lo || w >= hi
  then plain_run words (j + 1) stop lo hi
  else j

let scan_feed c (words : int array) ~len =
  if len < 0 || len > Array.length words then
    invalid_arg "Parser.scan_feed: len outside the chunk";
  let k = ref 0 in
  while !k < len do
    let i = !k in
    let j =
      if c.c_ended_at >= 0 then i
      else if c.c_drain_left > 0 then begin
        let stop = if len - i < c.c_drain_left then len else i + c.c_drain_left in
        let j = user_run words i stop Format_.user_limit in
        c.c_drain_left <- c.c_drain_left - (j - i);
        if c.c_drain_left = 0 then c.c_drain_pid <- -1;
        j
      end
      else if c.c_drain_left = 0 then
        plain_run words i len Format_.marker_base Format_.marker_limit
      else i
    in
    if j > i then begin
      c.c_words <- c.c_words + (j - i);
      k := j
    end
    else begin
      scan_word c (Array.unsafe_get words i);
      k := i + 1
    end
  done

let scan_finish c : error list =
  let n = c.c_words in
  if c.c_drain_left > 0 || c.c_drain_left = -2 then
    scan_add c ~at:n ~source:(User c.c_drain_pid)
      ~expected:"a complete drain payload" ~got:c.c_drain_left
      (Printf.sprintf "end of trace: drain for pid %d truncated (%s)"
         c.c_drain_pid
         (if c.c_drain_left = -2 then "count word missing"
          else Printf.sprintf "%d payload words missing" c.c_drain_left));
  if c.c_depth > 0 then
    scan_add c ~at:n ~source:(Kernel c.c_depth)
      ~expected:"exception depth 0 at end of trace" ~got:c.c_depth
      (Printf.sprintf "end of trace: %d exception level(s) never exited"
         c.c_depth);
  List.rev c.c_errs

let scan (words : int array) : error list =
  let c = scanner () in
  scan_feed c words ~len:(Array.length words);
  scan_finish c
