(* Trace word format.

   Every trace entry is a single 32-bit word (paper, section 3.3), so a
   single store instruction records a complete entry and entries stay
   contiguous without locks:

     - a word in user space (< 0x80000000) is a user basic-block record or a
       user data address, disambiguated by parser state;
     - a word in kseg0/kseg2 is a kernel basic-block record or kernel data
       address;
     - words in a reserved slice of kseg1 (0xBFFF0000..0xBFFFFFFF) are
       markers written by the kernel: pid switches, drained user-trace
       blocks, exception nesting, and mode transitions.  Device registers
       live at 0xA1000000, so no real data reference can collide with the
       marker range (the machine would fault on such an access anyway since
       it is beyond the device window).

   The redundancy used for defensive tracing (paper, section 4.3) lives in
   the parser: every block record must exist in the static table for the
   right address space, and every block must be followed by exactly the
   number of data words its static record promises. *)

let marker_base = 0xBFFF0000
let marker_limit = 0xC0000000

type marker =
  | Pid_switch of int     (* kernel scheduled user process [pid] *)
  | Drain of int          (* next word = count, then count user words *)
  | Exc_enter of int      (* kernel interrupted by exception [code] *)
  | Exc_exit
  | Mode of int           (* 0 = trace-generation, 1 = trace-analysis *)
  | Trace_onoff of int    (* 1 = on, 0 = off *)
  | Thread_switch of int  (* Mach: thread within the current task *)
  | End

let is_marker w = w >= marker_base && w < marker_limit

let kind_pid = 0
let kind_drain = 1
let kind_exc_enter = 2
let kind_exc_exit = 3
let kind_mode = 4
let kind_onoff = 5
let kind_thread = 6
let kind_end = 7

let make_marker kind arg =
  if arg < 0 || arg > 0xFFF then invalid_arg "Format_.make_marker: arg range";
  marker_base lor (kind lsl 12) lor arg

let marker_word = function
  | Pid_switch p -> make_marker kind_pid p
  | Drain p -> make_marker kind_drain p
  | Exc_enter c -> make_marker kind_exc_enter c
  | Exc_exit -> make_marker kind_exc_exit 0
  | Mode m -> make_marker kind_mode m
  | Trace_onoff m -> make_marker kind_onoff m
  | Thread_switch th -> make_marker kind_thread th
  | End -> make_marker kind_end 0

exception Bad_marker of int

let decode_marker w =
  if not (is_marker w) then raise (Bad_marker w);
  let kind = (w lsr 12) land 0xF in
  let arg = w land 0xFFF in
  if kind = kind_pid then Pid_switch arg
  else if kind = kind_drain then Drain arg
  else if kind = kind_exc_enter then Exc_enter arg
  else if kind = kind_exc_exit then Exc_exit
  else if kind = kind_mode then Mode arg
  else if kind = kind_onoff then Trace_onoff arg
  else if kind = kind_thread then Thread_switch arg
  else if kind = kind_end then End
  else raise (Bad_marker w)

(* Field accessors for the parser's allocation-free fast path: the same
   decode as [decode_marker] without building the variant. *)
let marker_kind w = (w lsr 12) land 0xF
let marker_arg w = w land 0xFFF

let is_user_addr w = w < 0x80000000
