(* Tracing-system ABI shared by epoxie (which emits code against it), the
   tracing runtime (bbtrace/memtrace), the kernel (which owns the buffers),
   and the trace parser.

   Three registers are stolen from instrumented code (paper, section 3.5):

     xreg_cursor ($t8)  current trace-buffer cursor (byte address)
     xreg_limit  ($t9)  high-water limit for the cursor
     xreg_book   ($t7)  bookkeeping-area base

   Original uses of these registers are rewritten by epoxie to use shadow
   values in the bookkeeping area.

   User processes get a bookkeeping page and trace pages at fixed virtual
   addresses; the kernel has a bookkeeping frame stack (one frame per
   exception nesting level) and writes trace directly into the in-kernel
   buffer. *)

open Systrace_isa

let xreg_cursor = Reg.t8
let xreg_limit = Reg.t9
let xreg_book = Reg.t7

let stolen = [ xreg_book; xreg_cursor; xreg_limit ]

(* Bookkeeping-area slot offsets (bytes). *)
let book_saved_ra = 0            (* preamble's saved ra *)
let book_shadow_book = 4         (* shadow of xreg_book  ($t7) *)
let book_shadow_cursor = 8       (* shadow of xreg_cursor ($t8) *)
let book_shadow_limit = 12       (* shadow of xreg_limit ($t9) *)
let book_scratch0 = 16           (* memtrace register spills *)
let book_scratch1 = 20
let book_scratch2 = 24
let book_scratch3 = 28           (* inline-hazard spill ($t0 variant) *)
let book_scratch4 = 32           (* inline-hazard spill ($t1 variant) *)
let book_scratch5 = 36           (* saved status across kernel trace writes *)
let book_size = 40

let shadow_slot r =
  if r = xreg_book then book_shadow_book
  else if r = xreg_cursor then book_shadow_cursor
  else if r = xreg_limit then book_shadow_limit
  else invalid_arg "Abi.shadow_slot: not a stolen register"

(* User-space fixed virtual addresses for the per-process trace pages.
   The bookkeeping page is followed directly by the trace buffer pages.
   Mach 3.0 detects traced programs by their first reference to this
   region (paper, section 3.6). *)
let user_book_va = 0x7E000000
let user_buf_va = user_book_va + 0x1000
let user_buf_pages = 4

(* Region test used by the Mach personality's fault handler. *)
let in_user_trace_region va =
  va >= user_book_va && va < user_buf_va + 0x100000

(* Global symbols exported by the kernel for the tracing runtime.  The
   kernel variant of bbtrace checks [ktrace_need] after moving the cursor;
   user-variant overflow goes through the trace-flush syscall instead. *)
let sym_ktrace_book = "ktrace_book_frames"
let sym_ktrace_cursor = "ktrace_cursor"
let sym_ktrace_limit = "ktrace_limit"
let sym_ktrace_need = "ktrace_need_analysis"

(* Syscall numbers (shared with the kernel and workload runtime). *)
let sys_exit = 1
let sys_write = 2
let sys_read = 3
let sys_open = 4
let sys_sbrk = 5
let sys_yield = 6
let sys_gettime = 7
let sys_trace_flush = 8
let sys_trace_ctl = 9

(* Hypercall codes (kernel -> host harness). *)
let hc_halt = 0
let hc_exit_all = 1
let hc_analyze = 2
let hc_panic = 3
let hc_debug = 4
