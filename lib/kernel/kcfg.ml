(* Kernel layout constants, shared between the assembly emitters and the
   host-side boot builder.  Everything the kernel's assembly and the
   builder's memory pokes must agree on lives here. *)

let max_procs = 8
let max_files = 16
let max_fds = 8
let nbufs = 32

(* ------------------------------------------------------------------ *)
(* PCB layout (byte offsets within one PCB)                             *)

let pcb_regs = 0                    (* 32 words: saved GPRs *)
let pcb_epc = 128
let pcb_status = 132
let pcb_state = 136                 (* 0 free, 1 runnable, 2 blocked, 3 zombie *)
let pcb_traced = 140
let pcb_waitchan = 144              (* disk block the process waits on, or -1 *)
let pcb_brk = 148                   (* heap break VA *)
let pcb_context = 152               (* CP0 context value: PT base in kseg2 *)
let pcb_asid = 156
let pcb_exitcode = 160
let pcb_fds = 164                   (* max_fds x { file id; position } *)
let pcb_fd_stride = 8
(* Under Mach, file descriptors live in the UX server, so the fd area is
   reused for thread support (paper §3.6): the PTEs of this thread's
   private trace pages, remapped into the shared page table at every
   context switch, plus a thread flag. *)
let pcb_trace_ptes = 164            (* up to 6 PTE words *)
let pcb_trt_lo = 228                (* tracing-runtime text range: drains *)
let pcb_trt_hi = 232                (* are skipped when EPC is inside it *)
let pcb_is_thread = 236
let pcb_fpregs = 240                (* 16 doubles, 8-aligned *)
let pcb_fcc = 368
let pcb_size = 384

let pcb_reg r = pcb_regs + (4 * r)

(* ------------------------------------------------------------------ *)
(* File table entry (the "filesystem": named disk extents)              *)

let file_name = 0                   (* 16 bytes, NUL padded *)
let file_start_block = 16
let file_size_bytes = 20
let file_entry_size = 24

(* ------------------------------------------------------------------ *)
(* Buffer cache entry                                                   *)

let buf_block = 0                   (* disk block number, -1 = empty *)
let buf_state = 4                   (* 0 empty, 1 valid, 2 reading, 3 writing *)
let buf_dirty = 8
let buf_page = 12                   (* kseg0 address of the 4KB data page *)
let buf_lru = 16                    (* last-touch tick for eviction *)
let buf_entry_size = 20

(* ------------------------------------------------------------------ *)
(* Exception frame (from-kernel nesting), pushed on the kernel stack    *)

let exc_regs = 0                    (* 32 words; t8/t9 slots unused *)
let exc_epc = 128
let exc_status = 132
let exc_marker = 136                (* 1 = EXC_ENTER marker was written *)
let exc_frame_size = 144

(* ------------------------------------------------------------------ *)
(* Physical memory map                                                  *)

let kernel_text_pa = 0x0
let kernel_text_va = 0x80000000
(* Kernel data is linked right after text; the builder reads the actual
   extent from the linked image.  These are the fixed regions: *)
let ktrace_buf_pa = 0x0020_0000     (* in-kernel trace buffer *)
let ktrace_buf_bytes_default = 4 * 1024 * 1024
let ktrace_slack_bytes = 128 * 1024 (* high-water margin *)
let frames_base_pa = 0x0060_0000    (* user/PT frame allocator region *)
let frames_limit_pa = 0x0100_0000

(* ------------------------------------------------------------------ *)
(* Virtual layout                                                       *)

let user_text_va = 0x0040_0000
let user_data_va = 0x1000_0000
let user_stack_top = 0x7FFF_E000
let user_stack_pages = 4
(* Trace pages: see Systrace_tracing.Abi (book at 0x7E000000). *)

(* Per-process linear page tables in kseg2, 2MB apart (so the PTEbase
   field of the Context register can address them directly). *)
let pt_stride = 0x0020_0000
let pt_base_va pid = 0xC000_0000 + (pid * pt_stride)

(* kseg2 root table: one PTE per kseg2 page the kernel can map. *)
let kseg2_span_pages = 4096         (* 16 MB of kseg2 *)

(* ------------------------------------------------------------------ *)
(* Fixed low-kseg0 slots used by the exception stubs (reachable with a
   single lui). *)

let ksave_k1 = 0x8000_0F00          (* saved $k1 across the general stub *)
let kstub_scratch = 0x8000_0F04     (* scratch for stub flag tests *)

(* The vector page is 0x0 - 0x1000; stub code must stay below these. *)

(* ------------------------------------------------------------------ *)
(* Syscall numbers re-exported for workloads *)

let sys_exit = Systrace_tracing.Abi.sys_exit
let sys_write = Systrace_tracing.Abi.sys_write
let sys_read = Systrace_tracing.Abi.sys_read
let sys_open = Systrace_tracing.Abi.sys_open
let sys_sbrk = Systrace_tracing.Abi.sys_sbrk
let sys_yield = Systrace_tracing.Abi.sys_yield
let sys_gettime = Systrace_tracing.Abi.sys_gettime
let sys_trace_flush = Systrace_tracing.Abi.sys_trace_flush
let sys_trace_ctl = Systrace_tracing.Abi.sys_trace_ctl

(* Mach personality: file syscalls are forwarded to the UX server via a
   simple message rendezvous; these syscalls implement the server side. *)
let sys_server_recv = 16            (* UX server: wait for a request *)
let sys_server_reply = 17           (* UX server: reply to a request *)
let sys_disk_read = 18              (* low-level block read (server only) *)
let sys_disk_write = 19             (* low-level block write (server only) *)
let sys_thread_create = 22          (* Mach: thread in the caller's task *)

type personality = Ultrix | Mach

let personality_name = function
  | Ultrix -> "ultrix"
  | Mach -> "mach"

(* Page-mapping policy (paper, §4.2): careful = page colouring against the
   cache; random = Mach 3.0's random frame selection. *)
type pagemap = Careful | Random

let clock_interval_default = 100_000 (* ~256 Hz at 25 MHz *)
let time_dilation = 15               (* paper's slowdown factor *)
