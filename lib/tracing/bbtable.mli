(** Static basic-block lookup table (paper §3.5).

    Keyed by the basic-block record address appearing in the trace — the
    address of the first instruction of the instrumented block body.  Each
    entry carries what the trace parsing library needs to reconstruct the
    original binary's reference stream: the block's original address, its
    instruction count, and the position/size/direction of each memory
    reference. *)

type entry = {
  orig_addr : int;                    (** block address in the original binary *)
  ninsns : int;
  mems : (int * int * bool) array;    (** (position, bytes, is_load) *)
  flags : int;
}

val flag_idle : int
(** Blocks of the kernel idle loop: drive the idle-instruction counters
    used to estimate I/O time (§3.5, §5.1). *)

val flag_hand : int
(** Hand-traced routines, whose records are built manually (§3.3). *)

val is_idle : entry -> bool
val is_hand : entry -> bool

type t

val create : unit -> t

val add : t -> record_addr:int -> entry -> unit
(** Raises [Failure] on a duplicate record address. *)

val find : t -> int -> entry option

val find_exn : t -> int -> entry
(** Allocation-free lookup (raises [Not_found]) for the parser's hot
    loop. *)

val mem : t -> int -> bool
val size : t -> int
val iter : (int -> entry -> unit) -> t -> unit

val flag_orig_range : t -> lo:int -> hi:int -> int -> unit
(** Flag all blocks whose original address lies in [\[lo, hi)] — e.g. the
    kernel idle loop located from the original kernel's symbols. *)
