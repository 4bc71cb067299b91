(** TLB model for the trace-driven simulator: fully associative, random
    replacement driven by a reference counter (diverging from the
    hardware's cycle-driven point — one of Table 3's acknowledged error
    sources).  The kernel's explicit TLB writes are invisible here. *)

type t = {
  size : int;
  wired : int;
  vpns : int array;
  asids : int array;
  globals : bool array;
  memo_vpns : int array;
      (** positive lookup memo, dropped for the evicted vpn on every
          refill — a pure fast path over the associative scan *)
  memo_asids : int array;
  mutable refcount : int;
  mutable user_misses : int;
  mutable kernel_misses : int;
  mutable hits : int;
}

val create : ?size:int -> ?wired:int -> unit -> t
(** Defaults: 64 entries, 8 wired (the DECstation's R3000). *)

val access : t -> vpn:int -> asid:int -> global:bool -> user:bool -> bool
(** [true] on hit; misses refill one entry at the random point. *)
