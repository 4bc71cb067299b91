(** Write-buffer model for the trace-driven simulator: deliberately
    simpler than the machine's — no overlap with floating-point latency,
    the gap behind liv's Figure 3 error.

    The caller owns the reference clock: one cycle per reference plus
    every read-miss, uncached and stall penalty, derived from counters it
    keeps anyway, so a buffer that sees no store costs nothing.  After a
    stall the caller must advance its clock by the returned stall.  A
    store whose clock is at least {!busy} cycles past the previous
    store's (its stall included) finds the buffer empty: the sweep skips
    such stores and {!restart}s the buffer only before a store that may
    stall.  A qcheck property in the test suite holds this model to an
    eagerly ticked reference. *)

type t

val create : depth:int -> drain_cycles:int -> t
(** @raise Invalid_argument when [depth <= 0]. *)

val store : t -> clock:int -> int
(** Issue a store at [clock]; returns the stall charged (0 if a slot was
    free).  Allocation-free. *)

val busy : t -> clock:int -> int
(** How many cycles after [clock] the newest entry retires: 0 when none
    is pending then.  A store at a clock at least this much later finds
    the buffer empty, so it cannot stall. *)

val restart : t -> clock:int -> unit
(** Leave the buffer as a store at [clock] leaves an empty one: that
    store's entry alone, retiring [drain_cycles] later.  A caller that
    skipped a store it knew found the buffer empty rebuilds the buffer
    with this before its next exact {!store}. *)
