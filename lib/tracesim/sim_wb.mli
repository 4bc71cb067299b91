(** Write-buffer model for the trace-driven simulator: deliberately
    simpler than the machine's — no overlap with floating-point latency,
    the gap behind liv's Figure 3 error.

    The caller owns the reference clock: one cycle per reference plus
    every read-miss, uncached and stall penalty, derived from counters it
    keeps anyway, so a buffer that sees no store costs nothing.  After a
    stall the caller must advance its clock by the returned stall.  A
    qcheck property in the test suite holds this model to an eagerly
    ticked reference. *)

type t

val create : depth:int -> drain_cycles:int -> t
(** @raise Invalid_argument when [depth <= 0]. *)

val store : t -> clock:int -> int
(** Issue a store at [clock]; returns the stall charged (0 if a slot was
    free).  Allocation-free. *)

val reset : t -> unit
