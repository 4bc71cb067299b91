(** The machine's 4-entry write buffer: entries retire to memory in order,
    one per [drain_cycles]; a store with all entries occupied stalls the
    CPU.  Retirement times are absolute cycles, so drains naturally
    overlap with FP latency in the machine model — the overlap the
    trace-driven predictor deliberately lacks. *)

type t = {
  depth : int;
  drain_cycles : int;
  ring : int array;            (** absolute retire cycles, ascending *)
  mutable head : int;          (** index of the oldest entry *)
  mutable count : int;
  mutable stall_cycles : int;
  mutable stores : int;
}

val create : ?depth:int -> ?drain_cycles:int -> unit -> t
val reset : t -> unit

val store : t -> now:int -> int
(** Issue a store at absolute cycle [now]; returns the stall suffered. *)

val pending : t -> now:int -> int
