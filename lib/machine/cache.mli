(** Direct-mapped, physically-indexed cache model of the machine (hit/miss
    behaviour only; simulated memory stays authoritative). *)

type t = {
  line_shift : int;
  nlines : int;
  tags : int array;
  mutable hits : int;
  mutable misses : int;
}

val create : size_bytes:int -> line_bytes:int -> t

val read : t -> int -> bool
(** [true] on hit; misses fill the line and count. *)

val write : t -> int -> bool
(** Write-through, no write-allocate: [true] iff the line was present; not
    counted in hit/miss statistics. *)

val invalidate : t -> int -> unit
val size_bytes : t -> int
