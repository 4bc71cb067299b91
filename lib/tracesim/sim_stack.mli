(** Mattson-style LRU stack simulating a whole family of nested cache
    geometries — same line size, same set count, ascending associativity —
    in one state update per reference.  Valid only for read-only streams
    (instruction fetches): the no-write-allocate write path breaks the
    inclusion property the stack relies on (DESIGN.md 5f).

    A family member with associativity W behaves reference-for-reference
    like an independent {!Sim_cache_assoc} of W ways over the same sets (a
    qcheck property in the test suite holds them together). *)

type t

val create : line_bytes:int -> nsets:int -> ways:int array -> t
(** [ways] is the family's associativities, strictly ascending.
    @raise Invalid_argument on a non-ascending family or degenerate
    geometry. *)

val read : t -> int -> int
(** [read t pa] simulates one read in every member; returns a bitmask
    with bit [i] set iff member [i] (in [ways] order) missed. *)

val set_of : t -> int -> int
val at_front : t -> int -> bool
val copy_set : t -> t -> int -> unit
val same_set : t -> t -> int -> bool
(** Per-set access, as {!Sim_cache_assoc.set_of} and its neighbours; the
    two stacks of [copy_set] and [same_set] must share [line_bytes],
    [nsets] and [ways]. *)
