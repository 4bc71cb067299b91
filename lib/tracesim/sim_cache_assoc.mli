(** N-way set-associative, true-LRU cache model for trace-replay studies —
    the associativity and write-policy sweeps the system traces were
    collected to enable (companion study [7]).  The default
    [Write_through] policy matches the host machine, so a 1-way instance
    behaves as a direct-mapped cache; [Write_back] adds write-allocate and
    dirty-eviction accounting.  Sets are kept in recency order (MRU
    first), and the dirty bit travels with its line. *)

type policy =
  | Write_through  (** no write-allocate; the DECstation's organization *)
  | Write_back     (** write-allocate; dirty evictions count as
                       [writebacks] *)

type t = {
  line_bytes : int;
  line_shift : int;  (** log2 [line_bytes], cached off the hot path *)
  ways : int;
  nsets : int;
  set_mask : int;    (** [nsets - 1] when a power of two, else -1 *)
  policy : policy;
  slots : int array;
      (** [nsets * ways], each set MRU first; a slot is
          [(line lsl 1) lor dirty], or -1 when invalid *)
  mutable read_hits : int;
  mutable read_misses : int;
  mutable write_hits : int;
  mutable write_misses : int;
  mutable writebacks : int;  (** dirty lines evicted (write-back only) *)
}

val create :
  ?policy:policy -> size_bytes:int -> line_bytes:int -> ways:int -> unit -> t
(** [line_bytes] must be a power of two and [size_bytes] a multiple of
    [line_bytes * ways]. *)

val read : t -> int -> bool
(** [true] on hit; misses fill the LRU way of the set (writing back a
    dirty victim under [Write_back]). *)

val write : t -> int -> bool
(** [true] on hit. [Write_through]: state changes only on hit.
    [Write_back]: a miss allocates; hits and allocations dirty the line. *)

val set_of : t -> int -> int
(** The set a physical address indexes. *)

val at_front : t -> int -> bool
(** [at_front t pa]: [pa]'s line is the most recently used of its set, so
    reading it changes nothing. *)

val copy_set : t -> t -> int -> unit
(** [copy_set a b set] overwrites set [set] of [b] with [a]'s, recency
    order and dirty bits included; [b] must have [a]'s geometry. *)

val same_set : t -> t -> int -> bool
(** [same_set a b set]: set [set] holds the same lines in the same order
    in [a] and in [b] (of the same geometry). *)
