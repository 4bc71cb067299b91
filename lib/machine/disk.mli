(** Disk device with DMA and a small in-order request queue (depth 4 — what
    lets the kernel issue asynchronous read-ahead).  Completions raise the
    disk interrupt line and park the finished block number until acked.
    The image is held per block, allocated on first write; an unwritten
    block reads as zeros. *)

type request = {
  block : int;
  paddr : int;
  count : int;
  is_write : bool;
  complete_at : int;
}

type t = {
  image : Bytes.t array;
      (** one [block_bytes] buffer per block, [Bytes.empty] until the
          block is first written *)
  block_bytes : int;
  seek_cycles : int;
  per_block_cycles : int;
  queue_depth : int;
  mutable queue : request list;
  mutable done_blocks : int list;
  mutable reg_block : int;
  mutable reg_addr : int;
  mutable reg_count : int;
  mutable reads : int;
  mutable writes : int;
}

val block_bytes : int

val create :
  ?blocks:int -> ?seek_cycles:int -> ?per_block_cycles:int -> unit -> t

val nblocks : t -> int

val write_image : t -> block:int -> off:int -> string -> unit
val read_image : t -> block:int -> off:int -> len:int -> string
(** Host-side access to the image at byte [block * block_bytes + off];
    a transfer may cross block boundaries.  Out-of-range transfers raise
    [Invalid_argument]. *)

val busy : t -> bool
val submit : t -> now:int -> is_write:bool -> bool
val next_event : t -> int
val poll : t -> now:int -> mem:Bytes.t -> on_dma:(paddr:int -> len:int -> unit) -> int
val done_block : t -> int
val ack : t -> unit
val has_done : t -> bool
