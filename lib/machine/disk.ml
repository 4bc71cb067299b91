(* Disk device with DMA and a small request queue.

   Requests complete strictly in order; each takes a seek time plus a
   per-block transfer time.  The queue depth (4) is what lets the kernel
   issue asynchronous read-ahead — the behaviour behind the compress
   prediction error in the paper's Figure 3.  On completion the device
   raises its interrupt line and parks the finished block number until the
   kernel acks it.

   The image is held per block: a block is allocated on its first write
   and reads as zeros until then, so a 2048-block disk the workloads
   barely touch costs a pointer per block. *)

type request = {
  block : int;
  paddr : int;
  count : int;
  is_write : bool;
  complete_at : int;
}

type t = {
  image : Bytes.t array;             (* per block; [Bytes.empty] = zeros *)
  block_bytes : int;
  seek_cycles : int;
  per_block_cycles : int;
  queue_depth : int;
  mutable queue : request list;      (* ascending complete_at *)
  mutable done_blocks : int list;    (* completed, not yet acked *)
  (* staged register values *)
  mutable reg_block : int;
  mutable reg_addr : int;
  mutable reg_count : int;
  mutable reads : int;
  mutable writes : int;
}

let block_bytes = 4096

let create ?(blocks = 2048) ?(seek_cycles = 20000) ?(per_block_cycles = 4000)
    () =
  {
    image = Array.make blocks Bytes.empty;
    block_bytes;
    seek_cycles;
    per_block_cycles;
    queue_depth = 4;
    queue = [];
    done_blocks = [];
    reg_block = 0;
    reg_addr = 0;
    reg_count = 1;
    reads = 0;
    writes = 0;
  }

let nblocks t = Array.length t.image

(* Visit the image bytes [pos, pos + len) block by block:
   [f blk o k n] covers [n] bytes at offset [o] of block [blk], which
   are bytes [k, k + n) of the transfer.  An out-of-range transfer
   raises [Invalid_argument] before any byte moves. *)
let iter_span t ~pos ~len f =
  if len < 0 || pos < 0 || pos > (nblocks t * t.block_bytes) - len then
    invalid_arg "Disk: transfer out of range";
  let k = ref 0 in
  while !k < len do
    let p = pos + !k in
    let o = p mod t.block_bytes in
    let n = min (t.block_bytes - o) (len - !k) in
    f (p / t.block_bytes) o !k n;
    k := !k + n
  done

let writable t blk =
  let b = t.image.(blk) in
  if Bytes.length b > 0 then b
  else begin
    let b = Bytes.make t.block_bytes '\000' in
    t.image.(blk) <- b;
    b
  end

(* Copy [len] bytes between the image at byte [pos] and [buf] at [bpos]. *)
let blit_in t ~pos buf ~bpos ~len =
  iter_span t ~pos ~len (fun blk o k n ->
      Bytes.blit buf (bpos + k) (writable t blk) o n)

let blit_out t ~pos buf ~bpos ~len =
  iter_span t ~pos ~len (fun blk o k n ->
      let b = t.image.(blk) in
      if Bytes.length b = 0 then Bytes.fill buf (bpos + k) n '\000'
      else Bytes.blit b o buf (bpos + k) n)

(* Host-side access to disk contents (setting up input files, reading
   outputs). *)
let write_image t ~block ~off data =
  blit_in t ~pos:((block * t.block_bytes) + off) (Bytes.unsafe_of_string data)
    ~bpos:0 ~len:(String.length data)

let read_image t ~block ~off ~len =
  let buf = Bytes.create len in
  blit_out t ~pos:((block * t.block_bytes) + off) buf ~bpos:0 ~len;
  Bytes.unsafe_to_string buf

let busy t = List.length t.queue >= t.queue_depth

(* Submit the staged request. Returns [false] if the queue is full (the
   kernel must retry; in practice it checks DISK_STATUS first). *)
let submit t ~now ~is_write =
  if busy t then false
  else begin
    let prev_done =
      match List.rev t.queue with r :: _ -> r.complete_at | [] -> now
    in
    let start = max now prev_done in
    let complete_at =
      start + t.seek_cycles + (t.reg_count * t.per_block_cycles)
    in
    let r =
      {
        block = t.reg_block;
        paddr = t.reg_addr;
        count = t.reg_count;
        is_write;
        complete_at;
      }
    in
    if is_write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
    t.queue <- t.queue @ [ r ];
    true
  end

(* Next completion time, or max_int if idle. *)
let next_event t =
  match t.queue with [] -> max_int | r :: _ -> r.complete_at

(* Process completions up to [now]: perform DMA against [mem]; returns the
   number of requests that completed (each raises the interrupt line). *)
let poll t ~now ~mem ~on_dma =
  let rec go n =
    match t.queue with
    | r :: rest when r.complete_at <= now ->
      t.queue <- rest;
      let len = r.count * t.block_bytes in
      let doff = r.block * t.block_bytes in
      if r.paddr < 0 || len < 0 || r.paddr > Bytes.length mem - len then
        invalid_arg "Disk: transfer out of range";
      if r.is_write then blit_in t ~pos:doff mem ~bpos:r.paddr ~len
      else blit_out t ~pos:doff mem ~bpos:r.paddr ~len;
      on_dma ~paddr:r.paddr ~len;
      t.done_blocks <- t.done_blocks @ [ r.block ];
      go (n + 1)
    | _ -> n
  in
  go 0

(* Completed-but-unacked request at the head, if any. *)
let done_block t = match t.done_blocks with b :: _ -> b | [] -> -1

let ack t =
  match t.done_blocks with
  | _ :: rest -> t.done_blocks <- rest
  | [] -> ()

let has_done t = t.done_blocks <> []
