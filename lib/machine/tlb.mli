(** The machine's software-managed TLB, R3000 style: 64 entries, fully
    associative, random replacement via the free-running Random register
    (entries 0..7 are wired).

    EntryHi: VPN[31:12] | ASID[11:6].
    EntryLo: PFN[31:12] | N[11] | D[10] | V[9] | G[8]. *)

type entry = { mutable hi : int; mutable lo : int }

type t = {
  entries : entry array;
  index : (int, int list) Hashtbl.t;
}

val size : int
val wired : int

val entrylo_d : int
val entrylo_v : int

val make_entryhi : vpn:int -> asid:int -> int

val make_entrylo :
  ?noncacheable:bool ->
  ?dirty:bool ->
  ?valid:bool ->
  ?global:bool ->
  pfn:int ->
  unit ->
  int

val create : unit -> t
val reset : t -> unit

val write : t -> int -> hi:int -> lo:int -> unit
val read : t -> int -> int * int
val probe : t -> vpn:int -> asid:int -> int option

type lookup =
  | Hit of { pfn : int; dirty : bool; noncacheable : bool }
  | Miss
  | Invalid
  | Modified

val lookup : t -> vpn:int -> asid:int -> write:bool -> lookup

val random_index : cycle:int -> int
(** The Random register's value at a given cycle (cycles over
    [\[wired, size))). *)
