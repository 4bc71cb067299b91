(** Relocatable object modules.

    Text is a list of instructions interleaved with labels; instructions
    keep symbolic operands, so symbols and relocations are structural —
    the property epoxie exploits to do all address correction statically
    at link time. *)

module SSet : Set.S with type elt = string

type titem =
  | Label of string
  | Insn of Insn.t

type ditem =
  | Dlabel of string
  | Dword of int
  | Daddr of string * int     (** address of symbol + addend *)
  | Dbytes of string
  | Dspace of int             (** zero-filled *)
  | Dalign of int

type t = {
  name : string;
  text : titem list;
  data : ditem list;
  globals : SSet.t;          (** symbols visible to other modules *)
  protected : SSet.t;        (** functions epoxie must not instrument *)
  no_instrument : bool;      (** whole module excluded from instrumentation *)
}

val insns : t -> Insn.t list
val insn_count : t -> int

val validate : t -> t
(** Structural checks (raises [Failure]): duplicate labels, control
    transfers in delay slots, labels landing in delay slots, text ending
    with an unfilled slot. *)
