(** Linked executable images.

    Data and BSS are merged ([Dspace] regions are zero-filled), so loading
    is a matter of copying [text] and [data] to their bases. *)

type t = {
  name : string;
  entry : int;
  text_base : int;
  text : int array;            (** encoded instruction words *)
  text_insns : Insn.t array;   (** resolved ASTs, for tools *)
  data_base : int;
  data : Bytes.t;
  symbols : (string, int) Hashtbl.t;
  traced : bool;
      (** Ultrix marks traced programs with a flag in the executable
          image (paper §3.6). *)
}

val symbol : t -> string -> int
(** Raises [Failure] with the executable and symbol names if absent. *)

val symbol_opt : t -> string -> int option

val text_size_bytes : t -> int
val text_limit : t -> int

val disassemble : ?lo:int -> ?hi:int -> t -> string
(** Human-readable listing with symbol annotations, optionally restricted
    to an address window. *)
