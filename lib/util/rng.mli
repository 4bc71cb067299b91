(** Deterministic splitmix64 pseudo-random number generator.

    All stochastic behaviour in the tracing system and simulators draws from
    an explicit generator so experiments are reproducible. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val next : t -> int
(** Next non-negative pseudo-random int (62 bits of entropy). *)

val int : t -> int -> int
(** [int t bound] is uniform-ish in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool

val bits32 : t -> int
(** A 32-bit word of random bits, in [\[0, 2^32)]. *)
