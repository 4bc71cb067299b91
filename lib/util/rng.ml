(* Deterministic pseudo-random number generator (splitmix64).

   Every stochastic choice in the simulator (random page mapping, workload
   input generation, TLB random-replacement seeds) draws from an explicit
   [Rng.t] so that experiments are reproducible run-to-run.  We do not use
   [Stdlib.Random] anywhere. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A non-negative int with the full 62 bits of entropy available to OCaml's
   native [int]. *)
let next t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod bound

let float t = float_of_int (next t) /. 4611686018427387904.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* 32-bit word of random bits, as a non-negative int. *)
let bits32 t = Int64.to_int (Int64.logand (next_int64 t) 0xFFFFFFFFL)
