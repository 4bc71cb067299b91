(** Statistics helpers for the validation harness. *)

val mean : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val percent_error : measured:float -> predicted:float -> float
(** [|predicted - measured| / measured * 100], the quantity in Figure 3. *)
