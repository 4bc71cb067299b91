(* Small statistics helpers used by the validation harness and benches. *)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let minimum xs = List.fold_left min infinity xs
let maximum xs = List.fold_left max neg_infinity xs

(* Percent error of a prediction against a measurement, as the paper's
   Figure 3 plots it: |predicted - measured| / measured * 100. *)
let percent_error ~measured ~predicted =
  if measured = 0.0 then if predicted = 0.0 then 0.0 else infinity
  else abs_float (predicted -. measured) /. abs_float measured *. 100.0

