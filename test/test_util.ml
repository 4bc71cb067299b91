(* Tests for the utility library. *)

open Systrace_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  check_int "copy continues" (Rng.next a) (Rng.next b)

let prop_rng_int_bounds =
  QCheck.Test.make ~count:500 ~name:"Rng.int stays in bounds"
    QCheck.(pair (int_bound 1000) (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_bits32 =
  QCheck.Test.make ~count:500 ~name:"Rng.bits32 is a 32-bit word"
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.bits32 r in
      v >= 0 && v <= 0xFFFFFFFF)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_percent_error () =
  check_float "overprediction" 10.0
    (Stats.percent_error ~measured:100.0 ~predicted:110.0);
  check_float "underprediction" 10.0
    (Stats.percent_error ~measured:100.0 ~predicted:90.0);
  check_float "exact" 0.0 (Stats.percent_error ~measured:5.0 ~predicted:5.0)

let test_table_render () =
  let t =
    Table.create ~title:"T" ~headers:[ "a"; "bb" ]
      ~aligns:[ Table.Left; Table.Right ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "contains header" true (contains s "bb");
  Alcotest.(check bool) "contains cell" true (contains s "22")

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let sq = List.map (fun x -> x * x) xs in
  check_int "serial path" 0 (List.length (Pool.map ~jobs:1 Fun.id []));
  Alcotest.(check (list int)) "jobs=1" sq (Pool.map ~jobs:1 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "jobs=4" sq (Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "more jobs than items" [ 1; 4 ]
    (Pool.map ~jobs:16 (fun x -> x * x) [ 1; 2 ])

let test_pool_exception () =
  let boom = Failure "boom" in
  let f x = if x = 7 then raise boom else x in
  (* [oversubscribe] so the parallel machinery actually runs even when the
     test box has a single core and the pool would otherwise degrade. *)
  Alcotest.check_raises "propagates from a worker" boom (fun () ->
      ignore (Pool.map ~oversubscribe:true ~jobs:4 f (List.init 20 Fun.id)));
  Alcotest.check_raises "propagates serially" boom (fun () ->
      ignore (Pool.map ~jobs:1 f (List.init 20 Fun.id)))

let test_pool_exception_order () =
  (* Both jobs rendezvous inside [f] before raising, so both failures are
     recorded whatever the scheduling — then input order must decide which
     one the caller sees. *)
  let arrived = Atomic.make 0 in
  let f x =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    failwith (string_of_int x)
  in
  Alcotest.check_raises "first in input order wins" (Failure "0") (fun () ->
      ignore (Pool.map ~oversubscribe:true ~jobs:2 f [ 0; 1 ]))

let prop_pool_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map == List.map for any jobs"
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.map ~jobs (fun x -> (2 * x) + 1) xs
      = List.map (fun x -> (2 * x) + 1) xs)

let prop_pool_1_vs_n =
  QCheck.Test.make ~count:30
    ~name:"Pool.map: 1-domain and N-domain runs agree"
    QCheck.(pair (int_range 2 6) (list_of_size Gen.(int_range 0 60) small_int))
    (fun (jobs, xs) ->
      let f x = (x * 7) lxor (x lsr 1) in
      Pool.map ~oversubscribe:true ~jobs f xs = Pool.map ~jobs:1 f xs)

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool exception order" `Quick test_pool_exception_order;
    QCheck_alcotest.to_alcotest prop_pool_matches_list_map;
    QCheck_alcotest.to_alcotest prop_pool_1_vs_n;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds;
    QCheck_alcotest.to_alcotest prop_rng_bits32;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "percent error" `Quick test_percent_error;
    Alcotest.test_case "table render" `Quick test_table_render;
  ]
