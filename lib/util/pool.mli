(** Fixed-size domain work pool for independent jobs (stdlib [Domain] /
    [Mutex] only; no new packages).

    Used by the validation harness to run the measured/predicted matrix —
    each cell a self-contained machine simulation — across cores. *)

val map :
  ?oversubscribe:bool ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on a pool of
    domains and returns the results in input order.

    The pool size is [min jobs (Domain.recommended_domain_count ())]
    unless [oversubscribe] is [true]: running more domains than cores is
    a measured slowdown under OCaml 5's stop-the-world minor collector
    (DESIGN.md §5d), so requests beyond the hardware are clamped by
    default.  [oversubscribe] keeps the literal [jobs] for tests and
    experiments that want the contention on purpose.

    Workers claim one index at a time.

    If any job raises, the exception of the first failing job in input
    order (among those that ran — later items may be abandoned) is
    re-raised in the caller after all workers have stopped.  With one
    effective worker (or fewer than two items) this is exactly
    [List.map f xs] on the calling domain. *)

val effective_jobs : ?oversubscribe:bool -> jobs:int -> int -> int
(** [effective_jobs ~jobs n] is the number of worker domains [map] would
    use for [n] items: [jobs] clamped to the hardware core count (unless
    [oversubscribe]) and to [n], at least 1.  Benchmarks use it to report
    the worker count that actually ran. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)
