(* Fixed-size domain work pool.

   The validation harness runs the full Table 2/3 matrix — every workload
   under both personalities, measured and predicted — and every cell is an
   independent full-machine simulation.  [map] farms such jobs out to a
   pool of domains (OCaml 5 [Domain] and [Mutex] from the stdlib only; no
   new packages, per DESIGN.md §6).

   Guarantees:
   - results come back in input order, regardless of completion order;
   - an exception in any job is re-raised in the caller (the first failing
     job in input order, among those that ran, wins) after all workers
     have stopped;
   - one effective worker (or fewer than two items) degrades to a plain
     [List.map] on the calling domain, so serial runs take the exact same
     code path through the job closures.

   Scheduling (DESIGN.md §5d):
   - Workers are capped at [Domain.recommended_domain_count ()] unless
     [~oversubscribe:true].  OCaml 5's minor collector is stop-the-world
     across domains: on a box with fewer cores than [jobs], descheduled
     domains stall every minor GC for everyone, and the "parallel" run
     loses to the serial one (measured 0.39x at [-j 4] on one core).
     Capping turns that configuration back into the serial path.
   - Workers claim one index at a time under a mutex: every caller maps
     a few dozen whole simulations at most, so the lock is never hot.
   - Each worker's first action is to grow its own minor heap: spawned
     domains do NOT inherit the parent's [Gc.set], and the default minor
     heap makes allocation-heavy simulation cells trigger frequent
     stop-the-world minor collections across the pool. *)

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* Minor heap per worker domain, in words (16 MB on 64-bit). *)
let worker_minor_heap = 1 lsl 21

let effective_jobs ?(oversubscribe = false) ~jobs n =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let j = if oversubscribe then jobs else min jobs cores in
  max 1 (min j n)

let map ?(oversubscribe = false) ~jobs f xs =
  let n = List.length xs in
  let nworkers = effective_jobs ~oversubscribe ~jobs n in
  if nworkers <= 1 || n <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make n Pending in
    let next = ref 0 in
    let m = Mutex.create () in
    let failed = Atomic.make false in
    (* Claim an index under the mutex; compute outside it.  Workers keep
       claiming until the queue is empty or some job has failed (no point
       starting new work that will be thrown away). *)
    let claim () =
      Mutex.lock m;
      let k = if Atomic.get failed || !next >= n then -1 else !next in
      if k >= 0 then incr next;
      Mutex.unlock m;
      k
    in
    let worker () =
      let g = Gc.get () in
      if g.Gc.minor_heap_size < worker_minor_heap then
        Gc.set { g with Gc.minor_heap_size = worker_minor_heap };
      let rec go () =
        let k = claim () in
        if k >= 0 then begin
          (match f items.(k) with
          | r -> results.(k) <- Done r
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            results.(k) <- Failed (e, bt);
            Atomic.set failed true);
          go ()
        end
      in
      go ()
    in
    let domains = Array.init nworkers (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    Array.iter
      (function
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending | Done _ -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Done r -> r
           | Pending | Failed _ -> assert false (* no failure, all claimed *))
         results)
  end

let default_jobs () = Domain.recommended_domain_count ()
