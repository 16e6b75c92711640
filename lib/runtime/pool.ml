(* Domain-pool batch engine.

   The work queue is a single atomic cursor over the input index space:
   a worker claims one index per fetch-and-add, runs it, and publishes
   its outcome into its own slot of a preallocated result array.  Index
   partitioning gives exactly-once execution by construction (two
   workers can never claim the same index).

   The caller is one of the workers: it spawns [jobs - 1] domains and
   runs the same loop itself rather than parking in [Domain.join].  A
   parked OCaml 5 domain still takes part in every stop-the-world minor
   collection, so a caller that only waits slows every worker down.

   Slots are written and read under [lock], which also serialises
   delivery: whichever worker publishes the slot that extends the
   delivered prefix becomes the deliverer and hands every consecutive
   ready outcome to [on_result], outside the lock, until it meets an
   empty slot.  A publisher that finds a deliverer already at work
   leaves its slot to it: the deliverer re-checks the next slot under
   the lock before it stops.  The final [Domain.join] on every spawned
   worker publishes the remaining slot writes to the caller. *)

type failure = { f_index : int; f_exn : string; f_backtrace : string }
type 'a outcome = Done of 'a | Failed of failure

let recommended_jobs () = Domain.recommended_domain_count ()

let run_one f items i =
  match f items.(i) with
  | v -> Done v
  | exception exn ->
      Failed
        {
          f_index = i;
          f_exn = Printexc.to_string exn;
          f_backtrace = Printexc.get_backtrace ();
        }

let map ?jobs ?(on_result = fun _ _ -> ()) f items =
  let n = Array.length items in
  let jobs = match jobs with None -> recommended_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let delivered = ref 0 (* under [lock]: outcomes handed to [on_result] *) in
  let delivering = ref false (* under [lock]: a worker is delivering *) in
  let raised = ref None (* under [lock]: what [on_result] raised *) in
  let stop = Atomic.make false in
  (* called and returns with [lock] held *)
  let rec deliver () =
    match if !delivered < n then results.(!delivered) else None with
    | None -> delivering := false
    | Some r -> (
        let i = !delivered in
        incr delivered;
        Mutex.unlock lock;
        match on_result i r with
        | () ->
            Mutex.lock lock;
            deliver ()
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock lock;
            (* [delivering] stays set: nothing is delivered after this *)
            raised := Some (exn, bt);
            Atomic.set stop true)
  in
  let publish i r =
    Mutex.lock lock;
    results.(i) <- Some r;
    if not !delivering then begin
      delivering := true;
      deliver ()
    end;
    Mutex.unlock lock
  in
  let worker () =
    let continue = ref true in
    while !continue && not (Atomic.get stop) do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue := false else publish i (run_one f items i)
    done
  in
  let spawned = Array.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  match !raised with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None ->
      Array.map
        (function Some r -> r | None -> assert false (* every index was claimed *))
        results
