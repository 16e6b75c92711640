(** A fixed-size domain pool for embarrassingly-parallel batch jobs.

    The runtime's unit of work is a pure-ish job: a function applied to
    one element of an input array, building its own simulation kernels
    and touching no state shared with other jobs (the engine keeps all
    scheduler state inside {!Hlcs_engine.Kernel.t}, so one kernel per job
    is the whole discipline).  {!map} farms the input array over a fixed
    pool of domains — the caller and the domains it spawns — with a
    one-index-per-claim work queue, and returns the outcomes {e in
    submission order} (streaming them in that order too, if asked), so
    a parallel sweep is observationally identical to a sequential one.

    Fault isolation: a job that raises does not kill the sweep or the
    pool — it yields a structured {!failure} record in its slot and every
    other job still runs exactly once. *)

type failure = {
  f_index : int;  (** submission index of the job that failed *)
  f_exn : string;  (** [Printexc.to_string] of the escaping exception *)
  f_backtrace : string;  (** backtrace captured at the catch site *)
}

type 'a outcome = Done of 'a | Failed of failure

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when [map]
    is called without [?jobs]. *)

val map :
  ?jobs:int ->
  ?on_result:(int -> 'b outcome -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [map ~jobs ~on_result f items] applies [f] to every element of
    [items] on [min jobs (Array.length items)] domains and returns one
    outcome per element, index-aligned with the input.

    The caller is one of those domains: it spawns [min jobs n - 1]
    workers and runs jobs through the same loop as they do, so
    [jobs = 1] (or a singleton input) runs everything in the calling
    domain and spawns nothing — the deterministic baseline.  The caller
    does not park in [Domain.join] while the others work: a parked
    OCaml 5 domain still takes part in every stop-the-world minor
    collection, so it would slow down the domains doing the work.

    [jobs] defaults to {!recommended_jobs}.  A domain claims one index
    per queue round-trip: a batch item is a whole simulation, so the
    atomic claim is noise beside it.

    [on_result i outcome] streams the outcomes while the batch runs.  It
    is called exactly once per index, in index order and never
    concurrently, as soon as outcome [i] and every earlier one exist, by
    whichever domain completed that prefix (after each job when one
    domain runs them all).  It may therefore run on a spawned domain,
    and must not touch state the running jobs use.  If it raises, no
    domain claims another job, no further outcome is delivered, and
    [map] re-raises the exception once every spawned domain has been
    joined.

    Every element is claimed by exactly one domain (the queue is a single
    atomic cursor over the index space), and results are published under
    a lock and by joining every worker, so no job result is ever observed
    before it is fully written.

    @raise Invalid_argument if [jobs < 1]. *)
