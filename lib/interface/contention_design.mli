(** The FW1 contention experiment: the temporal cost of a method call as
    the number of concurrent callers grows (the paper's future work).

    [nprocs] worker processes each make [rounds] back-to-back calls of
    one guarded method on one shared object.  The synthesised server
    grants at most one call per cycle, so per-call completion time grows
    with the number of contenders.  [hlcs_cli latency] and the bench
    harness's FW1 table both read {!rtl_cycles}. *)

val rounds_range : int * int
(** 1 to 255: the callers count their calls in an 8-bit local, so more
    rounds would wrap it. *)

val design :
  policy:Hlcs_osss.Policy.t -> nprocs:int -> rounds:int -> Hlcs_hlir.Ast.design
(** Object [ctr] (a 16-bit counter with one method, [bump]) under
    [policy], and workers [w0] … [w(nprocs-1)]; worker [i] has priority
    [i] and raises output port [done<i>] after its last call.
    @raise Invalid_argument if [nprocs] is below 1 or [rounds] is
    outside {!rounds_range}. *)

val rtl_cycles : policy:Hlcs_osss.Policy.t -> nprocs:int -> rounds:int -> int
(** Synthesises {!design}, runs the netlist on the levelized engine with
    a 10 ns clock, and returns the cycle on which the last [done] port
    rose.
    @raise Failure if some worker has not finished within 10 ms of
    simulated time. *)
