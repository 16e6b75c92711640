(** The paper's three-step experiment as a reusable harness:

    1. simulate the executable specification (behavioural HLIR run),
    2. synthesise it to RT level,
    3. re-simulate the RT model with the same stimuli and check behaviour
       consistency.

    Consistency means: identical value-change histories on every output
    port, and identical final state of every shared object (read back from
    the synthesised field registers).  Both models are elaborated through
    {!Uud} and run by one harness body; a port's history is its reset
    value followed by every committed change
    ({!Hlcs_engine.Signal.on_commit}), the cycle-insensitive normal form in
    which a zero-time interpreter run and a clocked RTL run compare. *)

type side = {
  sd_ports : (string * Hlcs_logic.Bitvec.t list) list;
  sd_objects : (string * (string * Hlcs_logic.Bitvec.t) list) list;
  sd_object_arrays : (string * (string * Hlcs_logic.Bitvec.t list) list) list;
  sd_sim_time : Hlcs_engine.Time.t;
  sd_deltas : int;
  sd_wall_seconds : float;
}

type verdict = {
  vd_behavioural : side;
  vd_rtl : side;
  vd_synthesis : Hlcs_synth.Synthesize.report;
  vd_mismatches : string list;
  vd_equivalent : bool;
}

type stimulus =
  Hlcs_engine.Kernel.t ->
  Hlcs_engine.Clock.t ->
  (string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t) ->
  unit
(** Spawns environment processes; the callback resolves the design's input
    ports by name.  The same stimulus runs against both models. *)

val no_stimulus : stimulus

val check :
  ?options:Hlcs_synth.Synthesize.options ->
  ?stimulus:stimulus ->
  ?max_time:Hlcs_engine.Time.t ->
  ?clock_period:Hlcs_engine.Time.t ->
  Hlcs_hlir.Ast.design ->
  verdict
(** Synthesises the design, then runs the behavioural model and the
    netlist (on the [`Levelized] engine) under the same stimulus.
    [max_time] defaults to 1 ms of simulated time, [clock_period] to
    10 ns. *)

val pp_verdict : Format.formatter -> verdict -> unit
