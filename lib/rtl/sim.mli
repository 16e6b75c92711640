(** Cycle-based execution of an {!Ir.design} on the simulation kernel — the
    post-synthesis re-simulation step of the paper's flow.

    On every rising clock edge the simulator samples the input signals,
    settles the combinational network, computes all register updates from
    the pre-edge values, commits them, re-settles, and drives the output
    signals. *)

type t

type engine = [ `Levelized | `Compiled ]
(** [`Levelized] (the default) runs the {!Compile} engine: dense compiled
    tables, dirty-cone settles, unboxed narrow nets.  [`Compiled] runs
    {!Codegen}'s generated straight-line code, Dynlink-loaded from the
    on-disk artefact cache; when code generation is unavailable (no
    ocamlopt, bytecode runtime, unusable cache dir) the run degrades to
    [`Levelized] and {!fallback_reason} says why.  Both produce identical
    signal traffic and VCDs. *)

val elaborate :
  Hlcs_engine.Kernel.t ->
  clock:Hlcs_engine.Clock.t ->
  ?engine:engine ->
  Ir.design ->
  t
(** Validates the design and spawns the evaluation process.
    @raise Invalid_argument when {!Ir.validate} fails. *)

val in_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
val out_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t

val reg_value : t -> string -> Hlcs_logic.Bitvec.t
(** Current value of a register, by name. @raise Not_found. *)

val reg_names : t -> string list
val cycles : t -> int
(** Rising edges executed. *)

val engine_used : t -> engine
(** The engine actually running — differs from the requested one exactly
    when a [`Compiled] request degraded to [`Levelized]. *)

val fallback_reason : t -> string option
(** Why a [`Compiled] request degraded, when it did. *)

val counters : t -> (string * int) list
(** Engine counters in Obs-extras form: [rtl_engine] (1 = levelized,
    2 = compiled) followed by the {!Compile.counters} keys; the compiled
    engine appends [codegen_cache_hit] / [codegen_compiled] recording
    whether its artefact was reused or built this run. *)
