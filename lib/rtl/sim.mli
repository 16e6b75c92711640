(** Cycle-based execution of an {!Ir.design} on the simulation kernel — the
    post-synthesis re-simulation step of the paper's flow.

    On every rising clock edge the simulator samples the input signals,
    settles the combinational network, computes all register updates from
    the pre-edge values, commits them, re-settles, and drives the output
    signals.  The evaluator is {!Compile}'s levelized engine: dense
    compiled tables, dirty-cone settles, unboxed narrow nets. *)

type t

val elaborate : Hlcs_engine.Kernel.t -> clock:Hlcs_engine.Clock.t -> Ir.design -> t
(** Validates the design and spawns the evaluation process.
    @raise Invalid_argument when {!Compile.compile} refuses the design. *)

val in_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
val out_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t

val reg_value : t -> string -> Hlcs_logic.Bitvec.t
(** Current value of a register, by name. @raise Not_found. *)

val reg_names : t -> string list
val cycles : t -> int
(** Rising edges executed. *)

val counters : t -> (string * int) list
(** The {!Compile} engine's counters ({!Compile.counters}), in Obs-extras
    form. *)
