(** The unit under design, elaborated on a kernel and a clock.

    The paper's flow simulates one unit twice: as the executable
    specification (configuration B, the HLIR design run by
    {!Hlcs_hlir.Interp}) and as the synthesised RT model (configuration C,
    the netlist of a {!Hlcs_synth.Synthesize.report} run by
    {!Hlcs_rtl.Sim}).  This module is the one place where either model is
    elaborated; a harness wires and observes the unit through the same
    answers in both cases, so B-against-C re-simulation is one body per
    harness ({!Equiv}, [System], [Sram_system]). *)

type model =
  | Behavioural of Hlcs_hlir.Ast.design
  | Rtl of Hlcs_synth.Synthesize.report  (** the report's netlist *)

type t

val elaborate : Hlcs_engine.Kernel.t -> clock:Hlcs_engine.Clock.t -> model -> t
(** Creates the unit's port signals and spawns its processes.
    @raise Hlcs_hlir.Typecheck.Type_error on an ill-formed behavioural
    design, [Invalid_argument] on an invalid netlist. *)

val in_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
(** The signal backing an input port; the environment writes it.
    @raise Not_found for unknown names. *)

val out_port : t -> string -> Hlcs_logic.Bitvec.t Hlcs_engine.Signal.t
(** The signal an output port drives. *)

val objects : t -> (string * (string * Hlcs_logic.Bitvec.t) list) list
(** Current field values per shared object: the interpreter's object
    state, or the synthesised field registers ([rp_field_regs]). *)

val object_arrays : t -> (string * (string * Hlcs_logic.Bitvec.t list) list) list
(** Current register-bank contents per shared object. *)

val synthesis : t -> Hlcs_synth.Synthesize.report option
(** The report an RTL unit was elaborated from; [None] when behavioural. *)

val counters : t -> (string * int) list
(** The RTL engine's counters in Obs-extras form ({!Hlcs_rtl.Sim.counters});
    [[]] when behavioural. *)
