(** Emission of an {!Ir.design} as Verilog-2001 text — the cross-check
    artefact beside {!Vhdl}: one module with a [posedge clk] process for
    the registers and continuous assignments for the combinational
    network, with operator encodings chosen to match the simulation
    engine's semantics (zero-filling shifts, or-reduced mux conditions,
    shift-and-mask slices of non-atomic operands). *)

val pp_design : Format.formatter -> Ir.design -> unit
val to_string : Ir.design -> string
val write_file : string -> Ir.design -> unit

val expr_to_string : Ir.expr -> string
(** The Verilog rendering of one expression. *)
