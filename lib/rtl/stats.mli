(** Resource statistics over an {!Ir.design}: the "synthesis results" report
    of the flow.  Gate counts use a coarse per-bit cost model (sufficient to
    compare design alternatives — the ablations in DESIGN.md — not to
    predict a real technology mapping). *)

type t = {
  registers : int;
  register_bits : int;
  wires : int;
  wire_bits : int;
  adders : int;  (** Add/Sub/Neg operators *)
  multipliers : int;
  comparators : int;
  logic_ops : int;  (** And/Or/Xor/Not and reductions *)
  muxes : int;
  shifters : int;
  gate_estimate : int;
  critical_path : int;
      (** longest register-to-register combinational path, in operator
          levels (slices and concatenations count as wiring) *)
  max_comb_depth : int;
      (** deepest wire in wire-granularity levels: 1 + the deepest wire an
          assignment reads, inputs/registers/constants at level 0.  Equals
          {!Compile.levels} for the same design by construction. *)
  depth_histogram : int array;
      (** [depth_histogram.(l)] = assigned wires at level [l], for
          [l = 0 .. max_comb_depth]; index 0 is always 0.  Matches
          {!Compile.level_histogram}. *)
}

(** [of_design d] computes the report in one walk over each expression.
    A netlist in {!Ir.in_eval_order} (the linker's output) is levelized
    along [rd_assigns] as they stand; any other is sorted first, and a
    combinationally cyclic design degrades to depth 0 rather than
    raising. *)
val of_design : Ir.design -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
