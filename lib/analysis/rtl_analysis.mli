(** Static analysis of RT-level netlists, emitted through {!Diag} — the
    checks {!Hlcs_rtl.Ir.validate} performs as exceptions/strings, turned
    into structured diagnostics, plus the netlist-hygiene rules a
    downstream RTL synthesiser would trip over:

    - [rtl-multi-driver] (error): a wire, output or register with more
      than one driver — netlist wires are not resolved, so concurrent
      drivers conflict;
    - [rtl-comb-loop] (error): a combinational cycle, with the witness
      wire path (the {!Hlcs_rtl.Ir.topo_order} machinery surfaced as a
      diagnostic instead of an exception);
    - [rtl-width] (error): width violations on assignments, output
      drivers, register updates, and inputs referenced at the wrong
      width;
    - [rtl-x-source] (error): X-propagation sources — wires read but
      never assigned, outputs never driven, references to undeclared
      inputs;
    - [rtl-latch] (info): a wire read by an assignment listed before
      the wire's own driver — correct under our topologically-sorting
      simulator, but sequential-semantics HDL reads stale state there
      (the accidental-latch shape); info-level because the synthesiser
      emits this shape routinely and relies on the re-sort;
    - [rtl-unused] (info): wires that drive nothing (dead logic). *)

val rule_multi_driver : string
val rule_comb_loop : string
val rule_width : string
val rule_x_source : string
val rule_latch : string
val rule_unused : string

val analyze : Hlcs_rtl.Ir.design -> Diag.t list
(** All of the above, over the netlist's own [rd_name], in the order the
    rules are listed and, within a rule, in netlist order.

    One walk over every right-hand side gathers the facts of all six
    rules: each expression's width, carried up from its operands (an
    [rtl-width] message is taken from {!Hlcs_rtl.Ir.expr_width} only for
    a tree that violates), the wires and inputs it reads, and whether a
    wire's last assignment reads a wire whose last assignment is not
    earlier.  Only such a backward read can close a cycle, so the
    depth-first sort runs only then, to find the witness; the linker's
    netlists never pay it.  Names and scope strings are built only for
    diagnostics that are emitted, so a clean netlist costs one walk. *)
