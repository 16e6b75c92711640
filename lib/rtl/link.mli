(** Module-granular netlist linking: stitch independently synthesised
    {!Ir.design} fragments into one final design.

    A {e fragment} is an ordinary [Ir.design] with two extra conventions:

    - an {e import} is an [Ir.Input ("$sym", w)] expression — a reference
      to a value produced by some other fragment;
    - an {e export} is an output named ["$sym"] (declared with
      [add_output] and driven like any port) whose driver defines that
      symbol.

    [$]-prefixed names never survive linking: every import is substituted
    by the (renamed-into-the-final-namespace) expression driving the
    matching export, and [$]-outputs are dropped from the final port
    list.  Everything else — wires, registers, assigns, updates, real
    port drives — is re-emitted through a fresh {!Ir.builder}, so the
    final design has the dense identifier space the downstream passes
    ({!Compile}, {!Sim}, {!Stats}) size their arrays by,
    while each fragment keeps its own stable local namespace and is never
    rewritten when a neighbouring fragment changes.

    Registers are allocated before wires (fragment order preserved in
    both groups), so register names — the pairing key of the
    combinational equivalence checker — do not depend on how many dead
    wires a fragment-level optimisation removed. *)

exception Link_error of string

val import : string -> int -> Ir.expr
(** [import sym width] — an [Ir.Input] reference to the export [sym]. *)

val export_name : string -> string
(** The output-port name under which a symbol is exported. *)

val is_symbol : string -> bool
(** True for [$]-prefixed (linker-internal) names. *)

val link :
  name:string ->
  inputs:(string * int) list ->
  outputs:(string * int) list ->
  ?strip_dead:bool ->
  Ir.design list ->
  Ir.design * Ir.reg array list
(** [link ~name ~inputs ~outputs frags] builds the final design: [name]
    becomes [rd_name], [inputs]/[outputs] the real port lists (every
    output must be driven by exactly one fragment).  Export drivers may
    themselves be imports (fragment-level copy propagation can collapse a
    symbol onto another); such chains are followed, cycles rejected.

    Returns the design plus, per input fragment (same order), an array
    mapping the fragment's local register ids to the final registers —
    register ids are dense in builder output and no optimisation pass
    removes registers, so the array is total.

    [strip_dead] (default [false]) runs {!Opt.eliminate_dead} on the
    linked design, removing logic whose only consumer was an export no
    fragment imported.

    @raise Link_error on an unresolved or doubly-exported symbol, an
    import/export width mismatch, an import cycle, or any
    inconsistency the underlying builder rejects. *)
