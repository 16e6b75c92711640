(** The communication synthesiser — this library's reproduction of the
    ODETTE tool's synthesis step.

    A checked {!Hlcs_hlir.Ast.design} is compiled to a single-clock
    {!Hlcs_rtl.Ir.design}:

    - every process becomes a Moore-style FSM (one state per scheduling
      step; locals and emitted output ports become registers);
    - every guarded-method call site becomes a request/grant/done handshake:
      the client latches the arguments, raises a request line and stalls
      until the object's server grants it and hands back the result.  A
      channel's call sites are one {!Fsm.request}: its request line is an
      OR tree of fan-in 8 over their states, and its [done] reaches each
      call site through a gate tree over the same nodes, so neither the
      request nor the grant is read by more nets as the script grows;
    - every global object becomes a {e shared-object server}: field
      registers, combinational guard evaluation per pending request, an
      arbiter implementing the object's scheduling policy (FCFS, static
      priority, or a rotating round-robin pointer), and single-cycle
      method datapaths.  FCFS keeps one age counter per client and
      compares two clients' ages once, on an order wire
      [<obj>_age_ge_c<x>_c<y>] that every grant reads, so a grant
      re-evaluates when an eligibility changes or an order flips, not on
      every cycle an age counts;
    - a [`Virtual`] method synthesises to a dispatch mux over the object's
      tag field — the hardware-oriented polymorphism of SystemC+.

    {b Unit-granular synthesis.}  Synthesis is internally split into
    independently compilable {e units}: one per process, one per shared
    object, plus one holding the constant drivers of output ports no
    process emits.  {!plan} partitions a design into units and gives each
    a content {e signature} (a digest over the unit's own declaration,
    the interfaces of everything it references, and the option fields its
    lowering reads); {!synthesize_unit} compiles one unit to a netlist
    fragment whose cross-unit references are linker symbols; {!link_plan}
    stitches the fragments into the final design with
    {!Hlcs_rtl.Link.link}.  {!synthesize} is exactly
    [plan] + [synthesize_unit] on every unit + [link_plan], so an
    incremental relink of cached fragments and a from-scratch synthesis
    run the same deterministic pipeline and produce byte-identical
    reports — the property {!Synth_cache} relies on to resynthesise only
    dirty units.

    The synthesised netlist is behaviourally equivalent to the interpreter
    at the transaction level (same per-port emission sequences, same
    per-process call/result sequences, same final object states); cycle
    counts differ because high-level statements execute in zero time.

    {b Output-stability discipline}: trace equivalence assumes each output
    port is emitted at most once per scheduling step (between two
    time-consuming statements).  A behavioural model overwrites same-delta
    emissions so only the last value is ever visible, whereas the FSM
    commits registers at every state boundary; a port written by two
    sites with no wait between them therefore shows a transient
    intermediate value at RT level.  Write-once-per-step is the same rule
    industrial behavioural synthesis imposes on I/O. *)

exception Synthesis_error of string

type options = {
  chaining : bool;
      (** [true] (default): consecutive assignments share one FSM state,
          chained combinationally.  [false]: one assignment per state —
          smaller logic depth, more states (the ablation of DESIGN.md). *)
  age_width : int;  (** width of the FCFS age counters (default 16) *)
  optimize : bool;
      (** run the {!Hlcs_rtl.Opt} clean-up passes on each generated
          fragment, and dead-strip the linked netlist (default [true]) *)
}

val default_options : options

type report = {
  rp_rtl : Hlcs_rtl.Ir.design;
  rp_process_states : (string * int) list;  (** FSM states per process *)
  rp_object_channels : (string * int) list;
      (** request channels (call sites grouped by method and caller) per
          object *)
  rp_field_regs : (string * (string * string) list) list;
      (** object -> (field, RTL register name); lets verification read the
          post-synthesis object state back out of the netlist *)
  rp_array_regs : (string * (string * string list) list) list;
      (** object -> (array, element register names in index order) *)
  rp_fsm_dot : (string * string) list;
      (** process -> Graphviz rendering of its compiled FSM *)
  rp_units : (string * string) list;
      (** synthesis unit -> content signature, in plan order *)
  rp_stats : Hlcs_rtl.Stats.t;
}

val synthesize : ?options:options -> Hlcs_hlir.Ast.design -> report
(** @raise Synthesis_error on designs outside the synthesisable subset
    (e.g. an output port driven by two processes).
    @raise Hlcs_hlir.Typecheck.Type_error on ill-typed designs. *)

val pp_report : Format.formatter -> report -> unit

(** {1 The unit-granular pipeline}

    The pieces {!synthesize} is made of, exposed so {!Synth_cache} can
    memoise per-unit fragments and tools can inspect the partition. *)

type unit_decl
(** One synthesisable unit: a process together with the interfaces it
    references (input-port widths, owned output ports, the parameter and
    result shapes of every method it calls), a shared object together
    with the interface of every channel into it, or the bundle of
    unowned output ports.  Everything a unit's fragment is a function of
    is inside the value — which is what makes {!plan_unit.u_signature} an
    honest dirtiness test. *)

type plan_unit = {
  u_name : string;
      (** ["process:<name>"], ["object:<name>"] or ["ports"] *)
  u_signature : string;
      (** hex digest of the unit's content under the active options; two
          units with equal signatures synthesise to identical fragments *)
  u_decl : unit_decl;
}

type plan = {
  pl_name : string;
  pl_options : options;
  pl_inputs : (string * int) list;
  pl_outputs : (string * int) list;
  pl_units : plan_unit list;
  pl_object_channels : (string * int) list;
}

type fragment
(** A per-unit netlist: an {!Hlcs_rtl.Ir.design} whose cross-unit
    references are {!Hlcs_rtl.Link} symbols, plus the metadata
    ({!report} rows) the unit contributes.  Pure data — safe to marshal
    and share across domains. *)

val plan : ?options:options -> Hlcs_hlir.Ast.design -> plan
(** Partition a design into units.  Runs the typechecker and performs
    the whole-design static checks (e.g. the one-writer-per-output-port
    rule), so the per-unit synthesis of a planned unit cannot fail on a
    cross-unit conflict.

    @raise Synthesis_error / Hlcs_hlir.Typecheck.Type_error as
    {!synthesize} does. *)

val synthesize_unit : options -> unit_decl -> fragment
(** Compile one unit.  A pure function of its two arguments — the
    foundation of signature-keyed fragment caching. *)

val link_plan : plan -> fragment list -> report
(** Stitch fragments (one per [pl_units] entry, same order) into the
    final design and assemble the report.  Deterministic: the same plan
    and fragments always produce byte-identical reports, however each
    fragment was obtained (fresh synthesis, memory cache, disk cache). *)

val fragment_design : fragment -> Hlcs_rtl.Ir.design
(** The fragment's netlist, for inspection and statistics. *)
