(** Compiled, levelized, incrementally-evaluated form of an {!Ir.design}.

    {!compile} lowers a validated design into dense integer-indexed tables:
    every input, register and wire gets a net id into flat value arrays
    (raw [int] slots for nets up to {!max_fast} bits, [Bitvec.t] slots
    beyond), every assigned wire becomes an evaluation node placed at a
    combinational level, and per-net fanout adjacency records which nodes
    read each net.

    Evaluation is dirty-cone driven: {!set_input} and {!step_registers}
    queue only the fanout of nets whose value actually changed, and
    {!settle} re-evaluates just that transitive cone in ascending level
    order, visiting each node at most once.  {!Sim} drives this engine;
    it is exposed so tests and tools can check the levelizer's invariants
    directly. *)

type t

val max_fast : int
(** Widest net carried unboxed as a raw [int] (62 on 64-bit hosts; native
    int arithmetic plus masking is exact up to that width). *)

val compile : Ir.design -> t
(** Validates and lowers the design.  All registers hold their initial
    values, wires are zero until the first {!full_settle}.

    The static lowering (validation, levelization, fanout adjacency and the
    compiled evaluation closures) is memoized per physical design under a
    mutex, so re-simulating a design handed out by the synthesis cache only
    allocates the per-run value arrays; the shared plan is immutable and
    safe to use from several domains at once.
    @raise Invalid_argument when {!Ir.validate} fails, or when the design
    reads an input it does not declare or at another width than declared
    (both of which [validate] accepts in a link fragment). *)

(** {1 Evaluation} *)

val set_input : t -> int -> Hlcs_logic.Bitvec.t -> unit
(** [set_input t i v] writes input number [i] (its position in
    [rd_inputs]) and, when the value changed, queues its fanout. *)

val settle : t -> unit
(** Re-evaluates the queued dirty cone in level order.  No-op when nothing
    changed since the last settle. *)

val full_settle : t -> unit
(** Evaluates every node once in level order and clears the dirty state:
    the initial settle after elaboration. *)

val step_registers : t -> bool
(** Computes the next value of every register whose update support changed
    since it last evaluated (an unqueued update would recompute the value
    its register already holds), then commits; changed registers queue
    their fanout.  Returns [true] iff any register changed.  Callers
    settle first so the update expressions see settled wires. *)

val drives : t -> (string * (unit -> Hlcs_logic.Bitvec.t)) array
(** Output drive evaluators, in [rd_drives] order.  Narrow drives memoize
    their boxing, so reading a stable output does not allocate. *)

val reg_value : t -> Ir.reg -> Hlcs_logic.Bitvec.t

(** {1 Static structure} *)

val design : t -> Ir.design
val levels : t -> int
(** Maximum combinational level (the depth of the levelized network). *)

val node_count : t -> int
(** Assigned wires, i.e. evaluation nodes. *)

val level_histogram : t -> int array
(** [histogram.(l)] is the number of nodes at level [l]; index 0 is always
    0 (inputs, registers and constants are level 0 but are not nodes). *)

(** {1 Counters} *)

val counters : t -> (string * int) list
(** Monotonic evaluation counters, in Obs-extras form: [rtl_levels] and
    [rtl_nodes] (static), [rtl_settles], [rtl_nodes_evaluated],
    [rtl_nodes_skipped] (nodes outside the dirty cone, per settle),
    [rtl_cone_max] (largest incremental cone; the initial full settle is
    excluded), [rtl_fast_evals] / [rtl_wide_evals] (node evaluations that
    ran fully unboxed vs ones touching [Bitvec.t]), [rtl_update_evals] /
    [rtl_updates_skipped] (register updates evaluated vs skipped because
    their support was unchanged). *)
