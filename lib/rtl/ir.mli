(** The register-transfer-level netlist produced by the synthesiser: a set
    of registers updated on the (single, implicit) clock's rising edge and
    combinational assignments between them.  This is the "RT level
    description [handed] to an RTL to gate synthesiser" of the paper's
    flow; here it is simulated by {!Sim} and printed by {!Vhdl}. *)

type unop = Not | Neg | Reduce_or | Reduce_and | Reduce_xor

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Shl
  | Shr
  | Concat

type wire = private { w_id : int; w_name : string; w_width : int }
type reg = private { r_id : int; r_name : string; r_width : int; r_init : Hlcs_logic.Bitvec.t }

type expr =
  | Const of Hlcs_logic.Bitvec.t
  | Wire of wire
  | Reg of reg  (** current (pre-edge) register value *)
  | Input of string * int
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Mux of expr * expr * expr
  | Slice of expr * int * int

type design = {
  rd_name : string;
  rd_inputs : (string * int) list;
  rd_outputs : (string * int) list;
  rd_wires : wire list;
  rd_regs : reg list;
  rd_assigns : (wire * expr) list;  (** combinational; one per wire; acyclic *)
  rd_drives : (string * expr) list;  (** output port drivers *)
  rd_updates : (reg * expr) list;
      (** clocked: [r <= e]; a register without an update holds its value *)
}

val expr_width : expr -> int
(** @raise Invalid_argument on width violations. *)

(** {2 Widths bottom-up}

    The width rule of one operator node, from its operands' widths, for
    passes that carry widths up a tree in one walk instead of measuring
    every sub-tree with {!expr_width}.  Each returns the node's
    {!expr_width}, or {!bad_width} where that would raise.  A bad operand
    makes its node bad, shift amounts and reduction operands included,
    though those two may have any width. *)

val bad_width : int
val unop_width : unop -> int -> int
val binop_width : binop -> int -> int -> int
val mux_width : int -> int -> int -> int
(** [mux_width cond then_ else_] *)

val slice_width : int -> hi:int -> lo:int -> int

(** {1 Operator semantics}

    The one table of what each operator computes, over [Bitvec.t]
    operands of the widths {!expr_width} admits.  {!Opt} folds constants
    with it and the test suite's reference evaluator runs on it; the
    engine ({!Compile}) and [Hlcs_analysis.Blast] lower the same
    semantics to their own representations. *)

val eval_unop : unop -> Hlcs_logic.Bitvec.t -> Hlcs_logic.Bitvec.t
val eval_binop : binop -> Hlcs_logic.Bitvec.t -> Hlcs_logic.Bitvec.t -> Hlcs_logic.Bitvec.t
(** Shifts by at least the operand's width give zero. *)

val shift_amount : Hlcs_logic.Bitvec.t -> int
(** A shift operand as a shift count: its value, or a count past every
    width when it does not fit an [int]. *)

(** {1 Builder} *)

type builder

val builder : string -> builder
val add_input : builder -> string -> int -> unit
val add_output : builder -> string -> int -> unit
val fresh_wire : builder -> string -> int -> wire
(** Names are made unique with a numeric suffix when reused. *)

val fresh_reg : builder -> ?init:Hlcs_logic.Bitvec.t -> string -> int -> reg
val assign : builder -> wire -> expr -> unit
(** @raise Invalid_argument if the wire is already assigned or widths differ. *)

val drive : builder -> string -> expr -> unit
val update : builder -> reg -> expr -> unit
(** @raise Invalid_argument if the register already has an update or
    widths differ. *)

val finish : builder -> design

(** {1 Validation} *)

val validate : design -> (unit, string list) result
(** Checks: every wire assigned exactly once, widths consistent, output
    drivers present and well-typed, register updates well-typed, and the
    combinational graph acyclic (by {!in_eval_order}, and by the
    depth-first sort only when that fails). *)

val validate_order : design -> ((wire * expr) list, string list) result
(** {!validate}, answering a valid design with an order of [rd_assigns]
    that computes every wire before use: the assignments as they stand
    when {!in_eval_order} holds, else {!topo_order}'s sort, which the
    cycle check has run anyway. *)

exception Combinational_cycle of string list
(** Wire names on the cycle. *)

val topo_order : design -> (wire * expr) list
(** Assignments reordered so every wire is computed before use.
    @raise Combinational_cycle *)

val in_eval_order : design -> bool
(** One linear pass: [rd_assigns] already is an evaluation order — each
    assigned wire is declared in [rd_wires] and assigned once, and every
    wire an assignment reads is assigned by an earlier one.  Such a
    netlist is acyclic.  {!Link} emits this order; a builder netlist
    whose guard wires follow their readers is not in it. *)
