(** The register-transfer-level netlist produced by the synthesiser: a set
    of registers updated on the (single, implicit) clock's rising edge and
    combinational assignments between them.  This is the "RT level
    description [handed] to an RTL to gate synthesiser" of the paper's
    flow; here it is simulated by {!Sim} and printed by {!Vhdl}. *)

(** {1 Netlist}

    The operators are {!Hlcs_logic.Op}'s, re-exported with their
    constructors: [op.mli] holds what each computes and the bottom-up
    width rule that passes carrying widths up a tree apply. *)

type unop = Hlcs_logic.Op.unop = Not | Neg | Reduce_or | Reduce_and | Reduce_xor

type binop = Hlcs_logic.Op.binop =
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
(** The width {!Hlcs_logic.Op}'s width rule gives a tree.
    @raise Invalid_argument on width violations. *)

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
(** Checks: every wire assigned exactly once, widths consistent, every
    output driven exactly once and well-typed, no drive of an undeclared
    output, register updates at most one per register and well-typed,
    and the combinational graph acyclic (by {!in_eval_order}, and by the
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
