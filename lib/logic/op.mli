(** The operators both models compute with, and the one table of what
    each computes.  The behavioural IR ([Hlcs_hlir.Ast]) and the RT
    netlist ([Hlcs_rtl.Ir]) re-export {!unop} and {!binop} with these
    constructors; the executable specification's interpreter, the guard
    analysis, the netlist optimiser and the test suite's reference
    evaluator all run on {!eval_unop} and {!eval_binop}, so the behavioural
    model and the RT model it is checked against agree by construction.
    The RTL engine ([Hlcs_rtl.Compile]) and the bit-blaster
    ([Hlcs_analysis.Blast]) lower the same semantics to their own
    representations. *)

type unop =
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)
  | Reduce_or
  | Reduce_and
  | Reduce_xor

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Lt  (** unsigned *)
  | Le
  | Gt
  | Ge
  | Shl  (** shift amount is the runtime value of the right operand *)
  | Shr
  | Concat  (** left operand supplies the most significant bits *)

(** {1 Semantics}

    Over [Bitvec.t] operands of the widths the width rule below admits:
    arithmetic and bitwise operators take two operands of one width and
    wrap modulo that width; comparisons answer one bit. *)

val eval_unop : unop -> Bitvec.t -> Bitvec.t
val eval_binop : binop -> Bitvec.t -> Bitvec.t -> Bitvec.t
(** Shifts by at least the operand's width give zero. *)

val shift_amount : Bitvec.t -> int
(** A shift operand as a shift count: its value, or a count past every
    width when it does not fit an [int]. *)

(** {1 Widths bottom-up}

    The width rule of one operator node, from its operands' widths, for
    passes that carry widths up a tree in one walk.  Each returns the
    node's width, or {!bad_width} where the operands break the rule.  A
    bad operand makes its node bad, shift amounts and reduction operands
    included, though those two may have any width. *)

val bad_width : int
val unop_width : unop -> int -> int
val binop_width : binop -> int -> int -> int
val mux_width : int -> int -> int -> int
(** [mux_width cond then_ else_] *)

val slice_width : int -> hi:int -> lo:int -> int
