(** The behavioural intermediate representation: the synthesisable subset of
    SystemC+ that this library's "ODETTE tool" accepts.

    A {!design} is a set of ports, shared {e global objects} (state fields +
    guarded methods) and clocked processes.  Processes communicate with each
    other exclusively through guarded-method {!stmt.Call}s — the high-level
    communication style the paper advocates — and with the outside world
    through ports.

    Semantics shared by the interpreter and the synthesiser:
    - statements execute in program order; only [Wait] and [Call] take time;
    - a method body is a set of {e parallel} field updates: every right-hand
      side reads the pre-call state;
    - a method result is likewise computed on the pre-call state;
    - a [`Virtual] method dispatches on the object's tag field — the
      hardware-oriented polymorphism of SystemC+. *)

(** The operators are {!Hlcs_logic.Op}'s, re-exported with their
    constructors; [op.mli] holds what each computes, for the interpreter
    and the RT netlist alike. *)

type unop = Hlcs_logic.Op.unop =
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)
  | Reduce_or
  | Reduce_and
  | Reduce_xor

type binop = Hlcs_logic.Op.binop =
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

type expr =
  | Const of Hlcs_logic.Bitvec.t
  | Var of string
      (** a process local, or a method parameter inside method code *)
  | Field of string  (** an object state field; only valid inside methods *)
  | Index of string * expr
      (** [Index (array, i)]: element read of an object array; only valid
          inside methods.  An out-of-range index reads zero. *)
  | Port of string  (** an input port; only valid inside processes *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Mux of expr * expr * expr  (** [Mux (cond, if_true, if_false)] *)
  | Slice of expr * int * int  (** [Slice (e, hi, lo)] *)

type call = {
  co_obj : string;
  co_meth : string;
  co_args : expr list;
  co_bind : string option;  (** local receiving the result *)
}

type stmt =
  | Set of string * expr  (** local := expr *)
  | Emit of string * expr  (** output port <= expr *)
  | If of expr * stmt list * stmt list
  | Case of expr * (Hlcs_logic.Bitvec.t list * stmt list) list * stmt list
      (** [Case (selector, arms, default)]: the first arm whose label list
          contains the selector's value executes; labels must be unique
          across arms and match the selector's width *)
  | While of expr * stmt list
      (** must contain a [Wait] or [Call] (checked), else it would spin in
          zero time *)
  | Wait of int  (** wait for n >= 1 rising clock edges *)
  | Call of call  (** blocking guarded-method call *)
  | Halt  (** terminate the process *)

type method_impl = {
  mi_guard : expr;  (** width 1, over fields and parameters *)
  mi_updates : (string * expr) list;  (** parallel field updates *)
  mi_array_updates : (string * expr * expr) list;
      (** [(array, index, value)] element writes; right-hand sides and
          indices read the pre-call state like field updates.  When several
          writes target the same element, the last one wins.  An
          out-of-range index writes nothing. *)
  mi_result : expr option;
}

type method_kind =
  | Plain of method_impl
  | Virtual of (int * method_impl) list
      (** (tag value, implementation); dispatch on the object's tag field.
          A tag with no implementation makes the guard false. *)

type method_decl = {
  m_name : string;
  m_params : (string * int) list;  (** name, width *)
  m_result_width : int option;
  m_kind : method_kind;
}

type object_decl = {
  o_name : string;
  o_fields : (string * int * Hlcs_logic.Bitvec.t) list;
      (** name, width, reset value *)
  o_arrays : (string * int * int) list;
      (** name, element width, depth — register banks inside the object,
          reset to zero; synthesised as register files *)
  o_tag : string option;  (** field carrying the dynamic type for [Virtual] *)
  o_methods : method_decl list;
  o_policy : Hlcs_osss.Policy.t;
}

type process_decl = {
  p_name : string;
  p_locals : (string * int * Hlcs_logic.Bitvec.t) list;
  p_priority : int;  (** arbitration priority for its calls *)
  p_body : stmt list;
}

type port_dir = In | Out
type port = { pt_name : string; pt_width : int; pt_dir : port_dir }

type design = {
  d_name : string;
  d_ports : port list;
  d_objects : object_decl list;
  d_processes : process_decl list;
}

val find_port : design -> string -> port option
val find_object : design -> string -> object_decl option
val find_method : object_decl -> string -> method_decl option
val find_process : design -> string -> process_decl option

val stmt_takes_time : stmt -> bool
(** True if the statement (or any statement nested inside it) contains a
    [Wait] or [Call]. *)
