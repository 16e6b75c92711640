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

type expr =
  | Const of Hlcs_logic.Bitvec.t
  | Var of string
  | Field of string
  | Index of string * expr
  | Port of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Mux of expr * expr * expr
  | Slice of expr * int * int

type call = {
  co_obj : string;
  co_meth : string;
  co_args : expr list;
  co_bind : string option;
}

type stmt =
  | Set of string * expr
  | Emit of string * expr
  | If of expr * stmt list * stmt list
  | Case of expr * (Hlcs_logic.Bitvec.t list * stmt list) list * stmt list
  | While of expr * stmt list
  | Wait of int
  | Call of call
  | Halt

type method_impl = {
  mi_guard : expr;
  mi_updates : (string * expr) list;
  mi_array_updates : (string * expr * expr) list;
  mi_result : expr option;
}

type method_kind = Plain of method_impl | Virtual of (int * method_impl) list

type method_decl = {
  m_name : string;
  m_params : (string * int) list;
  m_result_width : int option;
  m_kind : method_kind;
}

type object_decl = {
  o_name : string;
  o_fields : (string * int * Hlcs_logic.Bitvec.t) list;
  o_arrays : (string * int * int) list;
  o_tag : string option;
  o_methods : method_decl list;
  o_policy : Hlcs_osss.Policy.t;
}

type process_decl = {
  p_name : string;
  p_locals : (string * int * Hlcs_logic.Bitvec.t) list;
  p_priority : int;
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

let find_port d name = List.find_opt (fun p -> p.pt_name = name) d.d_ports
let find_object d name = List.find_opt (fun o -> o.o_name = name) d.d_objects
let find_method o name = List.find_opt (fun m -> m.m_name = name) o.o_methods
let find_process d name = List.find_opt (fun p -> p.p_name = name) d.d_processes

let rec stmt_takes_time = function
  | Wait _ | Call _ -> true
  | If (_, t, e) -> List.exists stmt_takes_time t || List.exists stmt_takes_time e
  | Case (_, arms, default) ->
      List.exists (fun (_, body) -> List.exists stmt_takes_time body) arms
      || List.exists stmt_takes_time default
  | While (_, body) -> List.exists stmt_takes_time body
  | Set _ | Emit _ | Halt -> false
