module Bitvec = Hlcs_logic.Bitvec

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

type wire = { w_id : int; w_name : string; w_width : int }
type reg = { r_id : int; r_name : string; r_width : int; r_init : Bitvec.t }

type expr =
  | Const of Bitvec.t
  | Wire of wire
  | Reg of reg
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
  rd_assigns : (wire * expr) list;
  rd_drives : (string * expr) list;
  rd_updates : (reg * expr) list;
}

let rec expr_width = function
  | Const bv -> Bitvec.width bv
  | Wire w -> w.w_width
  | Reg r -> r.r_width
  | Input (_, w) -> w
  | Unop ((Not | Neg), e) -> expr_width e
  | Unop ((Reduce_or | Reduce_and | Reduce_xor), e) ->
      ignore (expr_width e : int);
      1
  | Binop ((Add | Sub | Mul | And | Or | Xor), a, b) ->
      let wa = expr_width a and wb = expr_width b in
      if wa <> wb then invalid_arg "Rtl.Ir.expr_width: operand width mismatch";
      wa
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge), a, b) ->
      let wa = expr_width a and wb = expr_width b in
      if wa <> wb then invalid_arg "Rtl.Ir.expr_width: comparison width mismatch";
      1
  | Binop ((Shl | Shr), a, b) ->
      let wa = expr_width a in
      ignore (expr_width b : int);
      wa
  | Binop (Concat, a, b) -> expr_width a + expr_width b
  | Mux (c, a, b) ->
      if expr_width c <> 1 then invalid_arg "Rtl.Ir.expr_width: mux condition";
      let wa = expr_width a and wb = expr_width b in
      if wa <> wb then invalid_arg "Rtl.Ir.expr_width: mux branch width mismatch";
      wa
  | Slice (e, hi, lo) ->
      let w = expr_width e in
      if lo < 0 || hi < lo || hi >= w then invalid_arg "Rtl.Ir.expr_width: bad slice";
      hi - lo + 1

type builder = {
  b_name : string;
  mutable b_inputs : (string * int) list;
  mutable b_outputs : (string * int) list;
  mutable b_wires : wire list;
  mutable b_regs : reg list;
  mutable b_assigns : (wire * expr) list;
  mutable b_drives : (string * expr) list;
  mutable b_updates : (reg * expr) list;
  b_names : (string, int) Hashtbl.t;
  b_assigned : (int, unit) Hashtbl.t;  (* wire ids with an assignment *)
  b_updated : (int, unit) Hashtbl.t;  (* register ids with an update *)
  mutable b_next_wire : int;
  mutable b_next_reg : int;
}

let builder name =
  {
    b_name = name;
    b_inputs = [];
    b_outputs = [];
    b_wires = [];
    b_regs = [];
    b_assigns = [];
    b_drives = [];
    b_updates = [];
    b_names = Hashtbl.create 64;
    b_assigned = Hashtbl.create 64;
    b_updated = Hashtbl.create 64;
    b_next_wire = 0;
    b_next_reg = 0;
  }

let unique_name b base =
  match Hashtbl.find_opt b.b_names base with
  | None ->
      Hashtbl.replace b.b_names base 1;
      base
  | Some n ->
      Hashtbl.replace b.b_names base (n + 1);
      Printf.sprintf "%s_%d" base n

let add_input b name width = b.b_inputs <- b.b_inputs @ [ (name, width) ]
let add_output b name width = b.b_outputs <- b.b_outputs @ [ (name, width) ]

let fresh_wire b name width =
  if width < 1 then invalid_arg "Rtl.Ir.fresh_wire: width must be >= 1";
  let w = { w_id = b.b_next_wire; w_name = unique_name b name; w_width = width } in
  b.b_next_wire <- b.b_next_wire + 1;
  b.b_wires <- w :: b.b_wires;
  w

let fresh_reg b ?init name width =
  if width < 1 then invalid_arg "Rtl.Ir.fresh_reg: width must be >= 1";
  let init = match init with Some v -> v | None -> Bitvec.zero width in
  if Bitvec.width init <> width then invalid_arg "Rtl.Ir.fresh_reg: init width mismatch";
  let r =
    { r_id = b.b_next_reg; r_name = unique_name b name; r_width = width; r_init = init }
  in
  b.b_next_reg <- b.b_next_reg + 1;
  b.b_regs <- r :: b.b_regs;
  r

let assign b wire e =
  (* hashed: the linker replays every fragment assignment through here,
     and a list scan per call made building n assigns quadratic *)
  if Hashtbl.mem b.b_assigned wire.w_id then
    invalid_arg (Printf.sprintf "Rtl.Ir.assign: wire %s already assigned" wire.w_name);
  Hashtbl.replace b.b_assigned wire.w_id ();
  if expr_width e <> wire.w_width then
    invalid_arg (Printf.sprintf "Rtl.Ir.assign: width mismatch on %s" wire.w_name);
  b.b_assigns <- (wire, e) :: b.b_assigns

let drive b name e =
  match List.assoc_opt name b.b_outputs with
  | None -> invalid_arg (Printf.sprintf "Rtl.Ir.drive: unknown output %s" name)
  | Some w ->
      if expr_width e <> w then
        invalid_arg (Printf.sprintf "Rtl.Ir.drive: width mismatch on %s" name);
      if List.mem_assoc name b.b_drives then
        invalid_arg (Printf.sprintf "Rtl.Ir.drive: output %s already driven" name);
      b.b_drives <- (name, e) :: b.b_drives

let update b reg e =
  (* hashed like [assign]: one-hot machines give a unit thousands of
     registers, and the linker replays every update through here *)
  if Hashtbl.mem b.b_updated reg.r_id then
    invalid_arg (Printf.sprintf "Rtl.Ir.update: register %s already updated" reg.r_name);
  if expr_width e <> reg.r_width then
    invalid_arg (Printf.sprintf "Rtl.Ir.update: width mismatch on %s" reg.r_name);
  Hashtbl.replace b.b_updated reg.r_id ();
  b.b_updates <- (reg, e) :: b.b_updates

let finish b =
  {
    rd_name = b.b_name;
    rd_inputs = b.b_inputs;
    rd_outputs = b.b_outputs;
    rd_wires = List.rev b.b_wires;
    rd_regs = List.rev b.b_regs;
    rd_assigns = List.rev b.b_assigns;
    rd_drives = List.rev b.b_drives;
    rd_updates = List.rev b.b_updates;
  }

exception Combinational_cycle of string list

let rec wire_deps acc = function
  | Wire w -> w :: acc
  | Const _ | Reg _ | Input _ -> acc
  | Unop (_, e) | Slice (e, _, _) -> wire_deps acc e
  | Binop (_, a, b) -> wire_deps (wire_deps acc a) b
  | Mux (c, a, b) -> wire_deps (wire_deps (wire_deps acc c) a) b

let topo_order design =
  let n = List.length design.rd_wires in
  let by_id = Hashtbl.create n in
  List.iter (fun (w, e) -> Hashtbl.replace by_id w.w_id (w, e)) design.rd_assigns;
  (* Depth-first with a colour array: grey on the stack means a cycle. *)
  let colour = Hashtbl.create n in
  let order = ref [] in
  let rec visit trail w =
    match Hashtbl.find_opt colour w.w_id with
    | Some `Black -> ()
    | Some `Grey -> raise (Combinational_cycle (List.rev (w.w_name :: trail)))
    | None -> (
        Hashtbl.replace colour w.w_id `Grey;
        (match Hashtbl.find_opt by_id w.w_id with
        | None -> () (* unassigned: caught by validate *)
        | Some (_, e) -> List.iter (visit (w.w_name :: trail)) (wire_deps [] e));
        Hashtbl.replace colour w.w_id `Black;
        match Hashtbl.find_opt by_id w.w_id with
        | Some a -> order := a :: !order
        | None -> ())
  in
  List.iter (fun w -> visit [] w) design.rd_wires;
  List.rev !order

(* Linear: each assigned wire is declared and assigned once, and every
   wire an assignment reads was assigned by an earlier one.  A netlist in
   this order is acyclic, and every pass that needs an evaluation order
   can take [rd_assigns] as it stands; the linker emits this order. *)
let in_eval_order design =
  let nw = List.fold_left (fun m w -> max m (w.w_id + 1)) 0 design.rd_wires in
  (* per wire id: 0 undeclared, 1 declared, 2 assigned *)
  let state = Bytes.make nw '\000' in
  List.iter (fun w -> Bytes.set state w.w_id '\001') design.rd_wires;
  let rec reads_assigned = function
    | Wire w -> w.w_id < nw && Bytes.get state w.w_id = '\002'
    | Const _ | Reg _ | Input _ -> true
    | Unop (_, e) | Slice (e, _, _) -> reads_assigned e
    | Binop (_, a, b) -> reads_assigned a && reads_assigned b
    | Mux (c, a, b) -> reads_assigned c && reads_assigned a && reads_assigned b
  in
  List.for_all
    (fun (w, e) ->
      let ok = w.w_id < nw && Bytes.get state w.w_id = '\001' && reads_assigned e in
      if ok then Bytes.set state w.w_id '\002';
      ok)
    design.rd_assigns

(* [validate], answering with the evaluation order it checked *)
let validate_order design =
  let diags = ref [] in
  let add fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  let top m w = max m (w.w_id + 1) in
  let nw =
    List.fold_left (fun m (w, _) -> top m w) (List.fold_left top 0 design.rd_wires)
      design.rd_assigns
  in
  let assigned = Bytes.make nw '\000' in
  List.iter
    (fun (w, e) ->
      if Bytes.get assigned w.w_id = '\001' then add "wire %s assigned twice" w.w_name
      else Bytes.set assigned w.w_id '\001';
      match expr_width e with
      | we -> if we <> w.w_width then add "wire %s: width %d, expected %d" w.w_name we w.w_width
      | exception Invalid_argument m -> add "wire %s: %s" w.w_name m)
    design.rd_assigns;
  List.iter
    (fun w ->
      if Bytes.get assigned w.w_id = '\000' then add "wire %s never assigned" w.w_name)
    design.rd_wires;
  let driven = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name design.rd_outputs) then
        add "output %s driven but not declared" name
      else if Hashtbl.mem driven name then add "output %s driven twice" name
      else Hashtbl.replace driven name ())
    design.rd_drives;
  List.iter
    (fun (name, width) ->
      match List.assoc_opt name design.rd_drives with
      | None -> add "output %s never driven" name
      | Some e -> (
          match expr_width e with
          | we -> if we <> width then add "output %s: width %d, expected %d" name we width
          | exception Invalid_argument m -> add "output %s: %s" name m))
    design.rd_outputs;
  let nr = List.fold_left (fun m (r, _) -> max m (r.r_id + 1)) 0 design.rd_updates in
  let updated = Bytes.make nr '\000' in
  List.iter
    (fun (r, e) ->
      if Bytes.get updated r.r_id = '\001' then add "register %s updated twice" r.r_name
      else Bytes.set updated r.r_id '\001';
      match expr_width e with
      | we -> if we <> r.r_width then add "register %s: width %d, expected %d" r.r_name we r.r_width
      | exception Invalid_argument m -> add "register %s: %s" r.r_name m)
    design.rd_updates;
  (* an evaluation-ordered netlist has no cycle to look for *)
  let order =
    if in_eval_order design then design.rd_assigns
    else
      match topo_order design with
      | order -> order
      | exception Combinational_cycle names ->
          add "combinational cycle through %s" (String.concat " -> " names);
          []
  in
  match List.rev !diags with [] -> Ok order | ds -> Error ds

let validate design = Result.map ignore (validate_order design)
