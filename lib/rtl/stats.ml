module Op = Hlcs_logic.Op
open Ir

type t = {
  registers : int;
  register_bits : int;
  wires : int;
  wire_bits : int;
  adders : int;
  multipliers : int;
  comparators : int;
  logic_ops : int;
  muxes : int;
  shifters : int;
  gate_estimate : int;
  critical_path : int;
  max_comb_depth : int;
  depth_histogram : int array;
}

(* Per-bit gate-equivalent costs of each operator class. *)
let cost_add = 6
let cost_mul = 30
let cost_cmp = 3
let cost_logic = 1
let cost_mux = 3
let cost_shift = 4
let cost_reg_bit = 6

(* One walk per right-hand side gathers everything: each operator's class
   and gate cost, from its operand's width carried up the tree rather than
   measured again at every node, and both levelizations:

   - operator levels (the critical path): each Unop/Binop/Mux adds one,
     slices and concatenations are wiring, a wire leaf contributes the
     level stored for its assignment;
   - wire levels: a wire sits one above the deepest wire its expression
     reads, with inputs, registers and constants at level 0.  This is,
     by construction, the level the {!Compile} engine assigns its
     evaluation nodes — [max_comb_depth] must equal [Compile.levels] and
     [depth_histogram] its per-level node counts, which gives the
     levelizer a checkable invariant.

   Assignments are walked in an evaluation order, so a wire leaf's levels
   are known when it is read.  The incremental relink path recomputes
   stats on every synthesis, from the linker's order as it stands. *)
type walker = {
  mutable counting : bool;  (** false: levels only *)
  mutable adders : int;
  mutable multipliers : int;
  mutable comparators : int;
  mutable logic_ops : int;
  mutable muxes : int;
  mutable shifters : int;
  mutable gates : int;
  op_level : int array;  (** by wire id *)
  wire_level : int array;
  mutable o : int;  (** operator depth of the expression just walked *)
  mutable l : int;  (** wire depth of the expression just walked *)
}

(* the expression's width; its depths are left in [a.o] and [a.l] *)
let rec walk a e =
  match e with
  | Const bv ->
      a.o <- 0;
      a.l <- 0;
      Hlcs_logic.Bitvec.width bv
  | Wire w ->
      a.o <- a.op_level.(w.w_id);
      a.l <- a.wire_level.(w.w_id);
      w.w_width
  | Reg { r_width = w; _ } | Input (_, w) ->
      a.o <- 0;
      a.l <- 0;
      w
  | Unop (op, x) ->
      let w = walk a x in
      if a.counting then begin
        match op with
        | Neg ->
            a.adders <- a.adders + 1;
            a.gates <- a.gates + (cost_add * w)
        | Not | Reduce_or | Reduce_and | Reduce_xor ->
            a.logic_ops <- a.logic_ops + 1;
            a.gates <- a.gates + (cost_logic * w)
      end;
      a.o <- 1 + a.o;
      Op.unop_width op w
  | Binop (op, x, y) ->
      let w = walk a x in
      let ox = a.o and lx = a.l in
      let wy = walk a y in
      if a.counting then begin
        match op with
        | Add | Sub ->
            a.adders <- a.adders + 1;
            a.gates <- a.gates + (cost_add * w)
        | Mul ->
            a.multipliers <- a.multipliers + 1;
            a.gates <- a.gates + (cost_mul * w)
        | Eq | Ne | Lt | Le | Gt | Ge ->
            a.comparators <- a.comparators + 1;
            a.gates <- a.gates + (cost_cmp * w)
        | And | Or | Xor ->
            a.logic_ops <- a.logic_ops + 1;
            a.gates <- a.gates + (cost_logic * w)
        | Shl | Shr ->
            a.shifters <- a.shifters + 1;
            a.gates <- a.gates + (cost_shift * w)
        | Concat -> ()
      end;
      let o = max ox a.o in
      a.o <- (if op = Concat then o else 1 + o);
      a.l <- max lx a.l;
      Op.binop_width op w wy
  | Mux (c, x, y) ->
      ignore (walk a c : int);
      let oc = a.o and lc = a.l in
      let w = walk a x in
      let ox = a.o and lx = a.l in
      ignore (walk a y : int);
      if a.counting then begin
        a.muxes <- a.muxes + 1;
        a.gates <- a.gates + (cost_mux * w)
      end;
      a.o <- 1 + max oc (max ox a.o);
      a.l <- max lc (max lx a.l);
      w
  | Slice (x, hi, lo) ->
      ignore (walk a x : int);
      hi - lo + 1

let of_design d =
  let nw = List.fold_left (fun m w -> max m (w.w_id + 1)) 0 d.rd_wires in
  let a =
    {
      counting = true;
      adders = 0;
      multipliers = 0;
      comparators = 0;
      logic_ops = 0;
      muxes = 0;
      shifters = 0;
      gates = 0;
      op_level = Array.make (max 1 nw) 0;
      wire_level = Array.make (max 1 nw) 0;
      o = 0;
      l = 0;
    }
  in
  let level (w, e) =
    ignore (walk a e : int);
    a.op_level.(w.w_id) <- a.o;
    a.wire_level.(w.w_id) <- 1 + a.l
  in
  (* the linker's order is walked once for everything; a netlist out of
     order is levelized along the depth-first sort, which a
     combinationally cyclic design degrades to an empty order (depth 0
     per wire, the critical path still counting the operators under
     drives and updates), and counted along [rd_assigns] *)
  let order =
    if Ir.in_eval_order d then begin
      List.iter level d.rd_assigns;
      d.rd_assigns
    end
    else begin
      let order = try Ir.topo_order d with Ir.Combinational_cycle _ -> [] in
      a.counting <- false;
      List.iter level order;
      a.counting <- true;
      List.iter (fun (_, e) -> ignore (walk a e : int)) d.rd_assigns;
      order
    end
  in
  let root m (_, e) =
    ignore (walk a e : int);
    max m a.o
  in
  let critical_path =
    List.fold_left root (List.fold_left root 0 d.rd_updates) d.rd_drives
  in
  let max_comb_depth =
    List.fold_left (fun m (w, _) -> max m a.wire_level.(w.w_id)) 0 order
  in
  let depth_histogram = Array.make (max_comb_depth + 1) 0 in
  List.iter
    (fun (w, _) ->
      let l = a.wire_level.(w.w_id) in
      depth_histogram.(l) <- depth_histogram.(l) + 1)
    order;
  let register_bits = List.fold_left (fun n r -> n + r.r_width) 0 d.rd_regs in
  {
    registers = List.length d.rd_regs;
    register_bits;
    wires = List.length d.rd_wires;
    wire_bits = List.fold_left (fun n w -> n + w.w_width) 0 d.rd_wires;
    adders = a.adders;
    multipliers = a.multipliers;
    comparators = a.comparators;
    logic_ops = a.logic_ops;
    muxes = a.muxes;
    shifters = a.shifters;
    gate_estimate = a.gates + (cost_reg_bit * register_bits);
    critical_path;
    max_comb_depth;
    depth_histogram;
  }

let pp ppf s =
  Format.fprintf ppf
    "registers=%d (%d bits) wires=%d (%d bits) adders=%d muls=%d cmps=%d logic=%d muxes=%d shifts=%d ~gates=%d depth=%d levels=%d [%s]"
    s.registers s.register_bits s.wires s.wire_bits s.adders s.multipliers
    s.comparators s.logic_ops s.muxes s.shifters s.gate_estimate s.critical_path
    s.max_comb_depth
    (String.concat ";" (Array.to_list (Array.map string_of_int s.depth_histogram)))

let to_string s = Format.asprintf "%a" pp s
