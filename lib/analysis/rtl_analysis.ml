module Ir = Hlcs_rtl.Ir
module Op = Hlcs_logic.Op

let rule_multi_driver = "rtl-multi-driver"
let rule_comb_loop = "rtl-comb-loop"
let rule_width = "rtl-width"
let rule_x_source = "rtl-x-source"
let rule_latch = "rtl-latch"
let rule_unused = "rtl-unused"

(* The construct whose right-hand side is walked; named only for a
   diagnostic that is emitted. *)
type reader = R_wire of Ir.wire | R_output of string | R_register of Ir.reg

let reader_name = function
  | R_wire w -> "wire " ^ w.Ir.w_name
  | R_output n -> "output " ^ n
  | R_register r -> "register " ^ r.Ir.r_name

(* What the one walk learns, per wire id below [nw] (every declared or
   assigned wire), and what the right-hand side being walked read that
   some rule reports, newest first: the order the rules list reads in. *)
type walk = {
  nw : int;
  drivers : int array;  (** assignments of each wire *)
  last : int array;  (** position of each wire's last assignment *)
  seen : Bytes.t;  (** assigned at a position already walked *)
  read : Bytes.t;  (** read by some right-hand side *)
  inputs : (string, int) Hashtbl.t;  (** declared width, first declaration *)
  mutable pos : int;  (** the assignment walked, -1 for drives and updates *)
  mutable self : int;  (** its wire id *)
  mutable backward : bool;
      (** a wire's last assignment reads a wire whose last assignment is
          not earlier: only then can the netlist have a cycle *)
  mutable unassigned : Ir.wire list;
  mutable early : Ir.wire list;  (** assigned, but not yet in netlist order *)
  mutable odd_inputs : (string * int) list;  (** undeclared or mis-sized *)
}

let read_wire st (w : Ir.wire) =
  let id = w.Ir.w_id in
  if id < st.nw then Bytes.set st.read id '\001';
  if id >= st.nw || st.drivers.(id) = 0 then st.unassigned <- w :: st.unassigned
  else if st.pos >= 0 then begin
    if st.last.(id) >= st.pos && st.last.(st.self) = st.pos then st.backward <- true;
    if Bytes.get st.seen id = '\000' && id <> st.self then st.early <- w :: st.early
  end

(* the expression's width, as [Ir.expr_width] gives it, or
   [Op.bad_width] where that raises *)
let rec scan st = function
  | Ir.Const bv -> Hlcs_logic.Bitvec.width bv
  | Ir.Wire w ->
      read_wire st w;
      w.Ir.w_width
  | Ir.Reg r -> r.Ir.r_width
  | Ir.Input (n, w) ->
      (match Hashtbl.find_opt st.inputs n with
      | Some dw when dw = w -> ()
      | _ -> st.odd_inputs <- (n, w) :: st.odd_inputs);
      w
  | Ir.Unop (op, x) -> Op.unop_width op (scan st x)
  | Ir.Binop (op, x, y) ->
      let wx = scan st x in
      Op.binop_width op wx (scan st y)
  | Ir.Mux (c, x, y) ->
      let wc = scan st c in
      let wx = scan st x in
      Op.mux_width wc wx (scan st y)
  | Ir.Slice (x, hi, lo) -> Op.slice_width (scan st x) ~hi ~lo

(* One walk over every right-hand side (assignments, then output drives,
   then register updates) gathers the facts of all six rules; each rule's
   diagnostics collect in their own list, in the order the rule lists
   them, and the lists are joined in rule order. *)
let analyze (d : Ir.design) =
  let design = d.Ir.rd_name in
  let diag severity rule ~scope msg = Diag.make ~severity ~scope ~design ~rule msg in
  let error = diag Diag.Error and info = diag Diag.Info in
  let top acc (w : Ir.wire) = max acc (w.Ir.w_id + 1) in
  let nw =
    List.fold_left (fun m (w, _) -> top m w) (List.fold_left top 0 d.Ir.rd_wires)
      d.Ir.rd_assigns
  in
  let st =
    {
      nw;
      drivers = Array.make nw 0;
      last = Array.make nw (-1);
      seen = Bytes.make nw '\000';
      read = Bytes.make nw '\000';
      inputs = Hashtbl.create 16;
      pos = -1;
      self = -1;
      backward = false;
      unassigned = [];
      early = [];
      odd_inputs = [];
    }
  in
  List.iter
    (fun (n, w) -> if not (Hashtbl.mem st.inputs n) then Hashtbl.replace st.inputs n w)
    d.Ir.rd_inputs;
  (* rtl-multi-driver, from the drivers alone *)
  let multi = ref [] in
  let conflict kind name n =
    if n > 1 then
      multi :=
        error rule_multi_driver ~scope:name
          (Printf.sprintf
             "%s %s has %d drivers; wires are not resolved, later drivers conflict" kind
             name n)
        :: !multi
  in
  List.iteri
    (fun p ((w : Ir.wire), _) ->
      let id = w.Ir.w_id in
      st.drivers.(id) <- st.drivers.(id) + 1;
      st.last.(id) <- p;
      conflict "wire" w.Ir.w_name st.drivers.(id))
    d.Ir.rd_assigns;
  let driven = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      let k = 1 + Option.value ~default:0 (Hashtbl.find_opt driven n) in
      Hashtbl.replace driven n k;
      conflict "output" n k)
    d.Ir.rd_drives;
  let nr =
    List.fold_left (fun m ((r : Ir.reg), _) -> max m (r.Ir.r_id + 1)) 0 d.Ir.rd_updates
  in
  let updated = Array.make nr 0 in
  List.iter
    (fun ((r : Ir.reg), _) ->
      let id = r.Ir.r_id in
      updated.(id) <- updated.(id) + 1;
      conflict "register" r.Ir.r_name updated.(id))
    d.Ir.rd_updates;
  (* the walk *)
  let width_roots = ref [] and width_inputs = ref [] in
  let x_wires = ref [] and x_inputs = ref [] and latches = ref [] in
  let x_reported = Hashtbl.create 8 and x_reported_in = Hashtbl.create 8 in
  let width_error ~scope msg =
    width_roots := error rule_width ~scope msg :: !width_roots
  in
  let mismatch kind name w expected =
    if w <> expected then
      width_error ~scope:name
        (Printf.sprintf "%s %s: expression width %d, expected %d" kind name w expected)
  in
  (* a tree that violates takes its message from [Ir.expr_width] *)
  let check_target kind name expected w e =
    if w <> Op.bad_width then mismatch kind name w expected
    else
      match Ir.expr_width e with
      | w -> mismatch kind name w expected
      | exception Invalid_argument m ->
          width_error ~scope:name (kind ^ " " ^ name ^ ": " ^ m)
  in
  let rhs reader e =
    st.unassigned <- [];
    st.early <- [];
    st.odd_inputs <- [];
    let w = scan st e in
    (* the reports below are rare: a clean netlist allocates nothing here *)
    if st.unassigned <> [] then
      List.iter
        (fun (u : Ir.wire) ->
          if not (Hashtbl.mem x_reported u.Ir.w_id) then begin
            Hashtbl.replace x_reported u.Ir.w_id ();
            x_wires :=
              error rule_x_source ~scope:u.Ir.w_name
                (Printf.sprintf
                   "wire %s is read by %s but never assigned: it propagates X into the \
                    design"
                   u.Ir.w_name (reader_name reader))
              :: !x_wires
          end)
        st.unassigned;
    if st.odd_inputs <> [] then
      List.iter
        (fun (n, w) ->
          match Hashtbl.find_opt st.inputs n with
          | Some dw ->
              width_inputs :=
                error rule_width ~scope:n
                  (Printf.sprintf
                     "input %s referenced at width %d by %s but declared with width %d" n
                     w (reader_name reader) dw)
                :: !width_inputs
          | None ->
              if not (Hashtbl.mem x_reported_in n) then begin
                Hashtbl.replace x_reported_in n ();
                x_inputs :=
                  error rule_x_source ~scope:n
                    (Printf.sprintf
                       "input %s is referenced by %s but not declared: it reads as X" n
                       (reader_name reader))
                  :: !x_inputs
              end)
        st.odd_inputs;
    w
  in
  (* A wire read by an assignment listed before the wire's own driving
     assignment.  Our simulator re-sorts topologically so the value is
     right, but the netlist as written has sequential-semantics HDL read
     stale state there — the textbook accidental-latch shape.  Info-level:
     the synthesiser routinely emits guard wires after their readers and
     relies on the topological re-sort, so this is a style note, not a
     hazard. *)
  List.iteri
    (fun p ((w : Ir.wire), e) ->
      st.pos <- p;
      st.self <- w.Ir.w_id;
      let we = rhs (R_wire w) e in
      if st.early <> [] then
        List.iter
          (fun (dep : Ir.wire) ->
            latches :=
              info rule_latch ~scope:w.Ir.w_name
                (Printf.sprintf
                   "wire %s reads %s before its driving assignment in netlist order; \
                    under sequential HDL semantics this reads a stale value (latch-style)"
                   w.Ir.w_name dep.Ir.w_name)
              :: !latches)
          st.early;
      Bytes.set st.seen w.Ir.w_id '\001';
      check_target "wire" w.Ir.w_name w.Ir.w_width we e)
    d.Ir.rd_assigns;
  st.pos <- -1;
  let outputs = Hashtbl.create 16 in
  List.iter
    (fun (n, w) -> if not (Hashtbl.mem outputs n) then Hashtbl.replace outputs n w)
    d.Ir.rd_outputs;
  List.iter
    (fun (n, e) ->
      let we = rhs (R_output n) e in
      match Hashtbl.find_opt outputs n with
      | Some expected -> check_target "output" n expected we e
      | None ->
          width_error ~scope:n (Printf.sprintf "output %s driven but not declared" n))
    d.Ir.rd_drives;
  List.iter
    (fun ((r : Ir.reg), e) ->
      let we = rhs (R_register r) e in
      check_target "register" r.Ir.r_name r.Ir.r_width we e)
    d.Ir.rd_updates;
  (* the depth-first sort runs only to find a cycle's witness *)
  let comb_loop =
    if not st.backward then []
    else
      match Ir.topo_order d with
      | (_ : (Ir.wire * Ir.expr) list) -> []
      | exception Ir.Combinational_cycle names ->
          [
            error rule_comb_loop
              ~scope:(match names with n :: _ -> n | [] -> "?")
              (Printf.sprintf "combinational loop: %s" (String.concat " -> " names));
          ]
  in
  (* outputs without a driver float *)
  let x_outputs =
    List.filter_map
      (fun (n, _) ->
        if Hashtbl.mem driven n then None
        else
          Some
            (error rule_x_source ~scope:n
               (Printf.sprintf "output %s is never driven: it reads as X" n)))
      d.Ir.rd_outputs
  in
  let unused =
    List.filter_map
      (fun (w : Ir.wire) ->
        if Bytes.get st.read w.Ir.w_id = '\001' then None
        else
          Some
            (info rule_unused ~scope:w.Ir.w_name
               (Printf.sprintf "wire %s drives nothing (dead logic)" w.Ir.w_name)))
      d.Ir.rd_wires
  in
  List.concat
    [
      List.rev !multi;
      comb_loop;
      List.rev !width_roots;
      List.rev !width_inputs;
      List.rev !x_wires;
      x_outputs;
      List.rev !x_inputs;
      List.rev !latches;
      unused;
    ]
