(* Reference implementations of the netlist checks, for differential
   tests: [Ir.validate] ending in the depth-first sort on every netlist,
   and the six [rtl-*] rules as six separate passes over the netlist, each
   re-measuring widths and re-reading every right-hand side.  The one-walk
   passes of [Hlcs_rtl.Ir] and [Hlcs_analysis.Rtl_analysis] must agree
   with them message for message.  The one deliberate difference:
   outputs are counted for [rtl-multi-driver] by name (the analysis suite
   pins the case of two names with one [Hashtbl.hash]). *)

module Ir = Hlcs_rtl.Ir
module Diag = Hlcs_analysis.Diag

let validate (design : Ir.design) =
  let diags = ref [] in
  let add fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  let assigned = Hashtbl.create 64 in
  List.iter
    (fun ((w : Ir.wire), e) ->
      if Hashtbl.mem assigned w.Ir.w_id then add "wire %s assigned twice" w.Ir.w_name
      else Hashtbl.replace assigned w.Ir.w_id ();
      match Ir.expr_width e with
      | we ->
          if we <> w.Ir.w_width then
            add "wire %s: width %d, expected %d" w.Ir.w_name we w.Ir.w_width
      | exception Invalid_argument m -> add "wire %s: %s" w.Ir.w_name m)
    design.Ir.rd_assigns;
  List.iter
    (fun (w : Ir.wire) ->
      if not (Hashtbl.mem assigned w.Ir.w_id) then add "wire %s never assigned" w.Ir.w_name)
    design.Ir.rd_wires;
  let driven = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name design.Ir.rd_outputs) then
        add "output %s driven but not declared" name
      else if Hashtbl.mem driven name then add "output %s driven twice" name
      else Hashtbl.replace driven name ())
    design.Ir.rd_drives;
  List.iter
    (fun (name, width) ->
      match List.assoc_opt name design.Ir.rd_drives with
      | None -> add "output %s never driven" name
      | Some e -> (
          match Ir.expr_width e with
          | we -> if we <> width then add "output %s: width %d, expected %d" name we width
          | exception Invalid_argument m -> add "output %s: %s" name m))
    design.Ir.rd_outputs;
  let updated = Hashtbl.create 64 in
  List.iter
    (fun ((r : Ir.reg), e) ->
      if Hashtbl.mem updated r.Ir.r_id then add "register %s updated twice" r.Ir.r_name
      else Hashtbl.replace updated r.Ir.r_id ();
      match Ir.expr_width e with
      | we ->
          if we <> r.Ir.r_width then
            add "register %s: width %d, expected %d" r.Ir.r_name we r.Ir.r_width
      | exception Invalid_argument m -> add "register %s: %s" r.Ir.r_name m)
    design.Ir.rd_updates;
  (match Ir.topo_order design with
  | (_ : (Ir.wire * Ir.expr) list) -> ()
  | exception Ir.Combinational_cycle names ->
      add "combinational cycle through %s" (String.concat " -> " names));
  match List.rev !diags with [] -> Ok () | ds -> Error ds

let rule_multi_driver = "rtl-multi-driver"
let rule_comb_loop = "rtl-comb-loop"
let rule_width = "rtl-width"
let rule_x_source = "rtl-x-source"
let rule_latch = "rtl-latch"
let rule_unused = "rtl-unused"

(* every wire id read by an expression *)
let rec wire_reads acc = function
  | Ir.Wire w -> w :: acc
  | Ir.Const _ | Ir.Reg _ | Ir.Input _ -> acc
  | Ir.Unop (_, e) | Ir.Slice (e, _, _) -> wire_reads acc e
  | Ir.Binop (_, a, b) -> wire_reads (wire_reads acc a) b
  | Ir.Mux (c, a, b) -> wire_reads (wire_reads (wire_reads acc c) a) b

let rec input_refs acc = function
  | Ir.Input (n, w) -> (n, w) :: acc
  | Ir.Const _ | Ir.Reg _ | Ir.Wire _ -> acc
  | Ir.Unop (_, e) | Ir.Slice (e, _, _) -> input_refs acc e
  | Ir.Binop (_, a, b) -> input_refs (input_refs acc a) b
  | Ir.Mux (c, a, b) -> input_refs (input_refs (input_refs acc c) a) b

(* the right-hand sides of everything in the netlist, with the name of
   the construct that reads them *)
let all_rhs (d : Ir.design) =
  List.map (fun ((w : Ir.wire), e) -> ("wire " ^ w.Ir.w_name, e)) d.Ir.rd_assigns
  @ List.map (fun (n, e) -> ("output " ^ n, e)) d.Ir.rd_drives
  @ List.map (fun ((r : Ir.reg), e) -> ("register " ^ r.Ir.r_name, e)) d.Ir.rd_updates

let multi_driver_diags ~design (d : Ir.design) =
  let out = ref [] in
  let add ~scope msg =
    out := Diag.make ~severity:Diag.Error ~scope ~design ~rule:rule_multi_driver msg :: !out
  in
  let count_dups : 'k. string -> ('k * string) list -> unit =
   fun key_name pairs ->
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (key, name) ->
        match Hashtbl.find_opt seen key with
        | None -> Hashtbl.replace seen key 1
        | Some n ->
            Hashtbl.replace seen key (n + 1);
            add ~scope:name
              (Printf.sprintf "%s %s has %d drivers; wires are not resolved, later \
                               drivers conflict"
                 key_name name (n + 1)))
      pairs
  in
  count_dups "wire"
    (List.map (fun ((w : Ir.wire), _) -> (w.Ir.w_id, w.Ir.w_name)) d.Ir.rd_assigns);
  count_dups "output" (List.map (fun (n, _) -> (n, n)) d.Ir.rd_drives);
  count_dups "register"
    (List.map (fun ((r : Ir.reg), _) -> (r.Ir.r_id, r.Ir.r_name)) d.Ir.rd_updates);
  List.rev !out

let width_diags ~design (d : Ir.design) =
  let out = ref [] in
  let add ~scope msg =
    out := Diag.make ~severity:Diag.Error ~scope ~design ~rule:rule_width msg :: !out
  in
  let check_target what name expected e =
    match Ir.expr_width e with
    | w ->
        if w <> expected then
          add ~scope:name
            (Printf.sprintf "%s %s: expression width %d, expected %d" what name w
               expected)
    | exception Invalid_argument m -> add ~scope:name (what ^ " " ^ name ^ ": " ^ m)
  in
  List.iter
    (fun ((w : Ir.wire), e) -> check_target "wire" w.Ir.w_name w.Ir.w_width e)
    d.Ir.rd_assigns;
  List.iter
    (fun (n, e) ->
      match List.assoc_opt n d.Ir.rd_outputs with
      | Some expected -> check_target "output" n expected e
      | None ->
          add ~scope:n (Printf.sprintf "output %s driven but not declared" n))
    d.Ir.rd_drives;
  List.iter
    (fun ((r : Ir.reg), e) -> check_target "register" r.Ir.r_name r.Ir.r_width e)
    d.Ir.rd_updates;
  (* declared inputs referenced at a different width read as X at RT level *)
  List.iter
    (fun (reader, e) ->
      List.iter
        (fun (n, w) ->
          match List.assoc_opt n d.Ir.rd_inputs with
          | Some dw when dw <> w ->
              add ~scope:n
                (Printf.sprintf "input %s referenced at width %d by %s but declared \
                                 with width %d"
                   n w reader dw)
          | _ -> ())
        (input_refs [] e))
    (all_rhs d);
  List.rev !out

let x_source_diags ~design (d : Ir.design) =
  let out = ref [] in
  let add ~scope msg =
    out := Diag.make ~severity:Diag.Error ~scope ~design ~rule:rule_x_source msg :: !out
  in
  let assigned = Hashtbl.create 64 in
  List.iter (fun ((w : Ir.wire), _) -> Hashtbl.replace assigned w.Ir.w_id ()) d.Ir.rd_assigns;
  (* wires read somewhere but never assigned: permanent X *)
  let reported = Hashtbl.create 8 in
  List.iter
    (fun (reader, e) ->
      List.iter
        (fun (w : Ir.wire) ->
          if (not (Hashtbl.mem assigned w.Ir.w_id)) && not (Hashtbl.mem reported w.Ir.w_id)
          then begin
            Hashtbl.replace reported w.Ir.w_id ();
            add ~scope:w.Ir.w_name
              (Printf.sprintf "wire %s is read by %s but never assigned: it \
                               propagates X into the design"
                 w.Ir.w_name reader)
          end)
        (wire_reads [] e))
    (all_rhs d);
  (* outputs without a driver float *)
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n d.Ir.rd_drives) then
        add ~scope:n (Printf.sprintf "output %s is never driven: it reads as X" n))
    d.Ir.rd_outputs;
  (* references to inputs the design does not declare *)
  let reported_in = Hashtbl.create 8 in
  List.iter
    (fun (reader, e) ->
      List.iter
        (fun (n, _) ->
          if (not (List.mem_assoc n d.Ir.rd_inputs)) && not (Hashtbl.mem reported_in n)
          then begin
            Hashtbl.replace reported_in n ();
            add ~scope:n
              (Printf.sprintf "input %s is referenced by %s but not declared: it \
                               reads as X"
                 n reader)
          end)
        (input_refs [] e))
    (all_rhs d);
  List.rev !out

let comb_loop_diags ~design (d : Ir.design) =
  match Ir.topo_order d with
  | (_ : (Ir.wire * Ir.expr) list) -> []
  | exception Ir.Combinational_cycle names ->
      [
        Diag.make ~severity:Diag.Error
          ~scope:(match names with n :: _ -> n | [] -> "?")
          ~design ~rule:rule_comb_loop
          (Printf.sprintf "combinational loop: %s" (String.concat " -> " names));
      ]

(* A wire read by an assignment listed before the wire's own driving
   assignment.  Our simulator re-sorts topologically so the value is
   right, but the netlist as written has sequential-semantics HDL read
   stale state there — the textbook accidental-latch shape.  Info-level:
   the synthesiser routinely emits guard wires after their readers and
   relies on the topological re-sort, so this is a style note, not a
   hazard. *)
let latch_diags ~design (d : Ir.design) =
  let out = ref [] in
  let assigned_somewhere = Hashtbl.create 64 in
  List.iter
    (fun ((w : Ir.wire), _) -> Hashtbl.replace assigned_somewhere w.Ir.w_id ())
    d.Ir.rd_assigns;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun ((w : Ir.wire), e) ->
      List.iter
        (fun (dep : Ir.wire) ->
          if
            Hashtbl.mem assigned_somewhere dep.Ir.w_id
            && (not (Hashtbl.mem seen dep.Ir.w_id))
            && dep.Ir.w_id <> w.Ir.w_id
          then
            out :=
              Diag.make ~severity:Diag.Info ~scope:w.Ir.w_name ~design
                ~rule:rule_latch
                (Printf.sprintf
                   "wire %s reads %s before its driving assignment in netlist \
                    order; under sequential HDL semantics this reads a stale value \
                    (latch-style)"
                   w.Ir.w_name dep.Ir.w_name)
              :: !out)
        (wire_reads [] e);
      Hashtbl.replace seen w.Ir.w_id ())
    d.Ir.rd_assigns;
  List.rev !out

let unused_diags ~design (d : Ir.design) =
  let read = Hashtbl.create 64 in
  List.iter
    (fun (_, e) ->
      List.iter (fun (w : Ir.wire) -> Hashtbl.replace read w.Ir.w_id ()) (wire_reads [] e))
    (all_rhs d);
  List.filter_map
    (fun (w : Ir.wire) ->
      if Hashtbl.mem read w.Ir.w_id then None
      else
        Some
          (Diag.make ~severity:Diag.Info ~scope:w.Ir.w_name ~design ~rule:rule_unused
             (Printf.sprintf "wire %s drives nothing (dead logic)" w.Ir.w_name)))
    d.Ir.rd_wires

let analyze (d : Ir.design) =
  let design = d.Ir.rd_name in
  multi_driver_diags ~design d
  @ comb_loop_diags ~design d
  @ width_diags ~design d
  @ x_source_diags ~design d
  @ latch_diags ~design d
  @ unused_diags ~design d
