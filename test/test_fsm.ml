(* The one-hot FSM realisation.  The qcheck property builds random
   abstract machines — several conditions true at once, self-loops,
   stay-put states, unreachable states, registers committed on several
   edges, one request raised by up to 80 states that wait on a shared
   [done] — realises each one, and steps the netlist under the levelized
   engine against a reference stepper of the abstract machine: the same
   state, the same register values, exactly one state bit set and the
   request line set exactly in a request state, after every clock edge.
   The request's gate tree has depth 0, 1 or 2 (at most 8, 9 to 64, or
   65 and more states).  The structural tests pin what the encoding is
   for: neither the widest read of any one assignment or register update
   of the fig3 netlist nor the widest fan-out of any one net grows with
   the application script. *)

module Ir = Hlcs_rtl.Ir
module Compile = Hlcs_rtl.Compile
module Opt = Hlcs_rtl.Opt
module Fsm = Hlcs_synth.Fsm
module Synthesize = Hlcs_synth.Synthesize
module BV = Hlcs_logic.Bitvec
module Pci_stim = Hlcs_pci.Pci_stim

let n_inputs = 3
let reg_width = 4

(* --- random abstract machines ------------------------------------------ *)

(* expressions over the inputs (1 bit each) and the registers *)
type cond =
  | C_done  (* the request's [done]: input 0, one shared expression *)
  | C_true
  | C_false
  | C_in of int
  | C_not_in of int
  | C_and of int * int
  | C_or of int * int
  | C_reg_eq of int * int  (* register, constant *)

type value = V_const of int | V_incr of int | V_pick of int * int * int

type edge = { cond : cond option; commits : (int * value) list; next : int }

type machine = { n_regs : int; states : edge list array; requests : int list }

let gen_machine =
  QCheck2.Gen.(
    let* n_requests = oneof [ int_bound 8; int_range 9 64; int_range 65 80 ] in
    let* n_states = map (( + ) (max 1 n_requests)) (int_bound 9) in
    let* n_regs = int_range 1 3 in
    let input = int_bound (n_inputs - 1) in
    let reg = int_bound (n_regs - 1) in
    let cond =
      frequency
        [
          (1, return C_done);
          (1, return C_true);
          (1, return C_false);
          (3, map (fun i -> C_in i) input);
          (2, map (fun i -> C_not_in i) input);
          (1, map2 (fun a b -> C_and (a, b)) input input);
          (1, map2 (fun a b -> C_or (a, b)) input input);
          (1, map2 (fun r k -> C_reg_eq (r, k)) reg (int_bound 3));
        ]
    in
    let value =
      oneof
        [
          map (fun k -> V_const k) (int_bound 15);
          map (fun r -> V_incr r) reg;
          map3 (fun i a b -> V_pick (i, a, b)) input (int_bound 15) (int_bound 15);
        ]
    in
    let commits =
      let* mask = list_repeat n_regs bool in
      let* values = list_repeat n_regs value in
      return
        (List.concat
           (List.mapi
              (fun r (on, v) -> if on then [ (r, v) ] else [])
              (List.combine mask values)))
    in
    let edge_on cond =
      let* commits = commits in
      let* next = int_bound (n_states - 1) in
      return { cond; commits; next }
    in
    let edge = option ~ratio:0.8 cond >>= edge_on in
    let* order = shuffle_l (List.init n_states Fun.id) in
    let requests = List.filteri (fun i _ -> i < n_requests) order in
    (* a request state waits on [done] first *)
    let* states =
      flatten_a
        (Array.init n_states (fun s ->
             if List.mem s requests then
               map2 List.cons (edge_on (Some C_done)) (list_size (int_bound 2) edge)
             else list_size (int_bound 3) edge))
    in
    return { n_regs; states; requests })

(* --- the reference stepper --------------------------------------------- *)

let eval_cond inputs regs = function
  | C_done -> inputs.(0)
  | C_true -> true
  | C_false -> false
  | C_in i -> inputs.(i)
  | C_not_in i -> not inputs.(i)
  | C_and (a, b) -> inputs.(a) && inputs.(b)
  | C_or (a, b) -> inputs.(a) || inputs.(b)
  | C_reg_eq (r, k) -> regs.(r) = k

let eval_value inputs regs = function
  | V_const k -> k
  | V_incr r -> (regs.(r) + 1) land 15
  | V_pick (i, a, b) -> if inputs.(i) then a else b

(* first edge whose condition holds, its commits from pre-edge values;
   no such edge: stay put *)
let reference_step m (state, regs) inputs =
  match
    List.find_opt
      (fun e -> match e.cond with None -> true | Some c -> eval_cond inputs regs c)
      m.states.(state)
  with
  | None -> (state, regs)
  | Some e ->
      let regs' = Array.copy regs in
      List.iter (fun (r, v) -> regs'.(r) <- eval_value inputs regs v) e.commits;
      (e.next, regs')

(* --- the realisation --------------------------------------------------- *)

let bit b = Ir.Const (BV.of_int ~width:1 (if b then 1 else 0))
let const k = Ir.Const (BV.of_int ~width:reg_width k)

let realize m =
  let b = Ir.builder "fsm" in
  for i = 0 to n_inputs - 1 do
    Ir.add_input b (Printf.sprintf "i%d" i) 1
  done;
  let input i = Ir.Input (Printf.sprintf "i%d" i, 1) in
  let done_ = input 0 in
  let regs =
    Array.init m.n_regs (fun r -> Ir.fresh_reg b (Printf.sprintf "r%d" r) reg_width)
  in
  let cond = function
    | C_done -> done_
    | C_true -> bit true
    | C_false -> bit false
    | C_in i -> input i
    | C_not_in i -> Ir.Unop (Ir.Not, input i)
    | C_and (x, y) -> Ir.Binop (Ir.And, input x, input y)
    | C_or (x, y) -> Ir.Binop (Ir.Or, input x, input y)
    | C_reg_eq (r, k) -> Ir.Binop (Ir.Eq, Ir.Reg regs.(r), const k)
  in
  let value = function
    | V_const k -> const k
    | V_incr r -> Ir.Binop (Ir.Add, Ir.Reg regs.(r), const 1)
    | V_pick (i, x, y) -> Ir.Mux (input i, const x, const y)
  in
  let fsm = Fsm.create () in
  Array.iter (fun _ -> ignore (Fsm.fresh_state fsm)) m.states;
  Array.iteri
    (fun s edges ->
      List.iter
        (fun e ->
          Fsm.add_edge fsm s
            {
              Fsm.e_cond = Option.map cond e.cond;
              e_commits = List.map (fun (r, v) -> (regs.(r), value v)) e.commits;
              e_next = e.next;
            })
        edges)
    m.states;
  let requests = [ { Fsm.rq_name = "m_req"; rq_done = done_; rq_states = m.requests } ] in
  let rz = Fsm.realize b ~name:"m" ~requests fsm in
  let bits =
    Array.mapi
      (fun s _ ->
        match Fsm.in_state rz s with Ir.Reg r -> r | _ -> Alcotest.fail "state bit")
      m.states
  in
  Ir.add_output b "req" 1;
  List.iter (Ir.drive b "req") (Fsm.request_lines rz);
  (Ir.finish b, regs, bits)

let run_against_reference ~optimize m inputs =
  let d, regs, bits = realize m in
  let d = if optimize then Opt.optimize d else d in
  let t = Compile.compile d in
  Compile.full_settle t;
  let read r = BV.to_int (Compile.reg_value t r) in
  let req = List.assoc "req" (Array.to_list (Compile.drives t)) in
  let rec go ref_state k = function
    | [] -> Ok ()
    | ins :: rest ->
        Array.iteri (fun i v -> Compile.set_input t i (BV.of_bool v)) ins;
        Compile.settle t;
        ignore (Compile.step_registers t : bool);
        Compile.settle t;
        let state, ref_regs = reference_step m ref_state ins in
        let set = List.filter (fun s -> read bits.(s) = 1) (List.init (Array.length bits) Fun.id) in
        let got_regs = Array.map read regs in
        if set <> [ state ] then
          Error
            (Printf.sprintf "edge %d: state bits set [%s], reference state %d" k
               (String.concat ";" (List.map string_of_int set)) state)
        else if got_regs <> ref_regs then
          Error
            (Printf.sprintf "edge %d: registers [%s], reference [%s]" k
               (String.concat ";" (Array.to_list (Array.map string_of_int got_regs)))
               (String.concat ";" (Array.to_list (Array.map string_of_int ref_regs))))
        else if (BV.to_int (req ()) = 1) <> List.mem state m.requests then
          Error (Printf.sprintf "edge %d: request line wrong in state %d" k state)
        else go (state, ref_regs) (k + 1) rest
  in
  go (0, Array.make m.n_regs 0) 1 inputs

let print_machine m =
  String.concat "\n"
    (Printf.sprintf "request raised by [%s]"
       (String.concat ";" (List.map string_of_int m.requests))
    :: Array.to_list
       (Array.mapi
          (fun s edges ->
            Printf.sprintf "s%d: %s" s
              (String.concat " | "
                 (List.map
                    (fun e ->
                      Printf.sprintf "%s -> s%d (%d commits)"
                        (match e.cond with
                        | None -> "else"
                        | Some C_done -> "done"
                        | Some _ -> "cond")
                        e.next (List.length e.commits))
                    edges)))
          m.states))

let one_hot_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"one-hot realisation steps like the abstract machine"
       ~print:(fun (m, _) -> print_machine m)
       QCheck2.Gen.(
         pair gen_machine
           (list_repeat 24 (array_repeat n_inputs bool)))
       (fun (m, inputs) ->
         List.for_all
           (fun optimize ->
             match run_against_reference ~optimize m inputs with
             | Ok () -> true
             | Error e ->
                 QCheck2.Test.fail_reportf "%s (optimize=%b)" e optimize)
           [ false; true ]))

(* --- fan-in stays bounded as the script grows -------------------------- *)

(* the distinct nets (inputs, registers, wires) one expression reads *)
let nets e =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | Ir.Const _ -> ()
    | Ir.Wire w -> Hashtbl.replace seen ("w", w.Ir.w_id) ()
    | Ir.Reg r -> Hashtbl.replace seen ("r", r.Ir.r_id) ()
    | Ir.Input (n, _) -> Hashtbl.replace seen ("i:" ^ n, 0) ()
    | Ir.Unop (_, x) | Ir.Slice (x, _, _) -> go x
    | Ir.Binop (_, x, y) ->
        go x;
        go y
    | Ir.Mux (c, x, y) ->
        go c;
        go x;
        go y
  in
  go e;
  Hashtbl.fold (fun net () acc -> net :: acc) seen []

let fig3_netlist count =
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:2004 ~count ~base:0 ~size_bytes:1024 ())
  in
  (Synthesize.synthesize (Hlcs_interface.Pci_master_design.design ~app:script ()))
    .Synthesize.rp_rtl

let widest_reads count =
  let d = fig3_netlist count in
  let widest l = List.fold_left (fun m (_, e) -> max m (List.length (nets e))) 0 l in
  (widest d.Ir.rd_assigns, widest d.Ir.rd_updates)

let check_fan_in_bounded () =
  let a100, u100 = widest_reads 100 and a400, u400 = widest_reads 400 in
  Alcotest.(check int) "widest assignment read, count 100 vs 400" a100 a400;
  Alcotest.(check int) "widest register-update read, count 100 vs 400" u100 u400

(* the most assignments and register updates that read one net *)
let widest_fan_out count =
  let d = fig3_netlist count in
  let readers = Hashtbl.create 1024 in
  let read (_, e) =
    List.iter
      (fun net ->
        Hashtbl.replace readers net
          (1 + Option.value ~default:0 (Hashtbl.find_opt readers net)))
      (nets e)
  in
  List.iter read d.Ir.rd_assigns;
  List.iter read d.Ir.rd_updates;
  Hashtbl.fold (fun _ n m -> max n m) readers 0

let check_fan_out_bounded () =
  Alcotest.(check int) "widest fan-out, count 100 vs 400" (widest_fan_out 100)
    (widest_fan_out 400)

let tests =
  [
    ( "fsm",
      [
        one_hot_matches_reference;
        Alcotest.test_case "fig3 fan-in independent of script length" `Quick
          check_fan_in_bounded;
        Alcotest.test_case "fig3 fan-out independent of script length" `Quick
          check_fan_out_bounded;
      ] );
  ]
