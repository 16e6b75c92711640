(* The RTL netlist layer: builder/validation invariants, combinational
   cycle detection, simulator semantics (register vs wire timing), the
   VHDL emitter and the statistics model. *)

module Ir = Hlcs_rtl.Ir
module Sim = Hlcs_rtl.Sim
module Vhdl = Hlcs_rtl.Vhdl
module Stats = Hlcs_rtl.Stats
module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec

let cst w n = Ir.Const (BV.of_int ~width:w n)

(* an 8-bit counter with enable input and value output *)
let counter_design () =
  let b = Ir.builder "counter" in
  Ir.add_input b "en" 1;
  Ir.add_output b "value" 8;
  let count = Ir.fresh_reg b "count" 8 in
  let next = Ir.fresh_wire b "next" 8 in
  Ir.assign b next
    (Ir.Mux (Ir.Input ("en", 1), Ir.Binop (Ir.Add, Ir.Reg count, cst 8 1), Ir.Reg count));
  Ir.update b count (Ir.Wire next);
  Ir.drive b "value" (Ir.Reg count);
  Ir.finish b

let check_builder_validation () =
  let d = counter_design () in
  Alcotest.(check bool) "valid" true (Ir.validate d = Ok ());
  (* unassigned wire *)
  let b = Ir.builder "bad" in
  Ir.add_output b "o" 4;
  let w = Ir.fresh_wire b "dangling" 4 in
  Ir.drive b "o" (Ir.Wire w);
  let bad = Ir.finish b in
  Alcotest.(check bool) "dangling wire rejected" true
    (match Ir.validate bad with
    | Error l -> List.exists (fun m -> m = "wire dangling never assigned") l
    | Ok () -> false)

let check_builder_raises () =
  let b = Ir.builder "b" in
  let w = Ir.fresh_wire b "w" 4 in
  Ir.assign b w (cst 4 0);
  Alcotest.(check bool) "double assign" true
    (match Ir.assign b w (cst 4 1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "width mismatch" true
    (match Ir.assign b (Ir.fresh_wire b "v" 4) (cst 8 0) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown output" true
    (match Ir.drive b "nope" (cst 4 0) with
    | () -> false
    | exception Invalid_argument _ -> true)

let check_double_update () =
  let b = Ir.builder "b" in
  let r = Ir.fresh_reg b "r" 4 in
  Alcotest.(check bool) "width mismatch" true
    (match Ir.update b r (cst 8 0) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* a rejected update leaves the register free *)
  Ir.update b r (cst 4 1);
  Alcotest.(check bool) "second update" true
    (match Ir.update b r (cst 4 2) with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "one update kept" 1 (List.length (Ir.finish b).Ir.rd_updates)

let check_unique_names () =
  let b = Ir.builder "b" in
  let w1 = Ir.fresh_wire b "x" 1 and w2 = Ir.fresh_wire b "x" 1 in
  Alcotest.(check bool) "names deduplicated" true (w1.Ir.w_name <> w2.Ir.w_name)

let check_cycle_detection () =
  let b = Ir.builder "loopy" in
  Ir.add_output b "o" 1;
  let w1 = Ir.fresh_wire b "w1" 1 and w2 = Ir.fresh_wire b "w2" 1 in
  Ir.assign b w1 (Ir.Unop (Ir.Not, Ir.Wire w2));
  Ir.assign b w2 (Ir.Wire w1);
  Ir.drive b "o" (Ir.Wire w1);
  let d = Ir.finish b in
  Alcotest.(check bool) "cycle reported" true
    (match Ir.validate d with
    | Error l -> List.exists (fun m -> String.length m > 20 && String.sub m 0 21 = "combinational cycle t") l
    | Ok () -> false)

let check_topo_order () =
  let b = Ir.builder "chain" in
  Ir.add_output b "o" 4;
  (* assign in reverse dependency order on purpose *)
  let w1 = Ir.fresh_wire b "w1" 4 and w2 = Ir.fresh_wire b "w2" 4 in
  Ir.assign b w1 (Ir.Binop (Ir.Add, Ir.Wire w2, cst 4 1));
  Ir.assign b w2 (cst 4 3);
  Ir.drive b "o" (Ir.Wire w1);
  let d = Ir.finish b in
  let order = List.map (fun ((w : Ir.wire), _) -> w.Ir.w_name) (Ir.topo_order d) in
  Alcotest.(check (list string)) "dependencies first" [ "w2"; "w1" ] order

let run_sim ?(cycles = 20) d ~stim =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let sim = Sim.elaborate k ~clock:clk d in
  let _ = K.spawn k (fun () -> stim k clk sim) in
  K.run ~max_time:(T.ns (10 * cycles)) k;
  sim

let check_counter_counts () =
  let sim =
    run_sim (counter_design ()) ~stim:(fun _ clk sim ->
        S.write (Sim.in_port sim "en") (BV.of_bool true);
        C.wait_edges clk 5;
        S.write (Sim.in_port sim "en") (BV.of_bool false))
  in
  (* enabled for ~5 edges then frozen *)
  let v = BV.to_int (S.read (Sim.out_port sim "value")) in
  Alcotest.(check bool) (Printf.sprintf "counted then froze (%d)" v) true (v >= 4 && v <= 6);
  Alcotest.(check int) "reg readable by name" v (BV.to_int (Sim.reg_value sim "count"))

let check_register_timing () =
  (* two back-to-back registers delay by exactly one cycle each *)
  let b = Ir.builder "pipe" in
  Ir.add_input b "d" 8;
  Ir.add_output b "q" 8;
  let r1 = Ir.fresh_reg b "r1" 8 and r2 = Ir.fresh_reg b "r2" 8 in
  Ir.update b r1 (Ir.Input ("d", 8));
  Ir.update b r2 (Ir.Reg r1);
  Ir.drive b "q" (Ir.Reg r2);
  let d = Ir.finish b in
  let observed = ref [] in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let sim = Sim.elaborate k ~clock:clk d in
  S.on_commit (Sim.out_port sim "q") (fun _ v -> observed := BV.to_int v :: !observed);
  let _ =
    K.spawn k (fun () ->
        S.write (Sim.in_port sim "d") (BV.of_int ~width:8 5);
        C.wait_edges clk 3;
        S.write (Sim.in_port sim "d") (BV.of_int ~width:8 9))
  in
  K.run ~max_time:(T.ns 100) k;
  Alcotest.(check (list int)) "values propagate through two stages" [ 5; 9 ]
    (List.rev !observed);
  Alcotest.(check int) "r1 tracks input" 9 (BV.to_int (Sim.reg_value sim "r1"))

let check_initial_values () =
  let b = Ir.builder "init" in
  Ir.add_output b "o" 8 |> ignore;
  let r = Ir.fresh_reg b ~init:(BV.of_int ~width:8 0xA5) "r" 8 in
  Ir.drive b "o" (Ir.Reg r);
  let d = Ir.finish b in
  let sim = run_sim ~cycles:1 d ~stim:(fun _ _ _ -> ()) in
  Alcotest.(check int) "reset value visible" 0xA5 (BV.to_int (S.read (Sim.out_port sim "o")))

let check_vhdl_emission () =
  let s = Vhdl.to_string (counter_design ()) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "entity" true (contains "entity counter is");
  Alcotest.(check bool) "architecture" true (contains "architecture rtl of counter is");
  Alcotest.(check bool) "clocked process" true (contains "if rising_edge(clk) then");
  Alcotest.(check bool) "register decl" true
    (contains "signal count : std_logic_vector(7 downto 0)");
  Alcotest.(check bool) "port" true (contains "value : out std_logic_vector(7 downto 0)")

let check_stats () =
  let s = Stats.of_design (counter_design ()) in
  Alcotest.(check int) "one register" 1 s.Stats.registers;
  Alcotest.(check int) "eight bits" 8 s.Stats.register_bits;
  Alcotest.(check int) "one adder" 1 s.Stats.adders;
  Alcotest.(check int) "one mux" 1 s.Stats.muxes;
  Alcotest.(check bool) "gates positive" true (s.Stats.gate_estimate > 0);
  (* mux(en, count+1, count): two levels *)
  Alcotest.(check int) "critical path" 2 s.Stats.critical_path

let check_sim_rejects_invalid () =
  let b = Ir.builder "bad" in
  Ir.add_output b "o" 1;
  let w = Ir.fresh_wire b "w" 1 in
  Ir.drive b "o" (Ir.Wire w);
  let d = Ir.finish b in
  List.iter
    (fun engine ->
      let k = K.create () in
      let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
      Alcotest.(check bool) "elaborate refuses" true
        (match Sim.elaborate k ~clock:clk ~engine d with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ `Settle; `Levelized; `Compiled ]

let tests =
  [
    ( "rtl",
      [
        Alcotest.test_case "builder and validation" `Quick check_builder_validation;
        Alcotest.test_case "builder raises on misuse" `Quick check_builder_raises;
        Alcotest.test_case "a register takes one update" `Quick check_double_update;
        Alcotest.test_case "unique names" `Quick check_unique_names;
        Alcotest.test_case "combinational cycle detection" `Quick check_cycle_detection;
        Alcotest.test_case "topological ordering" `Quick check_topo_order;
        Alcotest.test_case "counter behaviour" `Quick check_counter_counts;
        Alcotest.test_case "register timing" `Quick check_register_timing;
        Alcotest.test_case "initial values" `Quick check_initial_values;
        Alcotest.test_case "vhdl emission" `Quick check_vhdl_emission;
        Alcotest.test_case "statistics" `Quick check_stats;
        Alcotest.test_case "sim rejects invalid designs" `Quick check_sim_rejects_invalid;
      ] );
  ]
