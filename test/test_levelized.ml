(* The levelized compiled RTL engine (Compile/Sim `Levelized) against the
   legacy whole-network settle: differential properties over random
   netlists (narrow and wide nets), VCD byte-identity on the PCI
   interface, the dirty-cone counters, and the Stats/Compile levelizer
   invariant. *)

module Ir = Hlcs_rtl.Ir
module Sim = Hlcs_rtl.Sim
module Compile = Hlcs_rtl.Compile
module Opt = Hlcs_rtl.Opt
module Stats = Hlcs_rtl.Stats
module Synthesize = Hlcs_synth.Synthesize
module Pci_stim = Hlcs_pci.Pci_stim
module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec
open Hlcs_interface

let cst w n = Ir.Const (BV.of_int ~width:w n)

(* ------------------------------------------------------------------ *)
(* Random netlist generation.  QCheck supplies a seed and a size; the
   netlist itself is built with a seeded [Random.State] so the generator
   stays ordinary OCaml.  Wires only ever read inputs, registers,
   constants or earlier wires, so generated designs are acyclic and valid
   by construction.  Widths mix unboxed-int nets with nets beyond
   [Compile.max_fast], so the differential covers both value paths. *)

let random_bv st width =
  let rec chunks w acc =
    if w = 0 then acc
    else
      let n = min 24 w in
      let piece = BV.of_int ~width:n (Random.State.int st (1 lsl n)) in
      chunks (w - n) (match acc with None -> Some piece | Some a -> Some (BV.concat a piece))
  in
  match chunks width None with Some v -> v | None -> assert false

let pick st l = List.nth l (Random.State.int st (List.length l))

let random_design st ~nwires =
  let b = Ir.builder "rand" in
  let input_widths = [ ("i1", 1); ("i7", 7); ("i62", 62); ("i80", 80) ] in
  List.iter (fun (n, w) -> Ir.add_input b n w) input_widths;
  let r7 = Ir.fresh_reg b ~init:(BV.of_int ~width:7 3) "r7" 7 in
  let r80 = Ir.fresh_reg b "r80" 80 in
  (* leaves available per width; grows as wires (and sliced/concatenated
     widths) appear *)
  let pool : (int, Ir.expr list) Hashtbl.t = Hashtbl.create 16 in
  let leaves w = match Hashtbl.find_opt pool w with Some l -> l | None -> [] in
  let add_leaf e =
    let w = Ir.expr_width e in
    Hashtbl.replace pool w (e :: leaves w)
  in
  List.iter add_leaf
    [ Ir.Input ("i1", 1); Ir.Input ("i7", 7); Ir.Input ("i62", 62);
      Ir.Input ("i80", 80); Ir.Reg r7; Ir.Reg r80 ];
  List.iter (fun w -> add_leaf (Ir.Const (random_bv st w))) [ 1; 7; 62; 80 ];
  let widths () = Hashtbl.fold (fun w _ acc -> w :: acc) pool [] in
  let leaf w = pick st (leaves w) in
  for i = 0 to nwires - 1 do
    let w = pick st (widths ()) in
    let e =
      match Random.State.int st 8 with
      | 0 -> Ir.Unop (pick st [ Ir.Not; Ir.Neg ], leaf w)
      | 1 when w <> 1 ->
          (* reductions and comparisons land at width 1 *)
          Ir.Unop (pick st [ Ir.Reduce_or; Ir.Reduce_and; Ir.Reduce_xor ], leaf w)
      | 1 -> Ir.Binop (pick st [ Ir.Eq; Ir.Ne; Ir.Lt; Ir.Ge ], leaf 7, leaf 7)
      | 2 | 3 ->
          Ir.Binop
            ( pick st [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor ],
              leaf w, leaf w )
      | 4 -> Ir.Binop (pick st [ Ir.Shl; Ir.Shr ], leaf w, leaf 7)
      | 5 -> Ir.Mux (leaf 1, leaf w, leaf w)
      | 6 ->
          let src = pick st [ 62; 80 ] in
          let lo = Random.State.int st (src - 1) in
          let hi = lo + Random.State.int st (min 16 (src - lo)) in
          Ir.Slice (leaf src, hi, lo)
      | _ -> Ir.Binop (Ir.Concat, leaf 7, leaf (pick st [ 1; 7 ]))
    in
    let wire = Ir.fresh_wire b (Printf.sprintf "w%d" i) (Ir.expr_width e) in
    Ir.assign b wire e;
    add_leaf (Ir.Wire wire)
  done;
  Ir.update b r7 (leaf 7);
  Ir.update b r80 (leaf 80);
  (* one output per live width, plus the registers *)
  let n = ref 0 in
  List.iter
    (fun w ->
      let name = Printf.sprintf "o%d_%d" !n w in
      incr n;
      Ir.add_output b name w;
      Ir.drive b name (leaf w))
    (List.sort_uniq compare (widths ()));
  Ir.add_output b "q7" 7;
  Ir.drive b "q7" (Ir.Reg r7);
  Ir.add_output b "q80" 80;
  Ir.drive b "q80" (Ir.Reg r80);
  Ir.finish b

let random_stim st ~cycles =
  List.init cycles (fun _ ->
      List.filter_map
        (fun (name, w) ->
          if Random.State.bool st then Some (name, random_bv st w) else None)
        [ ("i1", 1); ("i7", 7); ("i62", 62); ("i80", 80) ])

(* run one engine; the observation is the full output-change sequence plus
   the final register file *)
let run_engine engine d ~stim =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let events = ref [] in
  let sim = Sim.elaborate k ~clock:clk ~engine d in
  List.iter
    (fun (port, _) ->
      S.on_commit (Sim.out_port sim port) (fun _ v ->
          events := (port, BV.to_hex_string v) :: !events))
    d.Ir.rd_outputs;
  let _ =
    K.spawn k (fun () ->
        List.iter
          (fun writes ->
            List.iter (fun (name, v) -> S.write (Sim.in_port sim name) v) writes;
            C.wait_edges clk 1)
          stim)
  in
  K.run ~max_time:(T.ns (10 * (List.length stim + 5))) k;
  let regs =
    List.map (fun n -> (n, BV.to_hex_string (Sim.reg_value sim n))) (Sim.reg_names sim)
  in
  (List.rev !events, regs)

let random_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"random netlists: levelized == settle (outputs and registers)"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 24))
       (fun (seed, nwires) ->
         let st = Random.State.make [| seed; nwires |] in
         let d = random_design st ~nwires in
         (match Ir.validate d with
         | Ok () -> ()
         | Error l -> QCheck2.Test.fail_reportf "generator produced invalid design: %s"
                        (String.concat "; " l));
         let stim = random_stim st ~cycles:12 in
         let ev_l, regs_l = run_engine `Levelized d ~stim in
         let ev_s, regs_s = run_engine `Settle d ~stim in
         if ev_l <> ev_s then
           QCheck2.Test.fail_reportf "output sequences diverge:@.levelized %d events, settle %d events"
             (List.length ev_l) (List.length ev_s)
         else if regs_l <> regs_s then
           QCheck2.Test.fail_reportf "register files diverge:@.%s@.vs@.%s"
             (String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ v) regs_l))
             (String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ v) regs_s))
         else true))

(* ------------------------------------------------------------------ *)
(* Static/dynamic bridge: on the same random netlists the differential
   runs, the SAT-based equivalence checker must prove the optimiser's
   rewrite — the formal counterpart of the simulation agreement above.
   A counterexample here would be a replayable stimulus (the CEC cuts
   registers into [__reg_*] inputs), so it is rendered into the failure
   report verbatim. *)

let cec_agrees_with_simulation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20
       ~name:"random netlists: CEC proves the optimiser's rewrite"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 12))
       (fun (seed, nwires) ->
         let st = Random.State.make [| seed; nwires; 23 |] in
         let d = random_design st ~nwires in
         match Hlcs_analysis.Cec.equiv d (Opt.optimize d) with
         | Hlcs_analysis.Cec.Equivalent -> true
         | Hlcs_analysis.Cec.Inequivalent cx ->
             QCheck2.Test.fail_reportf "optimiser miscompiled: %s"
               (Hlcs_analysis.Cec.counterexample_to_string cx)
         | Hlcs_analysis.Cec.Incomparable reasons ->
             QCheck2.Test.fail_reportf "footprint changed: %s"
               (String.concat "; " reasons)))

(* ------------------------------------------------------------------ *)
(* The full system run, both engines: same application observations, same
   bus traffic, byte-identical VCD. *)

let script = Pci_stim.directed_smoke ~base:0

let run_system engine ~vcd_prefix =
  let config =
    Run_config.make ~mem_bytes:512 ?vcd_prefix
      ~rtl_engine:engine ()
  in
  System.rtl config ~script

let check_engines_agree_on_system () =
  let a = run_system `Settle ~vcd_prefix:None in
  let b = run_system `Levelized ~vcd_prefix:None in
  Alcotest.(check (list string)) "run reports agree" [] (System.compare_runs a b);
  Alcotest.(check (list string)) "bus traces agree" [] (System.compare_bus_traces a b)

let read_and_remove path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let check_vcd_byte_identity () =
  let dump engine tag =
    let prefix = Filename.concat (Filename.get_temp_dir_name ()) ("hlcs_lev_" ^ tag) in
    ignore (run_system engine ~vcd_prefix:(Some prefix));
    read_and_remove (prefix ^ "_rtl.vcd")
  in
  let settle = dump `Settle "settle" and levelized = dump `Levelized "lev" in
  Alcotest.(check bool) "VCD non-empty" true (String.length settle > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "VCDs byte-identical (%d vs %d bytes)" (String.length settle)
       (String.length levelized))
    true
    (settle = levelized)

(* ------------------------------------------------------------------ *)
(* Dirty-cone evaluation, checked through the counters on a netlist with
   two independent cones: touching one input must re-evaluate exactly its
   own cone and skip the other. *)

let two_cone_design () =
  let b = Ir.builder "cones" in
  Ir.add_input b "a" 8;
  Ir.add_input b "b" 8;
  Ir.add_output b "oa" 8;
  Ir.add_output b "ob" 8;
  let wa1 = Ir.fresh_wire b "wa1" 8 and wa2 = Ir.fresh_wire b "wa2" 8 in
  Ir.assign b wa1 (Ir.Unop (Ir.Not, Ir.Input ("a", 8)));
  Ir.assign b wa2 (Ir.Binop (Ir.Add, Ir.Wire wa1, cst 8 1));
  let wb1 = Ir.fresh_wire b "wb1" 8 and wb2 = Ir.fresh_wire b "wb2" 8 in
  Ir.assign b wb1 (Ir.Unop (Ir.Not, Ir.Input ("b", 8)));
  Ir.assign b wb2 (Ir.Binop (Ir.Add, Ir.Wire wb1, cst 8 1));
  Ir.drive b "oa" (Ir.Wire wa2);
  Ir.drive b "ob" (Ir.Wire wb2);
  Ir.finish b

let counter c t =
  match List.assoc_opt c (Compile.counters t) with
  | Some v -> v
  | None -> Alcotest.fail ("missing counter " ^ c)

let check_dirty_cone_counters () =
  let t = Compile.compile (two_cone_design ()) in
  Compile.full_settle t;
  Alcotest.(check int) "two levels" 2 (Compile.levels t);
  Alcotest.(check int) "four nodes" 4 (Compile.node_count t);
  let evaluated0 = counter "rtl_nodes_evaluated" t in
  let skipped0 = counter "rtl_nodes_skipped" t in
  (* input [a] is index 0 in rd_inputs order; its cone is wa1 -> wa2 *)
  Compile.set_input t 0 (BV.of_int ~width:8 0x5A);
  Compile.settle t;
  Alcotest.(check int) "only a's cone evaluated" 2
    (counter "rtl_nodes_evaluated" t - evaluated0);
  Alcotest.(check int) "b's cone skipped" 2 (counter "rtl_nodes_skipped" t - skipped0);
  Alcotest.(check int) "cone size recorded" 2 (counter "rtl_cone_max" t);
  (* unchanged write: nothing queues, settle is a no-op *)
  let evaluated1 = counter "rtl_nodes_evaluated" t in
  Compile.set_input t 0 (BV.of_int ~width:8 0x5A);
  Compile.settle t;
  Alcotest.(check int) "unchanged input evaluates nothing" 0
    (counter "rtl_nodes_evaluated" t - evaluated1)

(* ------------------------------------------------------------------ *)
(* The Stats wire-granularity levelization must agree with the engine's
   levelizer on a real synthesised netlist. *)

let check_stats_matches_levelizer () =
  let d = Pci_master_design.design ~app:script () in
  let report = Synthesize.synthesize d in
  let rtl = report.Synthesize.rp_rtl in
  let s = Stats.of_design rtl in
  let t = Compile.compile rtl in
  Alcotest.(check int) "max_comb_depth = Compile.levels" (Compile.levels t)
    s.Stats.max_comb_depth;
  Alcotest.(check (array int)) "depth_histogram = Compile.level_histogram"
    (Compile.level_histogram t) s.Stats.depth_histogram;
  Alcotest.(check int) "histogram sums to the node count" (Compile.node_count t)
    (Array.fold_left ( + ) 0 s.Stats.depth_histogram)

(* ------------------------------------------------------------------ *)
(* Common-subexpression elimination: two identical adders collapse to
   one, and the xor of the two copies folds to a constant. *)

let check_cse_merges_duplicates () =
  let b = Ir.builder "dup" in
  Ir.add_input b "x" 8;
  Ir.add_input b "y" 8;
  Ir.add_output b "o" 8;
  let s1 = Ir.fresh_wire b "s1" 8 and s2 = Ir.fresh_wire b "s2" 8 in
  Ir.assign b s1 (Ir.Binop (Ir.Add, Ir.Input ("x", 8), Ir.Input ("y", 8)));
  Ir.assign b s2 (Ir.Binop (Ir.Add, Ir.Input ("x", 8), Ir.Input ("y", 8)));
  let z = Ir.fresh_wire b "z" 8 in
  Ir.assign b z (Ir.Binop (Ir.Xor, Ir.Wire s1, Ir.Wire s2));
  Ir.drive b "o" (Ir.Wire z);
  let d = Ir.finish b in
  let shared = Opt.share_common d in
  Alcotest.(check bool) "still valid" true (Ir.validate shared = Ok ());
  let duplicate_rhs =
    List.filter
      (fun (_, e) -> match e with Ir.Binop (Ir.Add, _, _) -> true | _ -> false)
      shared.Ir.rd_assigns
  in
  Alcotest.(check int) "one adder left after sharing" 1 (List.length duplicate_rhs);
  (* the full pipeline folds s1 ^ s2 to the zero constant and drops all
     three wires *)
  let opt = Opt.optimize d in
  Alcotest.(check int) "no wires left" 0 (List.length opt.Ir.rd_wires);
  match opt.Ir.rd_drives with
  | [ ("o", Ir.Const c) ] -> Alcotest.(check bool) "o == 0" true (BV.is_zero c)
  | _ -> Alcotest.fail "output did not fold to a constant"

let tests =
  [
    ( "rtl-levelized",
      [
        random_differential;
        cec_agrees_with_simulation;
        Alcotest.test_case "system runs agree across engines" `Quick
          check_engines_agree_on_system;
        Alcotest.test_case "VCD byte-identical across engines" `Quick
          check_vcd_byte_identity;
        Alcotest.test_case "dirty-cone counters" `Quick check_dirty_cone_counters;
        Alcotest.test_case "stats levelization matches the engine" `Quick
          check_stats_matches_levelizer;
        Alcotest.test_case "cse merges duplicate computations" `Quick
          check_cse_merges_duplicates;
      ] );
  ]
