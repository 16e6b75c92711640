(* The RTL engine (Compile, which Sim runs) against a pure reference
   evaluator over Ir's operator table: differential properties over random
   netlists (narrow and wide nets), the dirty-cone counters, and the
   Stats/Compile levelizer invariant. *)

module Ir = Hlcs_rtl.Ir
module Compile = Hlcs_rtl.Compile
module Opt = Hlcs_rtl.Opt
module Stats = Hlcs_rtl.Stats
module Synthesize = Hlcs_synth.Synthesize
module Pci_stim = Hlcs_pci.Pci_stim
module BV = Hlcs_logic.Bitvec
module Op = Hlcs_logic.Op
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

(* ------------------------------------------------------------------ *)
(* The reference: the netlist's meaning read straight off [Op.eval_unop]
   and [Op.eval_binop], with none of an engine's levelization, dirty
   tracking or unboxing.  A cycle recomputes every wire in topological
   order, computes every register update from the pre-edge values,
   commits them all, then recomputes the wires. *)

module Ids = Map.Make (Int)

type reference = {
  ref_inputs : (string * BV.t) list;
  ref_regs : BV.t Ids.t;  (** by [r_id] *)
  ref_wires : BV.t Ids.t;  (** by [w_id] *)
}

let rec ref_eval s = function
  | Ir.Const bv -> bv
  | Ir.Wire w -> Ids.find w.Ir.w_id s.ref_wires
  | Ir.Reg r -> Ids.find r.Ir.r_id s.ref_regs
  | Ir.Input (name, _) -> List.assoc name s.ref_inputs
  | Ir.Unop (op, x) -> Op.eval_unop op (ref_eval s x)
  | Ir.Binop (op, x, y) -> Op.eval_binop op (ref_eval s x) (ref_eval s y)
  | Ir.Mux (c, a, b) -> if BV.is_zero (ref_eval s c) then ref_eval s b else ref_eval s a
  | Ir.Slice (x, hi, lo) -> BV.slice (ref_eval s x) ~hi ~lo

let ref_settle d s =
  List.fold_left
    (fun s (w, e) -> { s with ref_wires = Ids.add w.Ir.w_id (ref_eval s e) s.ref_wires })
    s (Ir.topo_order d)

let ref_reset d =
  ref_settle d
    {
      ref_inputs = List.map (fun (name, w) -> (name, BV.zero w)) d.Ir.rd_inputs;
      ref_regs =
        List.fold_left (fun m r -> Ids.add r.Ir.r_id r.Ir.r_init m) Ids.empty d.Ir.rd_regs;
      ref_wires = Ids.empty;
    }

let ref_cycle d s writes =
  let inputs =
    List.map
      (fun (name, v) -> (name, Option.value ~default:v (List.assoc_opt name writes)))
      s.ref_inputs
  in
  let s = ref_settle d { s with ref_inputs = inputs } in
  let next = List.map (fun (r, e) -> (r.Ir.r_id, ref_eval s e)) d.Ir.rd_updates in
  ref_settle d
    { s with ref_regs = List.fold_left (fun m (id, v) -> Ids.add id v m) s.ref_regs next }

(* every drive and every register, by name *)
let ref_observe d s =
  List.map (fun (name, e) -> (name, ref_eval s e)) d.Ir.rd_drives
  @ List.map (fun r -> (r.Ir.r_name, Ids.find r.Ir.r_id s.ref_regs)) d.Ir.rd_regs

let compile_observe d c =
  Array.to_list (Array.map (fun (name, f) -> (name, f ())) (Compile.drives c))
  @ List.map (fun r -> (r.Ir.r_name, Compile.reg_value c r)) d.Ir.rd_regs

(* [Compile] stepped the way [Sim] steps it: inputs written, settle,
   register edge, settle *)
let compile_cycle d c writes =
  List.iteri
    (fun i (name, _) ->
      Option.iter (Compile.set_input c i) (List.assoc_opt name writes))
    d.Ir.rd_inputs;
  Compile.settle c;
  if Compile.step_registers c then Compile.settle c

let random_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"random netlists: Compile == pure reference (every drive and register, every cycle)"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 24))
       (fun (seed, nwires) ->
         let st = Random.State.make [| seed; nwires |] in
         let d = random_design st ~nwires in
         (match Ir.validate d with
         | Ok () -> ()
         | Error l -> QCheck2.Test.fail_reportf "generator produced invalid design: %s"
                        (String.concat "; " l));
         let stim = random_stim st ~cycles:12 in
         let c = Compile.compile d in
         Compile.full_settle c;
         let check cycle s =
           List.iter2
             (fun (name, want) (_, got) ->
               if not (BV.equal want got) then
                 QCheck2.Test.fail_reportf "cycle %d: %s is %s, reference %s" cycle name
                   (BV.to_hex_string got) (BV.to_hex_string want))
             (ref_observe d s) (compile_observe d c)
         in
         let s = ref (ref_reset d) in
         check 0 !s;
         List.iteri
           (fun i writes ->
             compile_cycle d c writes;
             s := ref_cycle d !s writes;
             check (i + 1) !s)
           stim;
         true))

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

let script = Pci_stim.directed_smoke ~base:0

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

(* ------------------------------------------------------------------ *)
(* The one-walk static passes against their references in
   [Static_oracle]: on random netlists in order, with [rd_assigns]
   shuffled, and with one injected defect each, [Analyze.rtl] and
   [Ir.validate] must equal the references message for message.  On the
   valid copies, [Stats] and the engine must not tell the shuffled
   netlist (sorted depth-first) from the in-order one (taken as it
   stands). *)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let rec reads_wire (w : Ir.wire) = function
  | Ir.Wire v -> v.Ir.w_id = w.Ir.w_id
  | Ir.Const _ | Ir.Reg _ | Ir.Input _ -> false
  | Ir.Unop (_, x) | Ir.Slice (x, _, _) -> reads_wire w x
  | Ir.Binop (_, x, y) -> reads_wire w x || reads_wire w y
  | Ir.Mux (c, x, y) -> reads_wire w c || reads_wire w x || reads_wire w y

(* the same width as [e], reading [extra] (of width 1) as well *)
let also_reading extra e = Ir.Mux (extra, e, Ir.Unop (Ir.Not, e))

let defects =
  [ "second driver"; "second driver closing a cycle"; "read before assignment"; "cycle";
    "unassigned wire"; "width mismatch"; "undeclared input"; "mis-sized input";
    "undriven output" ]

(* [d] with [defect] injected at a place [st] picks *)
let inject st defect (d : Ir.design) =
  let assigns = d.Ir.rd_assigns in
  let k = Random.State.int st (List.length assigns) in
  let w, e = List.nth assigns k in
  let replace e' = List.mapi (fun i a -> if i = k then (w, e') else a) assigns in
  let zero width = Ir.Const (BV.zero width) in
  (* a wire that reads [v], or [v] itself: reading it from [v] closes a
     cycle *)
  let reader_of v =
    match List.find_opt (fun (_, e) -> reads_wire v e) assigns with
    | Some (r, _) -> r
    | None -> v
  in
  match defect with
  | "second driver" -> (
      match Random.State.int st 3 with
      | 0 -> { d with Ir.rd_assigns = assigns @ [ (w, zero w.Ir.w_width) ] }
      | 1 ->
          let name, e = pick st d.Ir.rd_drives in
          { d with Ir.rd_drives = d.Ir.rd_drives @ [ (name, e) ] }
      | _ ->
          let r, e = pick st d.Ir.rd_updates in
          { d with Ir.rd_updates = d.Ir.rd_updates @ [ (r, e) ] })
  | "read before assignment" -> (
      (* the first assignment some later one reads, moved to the end *)
      let read_later i =
        let v, _ = List.nth assigns i in
        List.filteri (fun j _ -> j > i) assigns
        |> List.exists (fun (_, e) -> reads_wire v e)
      in
      match List.find_opt read_later (List.init (List.length assigns) Fun.id) with
      | Some i -> { d with Ir.rd_assigns = remove_nth i assigns @ [ List.nth assigns i ] }
      | None -> { d with Ir.rd_assigns = List.rev assigns })
  | "second driver closing a cycle" ->
      (* the last driver of [w] is the one the cycle check follows *)
      let loop = also_reading (Ir.Unop (Ir.Reduce_or, Ir.Wire (reader_of w))) e in
      { d with Ir.rd_assigns = assigns @ [ (w, loop) ] }
  | "cycle" ->
      let loop = also_reading (Ir.Unop (Ir.Reduce_or, Ir.Wire (reader_of w))) e in
      { d with Ir.rd_assigns = replace loop }
  | "unassigned wire" -> { d with Ir.rd_assigns = remove_nth k assigns }
  | "width mismatch" ->
      let wrong = zero (w.Ir.w_width + 1) in
      let e' = if Random.State.bool st then wrong else Ir.Binop (Ir.Add, e, wrong) in
      { d with Ir.rd_assigns = replace e' }
  | "undeclared input" ->
      { d with Ir.rd_assigns = replace (also_reading (Ir.Input ("ghost", 1)) e) }
  | "mis-sized input" ->
      { d with Ir.rd_assigns = replace (also_reading (Ir.Input ("i7", 1)) e) }
  | "undriven output" ->
      let k = Random.State.int st (List.length d.Ir.rd_drives) in
      { d with Ir.rd_drives = remove_nth k d.Ir.rd_drives }
  | other -> invalid_arg other

let render ds =
  String.concat "\n"
    (List.map (fun (x : Hlcs_analysis.Diag.t) -> x.Hlcs_analysis.Diag.d_message) ds)

let agrees_with_oracles label d =
  let got = Hlcs_analysis.Analyze.rtl d and want = Static_oracle.analyze d in
  if got <> want then
    QCheck2.Test.fail_reportf "%s: Analyze.rtl@.%s@.reference@.%s" label (render got)
      (render want);
  let got = Ir.validate d and want = Static_oracle.validate d in
  if got <> want then
    let show = function Ok () -> "Ok" | Error l -> String.concat "; " l in
    QCheck2.Test.fail_reportf "%s: Ir.validate %s, reference %s" label (show got)
      (show want)

(* counters and every drive and register after the same stimulus *)
let engine_run d stim =
  let c = Compile.compile d in
  Compile.full_settle c;
  List.iter (fun writes -> compile_cycle d c writes) stim;
  let values = List.map (fun (n, v) -> (n, BV.to_hex_string v)) (compile_observe d c) in
  (Compile.counters c, values)

let static_passes_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:
         "random netlists: one-walk static passes == references (in order, shuffled, \
          defects)"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 24))
       (fun (seed, nwires) ->
         let st = Random.State.make [| seed; nwires; 28 |] in
         let d = random_design st ~nwires in
         let shuffled = { d with Ir.rd_assigns = shuffle st d.Ir.rd_assigns } in
         if not (Ir.in_eval_order d) then
           QCheck2.Test.fail_report "generator netlist not in evaluation order";
         agrees_with_oracles "in order" d;
         agrees_with_oracles "shuffled" shuffled;
         List.iter (fun bug -> agrees_with_oracles bug (inject st bug d)) defects;
         if Stats.of_design shuffled <> Stats.of_design d then
           QCheck2.Test.fail_report "Stats differ between shuffled and in-order copies";
         let stim = random_stim st ~cycles:8 in
         if engine_run shuffled stim <> engine_run d stim then
           QCheck2.Test.fail_report
             "engine counters or values differ between shuffled and in-order copies";
         true))

(* ------------------------------------------------------------------ *)
(* The plan build makes no array from a young value: OCaml 5.1's
   [caml_make_vect] runs a minor collection before it builds an array of
   more than 256 words from one.  Fifty builds of one count-12 fig3
   netlist, each on a fresh physical copy (the plan memo is keyed on the
   physical design), must run fewer minor collections than builds. *)

let check_plan_build_minor_gcs () =
  let script = Hlcs.Sweep.script Run_config.default ~seed:2004 ~count:12 in
  let rtl =
    (Synthesize.synthesize (Pci_master_design.design ~app:script ())).Synthesize.rp_rtl
  in
  ignore (Compile.compile rtl : Compile.t);
  Gc.minor ();
  let builds = 50 in
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to builds do
    ignore (Compile.compile { rtl with Ir.rd_name = rtl.Ir.rd_name } : Compile.t)
  done;
  let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d minor collections over %d plan builds" collections builds)
    true (collections < builds)

let tests =
  [
    ( "rtl-levelized",
      [
        random_differential;
        cec_agrees_with_simulation;
        Alcotest.test_case "dirty-cone counters" `Quick check_dirty_cone_counters;
        Alcotest.test_case "stats levelization matches the engine" `Quick
          check_stats_matches_levelizer;
        Alcotest.test_case "cse merges duplicate computations" `Quick
          check_cse_merges_duplicates;
        static_passes_differential;
        Alcotest.test_case "plan builds force no minor collection" `Quick
          check_plan_build_minor_gcs;
      ] );
  ]
