(* The communication synthesiser.  Crafted designs cover the handshake,
   arbitration policies, polymorphism, the chaining ablation and error
   cases; the qcheck property at the bottom generates random (deadlock-free,
   deterministic) designs and checks the headline invariant: behavioural
   simulation and synthesised-RTL simulation produce identical transaction
   traces and final object states. *)

open Hlcs_hlir.Builder
module A = Hlcs_hlir.Ast
module Synthesize = Hlcs_synth.Synthesize
module Equiv = Hlcs_verify.Equiv
module Policy = Hlcs_osss.Policy
module T = Hlcs_engine.Time
module S = Hlcs_engine.Signal
module BV = Hlcs_logic.Bitvec

let c8 = cst ~width:8

let buffer_obj ?(policy = Policy.Fcfs) () =
  object_ "buffer" ~policy
    ~fields:[ field_decl "full" 1; field_decl "data" 8 ]
    ~methods:
      [
        method_ "put" ~params:[ ("x", 8) ]
          ~guard:(inv (field "full"))
          ~updates:[ ("full", ctrue); ("data", var "x") ];
        method_ "get" ~result:(8, field "data") ~guard:(field "full")
          ~updates:[ ("full", cfalse) ];
      ]

let producer_consumer ?policy () =
  let producer =
    process "producer" ~locals:[ local "i" 8 ]
      [
        while_ (var "i" <: c8 9)
          [
            call "buffer" "put" [ var "i" *: c8 5 ];
            set "i" (var "i" +: c8 1);
          ];
      ]
  in
  let consumer =
    process "consumer"
      ~locals:[ local "x" 8; local "n" 8 ]
      [
        while_ (var "n" <: c8 9)
          [
            call_bind "x" ~obj:"buffer" ~meth:"get" [];
            emit "out" (var "x" ^: c8 0xFF);
            set "n" (var "n" +: c8 1);
            wait 1;
          ];
      ]
  in
  design "pc" ~ports:[ out_port "out" 8 ]
    ~objects:[ buffer_obj ?policy () ]
    ~processes:[ producer; consumer ]

let assert_equivalent ?options ?stimulus ?(max_time = T.us 100) d =
  let v = Equiv.check ?options ?stimulus ~max_time d in
  if not v.Equiv.vd_equivalent then
    Alcotest.failf "not equivalent:@.%a" Equiv.pp_verdict v;
  v

let check_producer_consumer () = ignore (assert_equivalent (producer_consumer ()))

let check_policies_all_equivalent () =
  List.iter
    (fun policy -> ignore (assert_equivalent (producer_consumer ~policy ())))
    Policy.all

let check_contended_counter () =
  (* five processes hammer one shared counter; increments commute, so the
     final state is deterministic even though grant order is not *)
  let ctr =
    object_ "ctr"
      ~fields:[ field_decl "n" 16 ]
      ~methods:
        [
          method_ "bump" ~guard:ctrue
            ~updates:[ ("n", field "n" +: cst ~width:16 1) ];
        ]
  in
  let worker i =
    process (Printf.sprintf "w%d" i) ~locals:[ local "k" 8 ]
      [ while_ (var "k" <: c8 7) [ call "ctr" "bump" []; set "k" (var "k" +: c8 1) ] ]
  in
  let d = design "contend" ~objects:[ ctr ] ~processes:(List.init 5 worker) in
  let v = assert_equivalent d in
  let final = List.assoc "n" (List.assoc "ctr" v.Equiv.vd_rtl.Equiv.sd_objects) in
  Alcotest.(check int) "all increments granted" 35 (BV.to_int final)

let check_virtual_dispatch_synthesis () =
  let alu =
    object_ "alu" ~tag:"kind"
      ~fields:[ field_decl "kind" 2; field_decl "acc" 8 ]
      ~methods:
        [
          virtual_method "apply" ~params:[ ("x", 8) ]
            [
              (0, impl ~guard:ctrue ~updates:[ ("acc", field "acc" +: var "x") ] ());
              (1, impl ~guard:ctrue ~updates:[ ("acc", field "acc" ^: var "x") ] ());
              (2, impl ~guard:ctrue ~updates:[ ("acc", field "acc" &: var "x") ] ());
            ];
          method_ "get" ~result:(8, field "acc") ~guard:ctrue ~updates:[];
          method_ "morph" ~params:[ ("t", 2) ] ~guard:ctrue
            ~updates:[ ("kind", var "t") ];
        ]
  in
  let p =
    process "p" ~locals:[ local "r" 8 ]
      [
        call "alu" "apply" [ c8 0x31 ];
        call "alu" "morph" [ cst ~width:2 1 ];
        call "alu" "apply" [ c8 0x55 ];
        call "alu" "morph" [ cst ~width:2 2 ];
        call "alu" "apply" [ c8 0xF0 ];
        call_bind "r" ~obj:"alu" ~meth:"get" [];
        emit "o" (var "r");
        halt;
      ]
  in
  let d = design "poly" ~ports:[ out_port "o" 8 ] ~objects:[ alu ] ~processes:[ p ] in
  let v = assert_equivalent d in
  (* ((0x31) xor 0x55) and 0xF0 = 0x60 *)
  Alcotest.(check (list string))
    "observed value" [ "00"; "60" ]
    (List.map BV.to_hex_string (List.assoc "o" v.Equiv.vd_rtl.Equiv.sd_ports))

let check_input_sampling () =
  (* a polling loop samples an input every cycle in both models *)
  let d =
    design "follow"
      ~ports:[ in_port "i" 8; out_port "o" 8 ]
      ~processes:
        [
          process "p" ~locals:[ local "n" 8 ]
            [
              while_ (var "n" <: c8 30)
                [ emit "o" (port "i" +: c8 1); set "n" (var "n" +: c8 1); wait 1 ];
              halt;
            ];
        ]
  in
  let stimulus _k clock in_port =
    ignore
      (Hlcs_engine.Kernel.spawn _k (fun () ->
           let sig_ = in_port "i" in
           List.iter
             (fun v ->
               Hlcs_engine.Clock.wait_edges clock 4;
               S.write sig_ (BV.of_int ~width:8 v))
             [ 10; 20; 30; 40; 50 ]))
  in
  ignore (assert_equivalent ~stimulus d)

let check_chaining_ablation () =
  let d = producer_consumer () in
  let chained = Synthesize.synthesize d in
  let unchained =
    Synthesize.synthesize ~options:{ Synthesize.default_options with chaining = false } d
  in
  let states r = List.fold_left (fun n (_, s) -> n + s) 0 r.Synthesize.rp_process_states in
  Alcotest.(check bool)
    (Printf.sprintf "one-assignment-per-state has more states (%d vs %d)"
       (states unchained) (states chained))
    true
    (states unchained > states chained);
  let depth r = r.Synthesize.rp_stats.Hlcs_rtl.Stats.critical_path in
  Alcotest.(check bool)
    (Printf.sprintf "and no deeper logic (%d vs %d)" (depth unchained) (depth chained))
    true
    (depth unchained <= depth chained);
  (* and it still simulates equivalently *)
  ignore
    (assert_equivalent ~options:{ Synthesize.default_options with chaining = false } d)

let check_case_synthesis () =
  (* a case statement with zero-time arms (mux merge) and one with a timed
     arm (state branch) *)
  let d =
    design "case_synth"
      ~ports:[ out_port "o" 8 ]
      ~objects:[ buffer_obj () ]
      ~processes:
        [
          process "p" ~locals:[ local "i" 8; local "x" 8 ]
            [
              while_ (var "i" <: c8 6)
                [
                  (* pure: selection merges into the datapath *)
                  case_ (slice (var "i") ~hi:1 ~lo:0) ~width:2
                    [
                      ([ 0 ], [ set "x" (var "i" +: c8 100) ]);
                      ([ 1; 3 ], [ set "x" (var "i" *: c8 2) ]);
                    ]
                    ~default:[ set "x" (c8 0) ];
                  emit "o" (var "x");
                  (* timed: one arm performs a guarded call *)
                  case_ (slice (var "i") ~hi:0 ~lo:0) ~width:1
                    [ ([ 0 ], [ call "buffer" "put" [ var "x" ] ]) ]
                    ~default:[ call_bind "x" ~obj:"buffer" ~meth:"get" [] ];
                  set "i" (var "i" +: c8 1);
                  wait 1;
                ];
              halt;
            ];
        ]
  in
  ignore (assert_equivalent d)

let check_multiple_call_sites () =
  (* two call sites of the same method from one process share a channel *)
  let d =
    design "sites" ~ports:[ out_port "o" 8 ]
      ~objects:[ buffer_obj () ]
      ~processes:
        [
          process "p" ~locals:[ local "x" 8 ]
            [
              call "buffer" "put" [ c8 11 ];
              call_bind "x" ~obj:"buffer" ~meth:"get" [];
              emit "o" (var "x");
              call "buffer" "put" [ var "x" +: c8 1 ];
              call_bind "x" ~obj:"buffer" ~meth:"get" [];
              emit "o" (var "x");
              halt;
            ];
        ]
  in
  let report = Synthesize.synthesize d in
  Alcotest.(check (list (pair string int)))
    "two channels (put and get), not four"
    [ ("buffer", 2) ]
    report.Synthesize.rp_object_channels;
  ignore (assert_equivalent d)

let check_rejects_port_conflict () =
  let d =
    design "conflict" ~ports:[ out_port "o" 8 ]
      ~processes:
        [
          process "p1" [ emit "o" (c8 1); wait 1 ];
          process "p2" [ emit "o" (c8 2); wait 1 ];
        ]
  in
  Alcotest.(check bool) "two writers rejected" true
    (match Synthesize.synthesize d with
    | _ -> false
    | exception Synthesize.Synthesis_error _ -> true)

let check_rejects_ill_typed () =
  let d =
    design "bad" ~ports:[ out_port "o" 8 ]
      ~processes:[ process "p" [ emit "o" (cst ~width:4 1) ] ]
  in
  Alcotest.(check bool) "typecheck runs first" true
    (match Synthesize.synthesize d with
    | _ -> false
    | exception Hlcs_hlir.Typecheck.Type_error _ -> true)

let check_vhdl_of_synthesised () =
  let report = Synthesize.synthesize (producer_consumer ()) in
  let vhdl = Hlcs_rtl.Vhdl.to_string report.Synthesize.rp_rtl in
  Alcotest.(check bool) "nonempty vhdl" true (String.length vhdl > 500)

let check_fsm_dot () =
  let report = Synthesize.synthesize (producer_consumer ()) in
  let dot = List.assoc "consumer" report.Synthesize.rp_fsm_dot in
  let contains sub =
    let n = String.length dot and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dot i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph \"consumer\"");
  Alcotest.(check bool) "reset state marked" true (contains "s0 [shape=doublecircle]");
  Alcotest.(check bool) "has transitions" true (contains "->")

(* --- random-design equivalence property ------------------------------- *)

(* Generated designs are deterministic by construction: each process owns a
   private object (guards always true) and private output ports, loops are
   bounded by counters, and every statement terminates. *)

module Gen = QCheck2.Gen

let ( >>= ) = Gen.( >>= )
let locals_pool = [ "x"; "y"; "z" ]

let gen_leaf =
  Gen.oneof
    [
      Gen.map (fun n -> c8 (n land 0xFF)) (Gen.int_bound 255);
      Gen.map var (Gen.oneofl locals_pool);
    ]

let rec gen_expr8 depth =
  if depth = 0 then gen_leaf
  else
    Gen.oneof
      [
        gen_leaf;
        Gen.map inv (gen_expr8 (depth - 1));
        Gen.map neg (gen_expr8 (depth - 1));
        Gen.map2
          (fun op (a, b) -> op a b)
          (Gen.oneofl [ ( +: ); ( -: ); ( *: ); ( &: ); ( |: ); ( ^: ) ])
          (Gen.pair (gen_expr8 (depth - 1)) (gen_expr8 (depth - 1)));
        Gen.map2
          (fun c (a, b) -> mux c a b)
          (gen_cond (depth - 1))
          (Gen.pair (gen_expr8 (depth - 1)) (gen_expr8 (depth - 1)));
        Gen.map
          (fun e -> slice (e @: e) ~hi:11 ~lo:4)
          (gen_expr8 (depth - 1));
      ]

and gen_cond depth =
  Gen.oneof
    [
      Gen.map2 (fun a b -> a ==: b) (gen_expr8 depth) (gen_expr8 depth);
      Gen.map2 (fun a b -> a <: b) (gen_expr8 depth) (gen_expr8 depth);
      Gen.map any (gen_expr8 depth);
    ]

let gen_simple_stmt ~obj =
  Gen.frequency
    [
      (4, Gen.map2 (fun l e -> set l e) (Gen.oneofl locals_pool) (gen_expr8 2));
      (2, Gen.map (fun e -> emit "o" e) (gen_expr8 2));
      (2, Gen.map (fun e -> call obj "add" [ e ]) (gen_expr8 1));
      (1, Gen.map (fun e -> call obj "mix" [ e ]) (gen_expr8 1));
      (1, Gen.map (fun l -> call_bind l ~obj ~meth:"get" []) (Gen.oneofl locals_pool));
      ( 1,
        Gen.map2
          (fun i e -> call obj "store" [ slice i ~hi:1 ~lo:0; e ])
          (gen_expr8 1) (gen_expr8 1) );
      ( 1,
        Gen.map2
          (fun l i -> call_bind l ~obj ~meth:"load" [ slice i ~hi:1 ~lo:0 ])
          (Gen.oneofl locals_pool) (gen_expr8 1) );
      (1, Gen.return (wait 1));
      ( 1,
        Gen.map2
          (fun c (t, e) -> if_ c t e)
          (gen_cond 1)
          (Gen.pair
             (Gen.list_size (Gen.int_range 1 3)
                (Gen.map2 (fun l e -> set l e) (Gen.oneofl locals_pool) (gen_expr8 1)))
             (Gen.list_size (Gen.int_range 0 2)
                (Gen.map (fun e -> emit "o" e) (gen_expr8 1)))) );
    ]

let gen_segment ~obj ~loop_counter =
  Gen.oneof
    [
      Gen.list_size (Gen.int_range 2 6) (gen_simple_stmt ~obj);
      (* bounded loop *)
      Gen.map2
        (fun bound body ->
          [
            set loop_counter (c8 0);
            while_
              (var loop_counter <: c8 bound)
              (body @ [ set loop_counter (var loop_counter +: c8 1); wait 1 ]);
          ])
        (Gen.int_range 1 5)
        (Gen.list_size (Gen.int_range 1 4) (gen_simple_stmt ~obj));
    ]

let gen_process index =
  let obj = Printf.sprintf "acc%d" index in
  let counters = List.init 4 (fun i -> Printf.sprintf "cnt%d" i) in
  let gen_segments =
    Gen.int_range 1 4 >>= fun n ->
    Gen.flatten_l
      (List.init n (fun i -> gen_segment ~obj ~loop_counter:(List.nth counters (i mod 4))))
  in
  Gen.map
    (fun segments ->
      let checksum = List.fold_left (fun e l -> e ^: var l) (var "x") [ "y"; "z" ] in
      let body = List.concat segments @ [ emit "o" checksum; halt ] in
      process
        (Printf.sprintf "p%d" index)
        ~locals:(List.map (fun l -> local l 8) (locals_pool @ counters))
        body)
    gen_segments

let acc_object nth =
  object_
    (Printf.sprintf "acc%d" nth)
    ~fields:[ field_decl "f" 8; field_decl "g" 8 ]
    ~arrays:[ array_decl "bank" ~width:8 ~depth:3 ]
    ~methods:
      [
        method_ "add" ~params:[ ("v", 8) ] ~guard:ctrue
          ~updates:[ ("f", field "f" +: var "v") ];
        method_ "mix" ~params:[ ("v", 8) ] ~guard:ctrue
          ~updates:[ ("f", field "f" ^: field "g"); ("g", var "v") ];
        method_ "get" ~result:(8, field "f" +: field "g") ~guard:ctrue ~updates:[];
        (* depth 3 with a 2-bit index: index 3 exercises the out-of-range
           path *)
        method_ "store" ~params:[ ("i", 2); ("v", 8) ] ~guard:ctrue ~updates:[]
          ~array_updates:[ ("bank", var "i", var "v" ^: index "bank" (var "i")) ];
        method_ "load" ~params:[ ("i", 2) ]
          ~result:(8, index "bank" (var "i"))
          ~guard:ctrue ~updates:[];
      ]

let gen_design =
  Gen.int_range 1 2 >>= fun nprocs ->
  Gen.map
    (fun procs ->
      (* Output-stability discipline (see Synthesize): every emission site
         gets its own private port, so no port is written twice within one
         zero-time step. *)
      let rename_ports (p : A.process_decl) =
        let ports = ref [] in
        let site = ref 0 in
        let fresh_port () =
          let name = Printf.sprintf "%s_o%d" p.A.p_name !site in
          incr site;
          ports := out_port name 8 :: !ports;
          name
        in
        let rec fix_stmt = function
          | A.Emit (_, e) -> A.Emit (fresh_port (), e)
          | A.If (c, t, e) -> A.If (c, List.map fix_stmt t, List.map fix_stmt e)
          | A.Case (sel, arms, default) ->
              A.Case
                ( sel,
                  List.map (fun (ls, b) -> (ls, List.map fix_stmt b)) arms,
                  List.map fix_stmt default )
          | A.While (c, b) -> A.While (c, List.map fix_stmt b)
          | (A.Set _ | A.Wait _ | A.Call _ | A.Halt) as s -> s
        in
        let body = List.map fix_stmt p.A.p_body in
        ({ p with A.p_body = body }, List.rev !ports)
      in
      let procs, ports = List.split (List.map rename_ports procs) in
      design "random" ~ports:(List.concat ports)
        ~objects:(List.init nprocs acc_object)
        ~processes:procs)
    (Gen.flatten_l (List.init nprocs gen_process))

let random_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"random designs: behavioural == RTL" gen_design
       (fun d ->
         match Hlcs_hlir.Typecheck.check d with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             let v = Equiv.check ~max_time:(T.us 30) d in
             if not v.Equiv.vd_equivalent then
               QCheck2.Test.fail_reportf "not equivalent:@.%a@.design:@.%s"
                 Equiv.pp_verdict v
                 (Hlcs_hlir.Pretty.design_to_string d)
             else true))

(* --- incremental synthesis --------------------------------------------- *)

module Synth_cache = Hlcs_synth.Synth_cache
module Cec = Hlcs_analysis.Cec

(* A genuine single-unit edit: prepend a self-assignment to one process
   body.  The process's FSM gains a commit, so its fragment really
   changes, while every other unit's signature stays put. *)
let edit_process nth (d : A.design) =
  {
    d with
    A.d_processes =
      List.mapi
        (fun i (p : A.process_decl) ->
          if i = nth then
            { p with A.p_body = A.Set ("x", A.Var "x") :: p.A.p_body }
          else p)
        d.A.d_processes;
  }

let report_bytes (r : Synthesize.report) = Marshal.to_string r [ Marshal.No_sharing ]

(* The headline incremental-synthesis invariant: warming a cache on a
   design, editing one process and resynthesising must (a) rebuild
   exactly that unit, reusing every other fragment, and (b) produce a
   report byte-identical to a from-scratch synthesis of the edited
   design — with the SAT-based checker as an independent second witness
   on the netlists. *)
let incremental_byte_identity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"incremental relink == full resynthesis (byte-identical)"
       (Gen.pair gen_design Gen.bool)
       (fun (d, edit_last) ->
         match Hlcs_hlir.Typecheck.check d with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             let c = Synth_cache.create ~disk:`Memory () in
             ignore (Synth_cache.synthesize c d);
             let warm = Synth_cache.stats c in
             let nunits = warm.Synth_cache.units_total in
             let nth = if edit_last then List.length d.A.d_processes - 1 else 0 in
             let d' = edit_process nth d in
             let incremental = Synth_cache.synthesize c d' in
             let full = Synthesize.synthesize d' in
             let st = Synth_cache.stats c in
             if st.Synth_cache.units_rebuilt - warm.Synth_cache.units_rebuilt <> 1
             then
               QCheck2.Test.fail_reportf "expected 1 rebuilt unit, got %d (of %d)"
                 (st.Synth_cache.units_rebuilt - warm.Synth_cache.units_rebuilt)
                 nunits;
             if
               st.Synth_cache.units_reused - warm.Synth_cache.units_reused
               <> nunits - 1
             then
               QCheck2.Test.fail_reportf "expected %d reused units, got %d"
                 (nunits - 1)
                 (st.Synth_cache.units_reused - warm.Synth_cache.units_reused);
             if report_bytes incremental <> report_bytes full then
               QCheck2.Test.fail_reportf
                 "incremental relink differs from full resynthesis:@.%s"
                 (Hlcs_hlir.Pretty.design_to_string d');
             (match
                (Cec.check incremental.Synthesize.rp_rtl full.Synthesize.rp_rtl)
                  .Cec.rp_verdict
              with
             | Cec.Equivalent -> ()
             | Cec.Inequivalent cx ->
                 QCheck2.Test.fail_reportf "CEC counterexample: %s"
                   (Cec.counterexample_to_string cx)
             | Cec.Incomparable reasons ->
                 QCheck2.Test.fail_reportf "CEC incomparable: %s"
                   (String.concat "; " reasons));
             true))

(* the fig3 partition the CLI's `units` table and EXPERIMENTS.md describe:
   an interface-preserving body edit dirties that process's signature and
   nothing else *)
let check_plan_signatures () =
  let d = producer_consumer () in
  let pl = Synthesize.plan d in
  let names = List.map (fun u -> u.Synthesize.u_name) pl.Synthesize.pl_units in
  Alcotest.(check (list string))
    "one unit per process and object"
    [ "process:producer"; "process:consumer"; "object:buffer" ]
    names;
  (* the consumer has a local [x] for the self-assignment edit *)
  let d' = edit_process 1 d in
  let pl' = Synthesize.plan d' in
  let sigs pl = List.map (fun u -> (u.Synthesize.u_name, u.Synthesize.u_signature)) pl.Synthesize.pl_units in
  let changed =
    List.filter
      (fun (n, s) -> List.assoc n (sigs pl) <> s)
      (sigs pl')
  in
  Alcotest.(check (list string))
    "exactly the edited process is dirty" [ "process:consumer" ]
    (List.map fst changed);
  (* options the unit's lowering never reads leave its signature alone:
     the FCFS age width is an object-side knob *)
  let opts = { Synthesize.default_options with Synthesize.age_width = 8 } in
  let pl_aged = Synthesize.plan ~options:opts d in
  List.iter2
    (fun (n, s) (n', s') ->
      Alcotest.(check string) "names align" n n';
      if String.length n >= 7 && String.sub n 0 7 = "object:" then
        Alcotest.(check bool) (n ^ " signature moved") false (s = s')
      else Alcotest.(check string) (n ^ " signature stable") s s')
    (sigs pl) (sigs pl_aged)

(* FCFS grants read the age registers only through one order wire per
   client pair, so a grant re-evaluates when an order flips, not on every
   cycle an age counts *)
let check_fcfs_grants_read_order_wires () =
  let script =
    Hlcs_pci.Pci_stim.write_then_read_all
      (Hlcs_pci.Pci_stim.random ~seed:2004 ~count:12 ~base:0 ~size_bytes:1024 ())
  in
  let rtl =
    (Synthesize.synthesize (Hlcs_interface.Pci_master_design.design ~app:script ()))
      .Synthesize.rp_rtl
  in
  let module Ir = Hlcs_rtl.Ir in
  let rec regs acc = function
    | Ir.Reg r -> r.Ir.r_name :: acc
    | Ir.Const _ | Ir.Wire _ | Ir.Input _ -> acc
    | Ir.Unop (_, x) | Ir.Slice (x, _, _) -> regs acc x
    | Ir.Binop (_, x, y) -> regs (regs acc x) y
    | Ir.Mux (c, x, y) -> regs (regs (regs acc c) x) y
  in
  let grants =
    List.filter
      (fun (w, _) -> String.starts_with ~prefix:"bus_if_grant_" w.Ir.w_name)
      rtl.Ir.rd_assigns
  in
  Alcotest.(check int) "six grants" 6 (List.length grants);
  List.iter
    (fun (w, e) ->
      Alcotest.(check (list string))
        (w.Ir.w_name ^ " reads no age register")
        []
        (List.filter (String.starts_with ~prefix:"bus_if_age_c") (regs [] e)))
    grants

let tests =
  [
    ( "synth",
      [
        Alcotest.test_case "producer/consumer equivalence" `Quick check_producer_consumer;
        Alcotest.test_case "all policies equivalent" `Slow check_policies_all_equivalent;
        Alcotest.test_case "contended shared counter" `Quick check_contended_counter;
        Alcotest.test_case "virtual dispatch synthesis" `Quick check_virtual_dispatch_synthesis;
        Alcotest.test_case "input sampling" `Quick check_input_sampling;
        Alcotest.test_case "case synthesis" `Quick check_case_synthesis;
        Alcotest.test_case "chaining ablation" `Slow check_chaining_ablation;
        Alcotest.test_case "call-site channel sharing" `Quick check_multiple_call_sites;
        Alcotest.test_case "rejects port conflicts" `Quick check_rejects_port_conflict;
        Alcotest.test_case "rejects ill-typed designs" `Quick check_rejects_ill_typed;
        Alcotest.test_case "vhdl of synthesised design" `Quick check_vhdl_of_synthesised;
        Alcotest.test_case "fsm graphviz export" `Quick check_fsm_dot;
        Alcotest.test_case "unit partition and signatures" `Quick check_plan_signatures;
        random_equivalence;
        incremental_byte_identity;
        Alcotest.test_case "fcfs grants read age-order wires" `Quick
          check_fcfs_grants_read_order_wires;
      ] );
  ]
