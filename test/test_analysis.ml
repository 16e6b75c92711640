(* The unified static-analysis subsystem: each seeded fixture trips its
   headline rule, the shipped library elements stay clean at both levels,
   and (property) synthesis never manufactures error-level RTL
   diagnostics from an analysis-clean behavioural design. *)

open Hlcs_analysis
module Synthesize = Hlcs_synth.Synthesize
module Pci_stim = Hlcs_pci.Pci_stim

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let rules diags = List.map (fun (d : Diag.t) -> d.Diag.d_rule) diags

let has_rule rule diags =
  Alcotest.(check bool)
    (rule ^ " fires: [" ^ String.concat "," (rules diags) ^ "]")
    true
    (List.mem rule (rules diags))

let no_rule rule diags =
  Alcotest.(check bool)
    (rule ^ " quiet: [" ^ String.concat "," (rules diags) ^ "]")
    false
    (List.mem rule (rules diags))

let render diags = Diag.render_text diags

(* --- guard-deadlock ---------------------------------------------------- *)

let check_deadlock_fixture () =
  let diags = Analyze.design (Fixtures.deadlock_design ()) in
  has_rule "guard-deadlock" diags;
  let dl =
    List.find (fun (d : Diag.t) -> d.Diag.d_rule = "guard-deadlock") diags
  in
  Alcotest.(check bool) "is an error" true (dl.Diag.d_severity = Diag.Error);
  Alcotest.(check bool)
    ("witness cycle names both processes: " ^ dl.Diag.d_message)
    true
    (contains "p1" dl.Diag.d_message
    && contains "p2" dl.Diag.d_message
    && contains "left.take" dl.Diag.d_message)

let check_healthy_rendezvous () =
  no_rule "guard-deadlock" (Analyze.design (Fixtures.rendezvous_ok_design ()))

let check_unsatisfiable_guard () =
  let diags = Analyze.design (Fixtures.unsatisfiable_guard_design ()) in
  has_rule "guard-deadlock" diags

(* A guard whose shift amount fits no [int] shifts its only set bit out:
   the interpreter never opens it, and the guard analysis, which
   evaluates through the same operator table, reports the one call that
   waits on it. *)
let check_guard_shifted_out () =
  let open Hlcs_hlir.Builder in
  let module BV = Hlcs_logic.Bitvec in
  let shifted = field "ready" <<: cbv (BV.ones 64) in
  let d =
    design "shifted_out" ~ports:[ out_port "passed" 1 ]
      ~objects:
        [
          object_ "gate"
            ~fields:[ field_decl ~init:1 "ready" 8 ]
            ~methods:[ method_ "pass" ~guard:(shifted <>: cst ~width:8 0) ~updates:[] ];
        ]
      ~processes:[ process "p" [ call "gate" "pass" []; emit "passed" ctrue; halt ] ]
  in
  let k = Hlcs_engine.Kernel.create () in
  let clock = Hlcs_engine.Clock.create k ~name:"clk" ~period:(Hlcs_engine.Time.ns 10) () in
  let it = Hlcs_hlir.Interp.elaborate k ~clock d in
  Hlcs_engine.Kernel.run ~max_time:(Hlcs_engine.Time.us 1) k;
  Alcotest.(check bool) "the interpreter never passes the call" true
    (BV.is_zero (Hlcs_engine.Signal.read (Hlcs_hlir.Interp.out_port it "passed")));
  has_rule "guard-deadlock" (Analyze.design d)

let check_starvation () =
  let diags = Analyze.design (Fixtures.starvation_design ()) in
  has_rule "arbitration-starvation" diags;
  let s =
    List.find (fun (d : Diag.t) -> d.Diag.d_rule = "arbitration-starvation") diags
  in
  Alcotest.(check bool) "is a warning" true (s.Diag.d_severity = Diag.Warning)

let check_starvation_fair_policies () =
  (* the same contention pattern under fair policies stays quiet *)
  List.iter
    (fun policy ->
      let d = Fixtures.starvation_design () in
      let d =
        {
          d with
          Hlcs_hlir.Ast.d_objects =
            List.map
              (fun o -> { o with Hlcs_hlir.Ast.o_policy = policy })
              d.Hlcs_hlir.Ast.d_objects;
        }
      in
      no_rule "arbitration-starvation" (Analyze.design d))
    [ Hlcs_osss.Policy.Fcfs; Hlcs_osss.Policy.Round_robin ]

(* --- RTL analyses ------------------------------------------------------ *)

let check_multi_driver () =
  let diags = Analyze.rtl (Fixtures.multi_driver_netlist ()) in
  has_rule "rtl-multi-driver" diags;
  Alcotest.(check bool) "error severity" true (Analyze.errors diags <> [])

let check_comb_loop () =
  let diags = Analyze.rtl (Fixtures.comb_loop_netlist ()) in
  has_rule "rtl-comb-loop" diags;
  let d = List.find (fun (d : Diag.t) -> d.Diag.d_rule = "rtl-comb-loop") diags in
  Alcotest.(check bool)
    ("witness path printed: " ^ d.Diag.d_message)
    true
    (contains " -> " d.Diag.d_message)

let check_x_sources () =
  let diags = Analyze.rtl (Fixtures.x_source_netlist ()) in
  let xs = List.filter (fun (d : Diag.t) -> d.Diag.d_rule = "rtl-x-source") diags in
  Alcotest.(check int) ("unassigned wire + undriven output:\n" ^ render diags) 2
    (List.length xs)

let check_clean_netlist_quiet () =
  let b = Hlcs_rtl.Ir.builder "clean" in
  Hlcs_rtl.Ir.add_input b "i" 4;
  Hlcs_rtl.Ir.add_output b "o" 4;
  let w = Hlcs_rtl.Ir.fresh_wire b "w" 4 in
  Hlcs_rtl.Ir.assign b w (Hlcs_rtl.Ir.Unop (Hlcs_rtl.Ir.Not, Hlcs_rtl.Ir.Input ("i", 4)));
  Hlcs_rtl.Ir.drive b "o" (Hlcs_rtl.Ir.Wire w);
  let diags = Analyze.rtl (Hlcs_rtl.Ir.finish b) in
  Alcotest.(check (list string)) "no diagnostics" [] (rules diags)

(* --- shipped library elements stay clean at both levels ---------------- *)

let strict_config = { Diag.default_config with Diag.min_severity = Diag.Warning }

let check_library_elements_clean () =
  let script = Pci_stim.directed_smoke ~base:0 in
  List.iter
    (fun (name, design) ->
      let hlir = Analyze.design ~config:strict_config design in
      Alcotest.(check (list string)) (name ^ " HLIR clean") [] (rules hlir);
      let report = Synthesize.synthesize design in
      let rtl = Analyze.rtl ~config:strict_config report.Synthesize.rp_rtl in
      Alcotest.(check (list string))
        (name ^ " RTL clean:\n" ^ render rtl)
        [] (rules rtl))
    [
      ("pci", Hlcs_interface.Pci_master_design.design ~app:script ());
      ("sram", Hlcs_interface.Sram_master_design.design ~app:script ());
      ("dma", Hlcs_interface.Dma_design.design ~src:0 ~dst:64 ~words:8 ());
      ( "dma-buffered",
        Hlcs_interface.Dma_design.buffered_design ~src:0 ~dst:64 ~words:8 ~chunk:4 () );
    ]

(* --- Diag plumbing ----------------------------------------------------- *)

let check_renderers () =
  let diags = Analyze.design (Fixtures.deadlock_design ()) in
  let text = Diag.render_text diags in
  Alcotest.(check bool) ("text has rule id:\n" ^ text) true
    (contains "error[guard-deadlock]" text);
  Alcotest.(check bool) "text has summary" true (contains "error(s)" text);
  let json = Hlcs_json.Json.to_string (Diag.to_json ~name:"crossed_rendezvous" diags) in
  Alcotest.(check bool) ("json has rule:\n" ^ json) true
    (contains "\"rule\": \"guard-deadlock\"" json);
  Alcotest.(check bool) "json has severity" true
    (contains "\"severity\": \"error\"" json);
  Alcotest.(check bool) "json has counts" true (contains "\"errors\":" json)

let check_config_and_exit_codes () =
  let diags = Analyze.design (Fixtures.deadlock_design ()) in
  Alcotest.(check int) "errors exit 1" 1 (Diag.exit_code diags);
  let disabled = { Diag.default_config with Diag.disabled_rules = [ "guard-deadlock" ] } in
  let filtered = Analyze.design ~config:disabled (Fixtures.deadlock_design ()) in
  no_rule "guard-deadlock" filtered;
  let warn_only = Analyze.design (Fixtures.starvation_design ()) in
  Alcotest.(check int) "warnings exit 0" 0 (Diag.exit_code warn_only);
  Alcotest.(check int) "warnings exit 1 under strict" 1
    (Diag.exit_code ~strict:true warn_only);
  Alcotest.(check int) "clean exits 0" 0
    (Diag.exit_code ~strict:true (Analyze.design (Fixtures.rendezvous_ok_design ())))

(* --- property: analysis-clean designs synthesise to error-free RTL ----- *)

let random_rtl_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"synthesised RTL of analysis-clean designs has no error diagnostics"
       Test_synth.gen_design
       (fun d ->
         match Hlcs_hlir.Typecheck.check d with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () ->
             if Analyze.errors (Analyze.design d) <> [] then QCheck2.assume_fail ()
             else
               let report = Synthesize.synthesize d in
               let bad = Analyze.errors (Analyze.rtl report.Synthesize.rp_rtl) in
               if bad <> [] then
                 QCheck2.Test.fail_reportf "RTL diagnostics:@.%s@.design:@.%s"
                   (Diag.render_text bad)
                   (Hlcs_hlir.Pretty.design_to_string d)
               else true))

(* Two outputs whose names share one [Hashtbl.hash], each driven once,
   are two outputs with one driver each, not one with two. *)
let check_multi_driver_hash_twins () =
  let a = "out44022" and b = "out55431" in
  Alcotest.(check int) "the names share a hash" (Hashtbl.hash a) (Hashtbl.hash b);
  let bld = Hlcs_rtl.Ir.builder "hash_twins" in
  Hlcs_rtl.Ir.add_input bld "i" 1;
  List.iter
    (fun n ->
      Hlcs_rtl.Ir.add_output bld n 1;
      Hlcs_rtl.Ir.drive bld n (Hlcs_rtl.Ir.Input ("i", 1)))
    [ a; b ];
  let d = Hlcs_rtl.Ir.finish bld in
  Alcotest.(check bool) "validate accepts" true (Hlcs_rtl.Ir.validate d = Ok ());
  let diags = Analyze.rtl d in
  Alcotest.(check (list string)) ("no diagnostics:\n" ^ render diags) [] (rules diags)

(* A width violation under a reduction's operand or a shift amount:
   [Ir.drive] refuses it, and a netlist assembled by hand fails
   [Ir.validate], the rtl-width rule and the engine's plan build alike. *)
let check_width_gap_under_reduction_and_shift () =
  let module Ir = Hlcs_rtl.Ir in
  let gap = Ir.Binop (Ir.Add, Ir.Input ("a", 4), Ir.Input ("c", 8)) in
  let mismatch = "Rtl.Ir.expr_width: operand width mismatch" in
  List.iter
    (fun (label, e, width) ->
      let b = Ir.builder label in
      Ir.add_input b "a" 4;
      Ir.add_input b "c" 8;
      Ir.add_output b "o" width;
      Alcotest.(check bool) (label ^ ": Ir.drive refuses") true
        (match Ir.drive b "o" e with () -> false | exception Invalid_argument _ -> true);
      let d = { (Ir.finish b) with Ir.rd_drives = [ ("o", e) ] } in
      Alcotest.(check (result unit (list string)))
        (label ^ ": Ir.validate")
        (Error [ "output o: " ^ mismatch ])
        (Ir.validate d);
      let diags = Analyze.rtl d in
      has_rule "rtl-width" diags;
      Alcotest.(check bool) (label ^ ": an error") true
        (List.exists
           (fun (x : Diag.t) -> x.Diag.d_rule = "rtl-width" && x.Diag.d_severity = Diag.Error)
           diags);
      Alcotest.(check bool) (label ^ ": the plan build refuses") true
        (match Hlcs_rtl.Compile.compile d with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("reduction", Ir.Unop (Ir.Reduce_or, gap), 1);
      ("shift amount", Ir.Binop (Ir.Shl, Ir.Input ("a", 4), gap), 4);
    ]

let tests =
  [
    ( "analysis",
      [
        Alcotest.test_case "crossed rendezvous deadlocks" `Quick check_deadlock_fixture;
        Alcotest.test_case "healthy rendezvous is clean" `Quick check_healthy_rendezvous;
        Alcotest.test_case "unsatisfiable guard" `Quick check_unsatisfiable_guard;
        Alcotest.test_case "static-priority starvation" `Quick check_starvation;
        Alcotest.test_case "fair policies quiet" `Quick check_starvation_fair_policies;
        Alcotest.test_case "multi-driver netlist" `Quick check_multi_driver;
        Alcotest.test_case "combinational loop netlist" `Quick check_comb_loop;
        Alcotest.test_case "x-propagation sources" `Quick check_x_sources;
        Alcotest.test_case "clean netlist stays quiet" `Quick check_clean_netlist_quiet;
        Alcotest.test_case "library elements clean at both levels" `Quick
          check_library_elements_clean;
        Alcotest.test_case "text and json renderers" `Quick check_renderers;
        Alcotest.test_case "config and exit codes" `Quick check_config_and_exit_codes;
        random_rtl_clean;
        Alcotest.test_case "outputs whose names share a hash" `Quick
          check_multi_driver_hash_twins;
        Alcotest.test_case "width gap under a reduction or a shift amount" `Quick
          check_width_gap_under_reduction_and_shift;
        Alcotest.test_case "guard shifted out by an amount past every int" `Quick
          check_guard_shifted_out;
      ] );
  ]
