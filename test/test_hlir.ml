(* The behavioural IR: width checking diagnostics and interpreter
   semantics (statement behaviour, guarded calls, virtual dispatch,
   parallel method updates). *)

open Hlcs_hlir.Builder
module A = Hlcs_hlir.Ast
module Typecheck = Hlcs_hlir.Typecheck
module Interp = Hlcs_hlir.Interp
module Pretty = Hlcs_hlir.Pretty
module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec

let errors_of d = match Typecheck.check d with Ok () -> [] | Error l -> l

let expect_error fragment d =
  let diags = errors_of d in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "diagnostic mentions %S in [%s]" fragment (String.concat "; " diags))
    true
    (List.exists (fun dgn -> contains dgn fragment) diags)

let counter_obj =
  object_ "ctr"
    ~fields:[ field_decl "acc" 8 ]
    ~methods:
      [
        method_ "add" ~params:[ ("x", 8) ] ~guard:ctrue
          ~updates:[ ("acc", field "acc" +: var "x") ];
        method_ "get" ~result:(8, field "acc") ~guard:ctrue ~updates:[];
      ]

let check_typecheck_accepts () =
  let d =
    design "ok"
      ~ports:[ in_port "i" 8; out_port "o" 8 ]
      ~objects:[ counter_obj ]
      ~processes:
        [
          process "p" ~locals:[ local "x" 8 ]
            [
              set "x" (port "i" +: cst ~width:8 1);
              call "ctr" "add" [ var "x" ];
              call_bind "x" ~obj:"ctr" ~meth:"get" [];
              emit "o" (var "x");
              wait 1;
            ];
        ]
  in
  Alcotest.(check (list string)) "no diagnostics" [] (errors_of d)

let check_typecheck_rejections () =
  let proc body = design "bad" ~ports:[ in_port "i" 8; out_port "o" 8 ]
      ~objects:[ counter_obj ]
      ~processes:[ process "p" ~locals:[ local "x" 8; local "b" 1 ] body ] in
  expect_error "width" (proc [ set "x" (port "i" +: cst ~width:4 1) ]);
  expect_error "unknown local" (proc [ set "y" (cst ~width:8 0) ]);
  expect_error "unknown port" (proc [ set "x" (port "nope") ]);
  expect_error "output port" (proc [ set "x" (port "o") ]);
  expect_error "emit to input" (proc [ emit "i" (var "x") ]);
  expect_error "zero-time loop" (proc [ while_ (var "b") [ set "x" (cst ~width:8 0) ] ]);
  expect_error "condition" (proc [ if_ (var "x") [] [] ]);
  expect_error "arguments" (proc [ call "ctr" "add" [] ]);
  expect_error "no method" (proc [ call "ctr" "nope" [] ]);
  expect_error "unknown object" (proc [ call "nope" "add" [ var "x" ] ]);
  expect_error "returns none" (proc [ call_bind "x" ~obj:"ctr" ~meth:"add" [ var "x" ] ]);
  expect_error "wait count" (proc [ wait 0 ])

let check_typecheck_object_rules () =
  let base ~methods = design "bad" ~objects:[ object_ "o" ~fields:[ field_decl "f" 4 ] ~methods ] in
  expect_error "guard has width"
    (base ~methods:[ method_ "m" ~guard:(field "f") ~updates:[] ]);
  expect_error "unknown field"
    (base ~methods:[ method_ "m" ~guard:ctrue ~updates:[ ("g", cst ~width:4 0) ] ]);
  expect_error "width"
    (base ~methods:[ method_ "m" ~guard:ctrue ~updates:[ ("f", cst ~width:8 0) ] ]);
  expect_error "tag field"
    (design "bad" ~objects:[ object_ "o" ~tag:"t" ~fields:[ field_decl "f" 4 ] ~methods:[] ]);
  expect_error "without tag"
    (base ~methods:[ virtual_method "m" [ (0, impl ~guard:ctrue ~updates:[] ()) ] ]);
  expect_error "duplicate"
    (design "bad"
       ~objects:
         [ object_ "o" ~fields:[ field_decl "f" 4; field_decl "f" 4 ] ~methods:[] ])

(* run a design for a bounded time and return an out-port reader *)
let run ?(max_time = T.us 10) d =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let it = Interp.elaborate k ~clock:clk d in
  K.run ~max_time k;
  (it, fun name -> BV.to_int (S.read (Interp.out_port it name)))

let check_interp_statements () =
  let d =
    design "stmts"
      ~ports:[ out_port "sum" 8; out_port "branch" 8; out_port "loops" 8 ]
      ~processes:
        [
          process "p"
            ~locals:[ local "i" 8; local "acc" 8 ]
            [
              (* while with data dependency *)
              while_ (var "i" <: cst ~width:8 5)
                [
                  set "acc" (var "acc" +: var "i");
                  set "i" (var "i" +: cst ~width:8 1);
                  wait 1;
                ];
              emit "sum" (var "acc");
              (* if/else with mux equivalent *)
              if_ (var "acc" ==: cst ~width:8 10)
                [ emit "branch" (cst ~width:8 1) ]
                [ emit "branch" (cst ~width:8 2) ];
              emit "loops" (mux (var "i" >: cst ~width:8 4) (var "i") (neg (var "i")));
              halt;
              emit "sum" (cst ~width:8 99);
            ];
        ]
  in
  let _, out = run d in
  Alcotest.(check int) "sum 0+1+2+3+4" 10 (out "sum");
  Alcotest.(check int) "branch then" 1 (out "branch");
  Alcotest.(check int) "mux" 5 (out "loops")

let check_case_semantics () =
  let d =
    design "cases"
      ~ports:[ in_port "sel" 2; out_port "o" 8; out_port "n" 8 ]
      ~processes:
        [
          process "p" ~locals:[ local "i" 8 ]
            [
              while_ (var "i" <: cst ~width:8 4)
                [
                  case_ (slice (var "i") ~hi:1 ~lo:0) ~width:2
                    [
                      ([ 0 ], [ emit "o" (cst ~width:8 10) ]);
                      ([ 1; 2 ], [ emit "o" (cst ~width:8 20) ]);
                    ]
                    ~default:[ emit "o" (cst ~width:8 99) ];
                  emit "n" (var "i");
                  set "i" (var "i" +: cst ~width:8 1);
                  wait 1;
                ];
            ];
        ]
  in
  let k = K.create () in
  (* a first edge after time zero, so the first sample sees the first emit *)
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) ~start:(T.ns 5) () in
  let it = Interp.elaborate k ~clock:clk d in
  let o = Interp.out_port it "o" in
  let seen = ref [] in
  C.on_rising clk (fun ~cycle ->
      if cycle <= 4 then seen := BV.to_int (S.read o) :: !seen);
  K.run ~max_time:(T.us 1) k;
  Alcotest.(check (list int)) "arm selection incl. multi-label and default"
    [ 10; 20; 20; 99 ] (List.rev !seen)

let check_case_typecheck () =
  let proc body =
    design "bad" ~ports:[ in_port "sel" 2 ]
      ~processes:[ process "p" ~locals:[ local "x" 8 ] body ]
  in
  expect_error "case label width"
    (proc
       [ case_bv (port "sel") [ ([ BV.of_int ~width:3 1 ], []) ] ~default:[] ]);
  expect_error "duplicate case label"
    (proc
       [
         case_ (port "sel") ~width:2 [ ([ 1 ], []); ([ 1 ], []) ] ~default:[];
       ]);
  expect_error "no labels" (proc [ case_ (port "sel") ~width:2 [ ([], []) ] ~default:[] ])

let check_interp_halt_stops () =
  let d =
    design "halted" ~ports:[ out_port "o" 8 ]
      ~processes:
        [ process "p" [ emit "o" (cst ~width:8 1); halt; emit "o" (cst ~width:8 2) ] ]
  in
  let _, out = run d in
  Alcotest.(check int) "statements after halt dead" 1 (out "o")

let check_parallel_method_updates () =
  (* swap: both updates read the pre-state *)
  let d =
    design "swap"
      ~ports:[ out_port "a" 8; out_port "b" 8 ]
      ~objects:
        [
          object_ "o"
            ~fields:[ field_decl ~init:3 "x" 8; field_decl ~init:9 "y" 8 ]
            ~methods:
              [
                method_ "swap" ~guard:ctrue
                  ~updates:[ ("x", field "y"); ("y", field "x") ];
                method_ "get_x" ~result:(8, field "x") ~guard:ctrue ~updates:[];
                method_ "get_y" ~result:(8, field "y") ~guard:ctrue ~updates:[];
              ];
        ]
      ~processes:
        [
          process "p" ~locals:[ local "t" 8 ]
            [
              call "o" "swap" [];
              call_bind "t" ~obj:"o" ~meth:"get_x" [];
              emit "a" (var "t");
              call_bind "t" ~obj:"o" ~meth:"get_y" [];
              emit "b" (var "t");
            ];
        ]
  in
  let _, out = run d in
  Alcotest.(check int) "x got y" 9 (out "a");
  Alcotest.(check int) "y got x" 3 (out "b")

let check_result_reads_prestate () =
  (* get-and-clear: result must be the pre-update value *)
  let d =
    design "gac" ~ports:[ out_port "o" 8 ]
      ~objects:
        [
          object_ "o"
            ~fields:[ field_decl ~init:77 "v" 8 ]
            ~methods:
              [
                method_ "take" ~result:(8, field "v") ~guard:ctrue
                  ~updates:[ ("v", cst ~width:8 0) ];
              ];
        ]
      ~processes:
        [
          process "p" ~locals:[ local "t" 8 ]
            [ call_bind "t" ~obj:"o" ~meth:"take" []; emit "o" (var "t") ];
        ]
  in
  let it, out = run d in
  Alcotest.(check int) "result from pre-state" 77 (out "o");
  Alcotest.(check bool) "state cleared" true
    (BV.is_zero (List.assoc "v" (Interp.object_state it "o")))

let check_virtual_dispatch () =
  (* an ALU-ish polymorphic object: the op method's behaviour depends on
     the object's tag field *)
  let alu tag_init =
    object_ "alu" ~tag:"kind"
      ~fields:[ field_decl ~init:tag_init "kind" 2; field_decl "acc" 8 ]
      ~methods:
        [
          virtual_method "apply" ~params:[ ("x", 8) ]
            [
              (0, impl ~guard:ctrue ~updates:[ ("acc", field "acc" +: var "x") ] ());
              (1, impl ~guard:ctrue ~updates:[ ("acc", field "acc" ^: var "x") ] ());
            ];
          method_ "get" ~result:(8, field "acc") ~guard:ctrue ~updates:[];
          method_ "morph" ~params:[ ("t", 2) ] ~guard:ctrue ~updates:[ ("kind", var "t") ];
        ]
  in
  let d =
    design "poly" ~ports:[ out_port "o" 8 ]
      ~objects:[ alu 0 ]
      ~processes:
        [
          process "p" ~locals:[ local "t" 8 ]
            [
              call "alu" "apply" [ cst ~width:8 5 ];
              (* acc = 0 + 5 *)
              call "alu" "morph" [ cst ~width:2 1 ];
              call "alu" "apply" [ cst ~width:8 0xFF ];
              (* acc = 5 xor ff = fa *)
              call_bind "t" ~obj:"alu" ~meth:"get" [];
              emit "o" (var "t");
            ];
        ]
  in
  let _, out = run d in
  Alcotest.(check int) "late binding switched behaviour" 0xFA (out "o")

let check_virtual_unmatched_tag_blocks () =
  let d =
    design "poly2" ~ports:[ out_port "o" 8 ]
      ~objects:
        [
          object_ "v" ~tag:"kind"
            ~fields:[ field_decl ~init:3 "kind" 2 ]
            ~methods:
              [ virtual_method "m" [ (0, impl ~guard:ctrue ~updates:[] ()) ] ];
        ]
      ~processes:
        [ process "p" [ call "v" "m" []; emit "o" (cst ~width:8 1) ] ]
  in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let it = Interp.elaborate k ~clock:clk d in
  K.run ~max_time:(T.us 1) k;
  Alcotest.(check int) "caller blocked forever" 0
    (BV.to_int (S.read (Interp.out_port it "o")));
  Alcotest.(check bool) "suspended" true (K.suspended_processes k >= 1)

let check_native_call () =
  let d = design "nat" ~objects:[ counter_obj ] ~processes:[] in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let it = Interp.elaborate k ~clock:clk d in
  let result = ref None in
  let _ =
    K.spawn k (fun () ->
        ignore (Interp.native_call it ~obj:"ctr" ~meth:"add" ~args:[ BV.of_int ~width:8 5 ]);
        ignore (Interp.native_call it ~obj:"ctr" ~meth:"add" ~args:[ BV.of_int ~width:8 7 ]);
        result := Interp.native_call it ~obj:"ctr" ~meth:"get" ~args:[])
  in
  K.run ~max_time:(T.us 1) k;
  Alcotest.(check bool) "native IP model can call the object" true
    (match !result with Some bv -> BV.to_int bv = 12 | None -> false)

let check_pretty_golden () =
  let s = Pretty.design_to_string (design "d" ~ports:[ out_port "o" 4 ] ~objects:[ counter_obj ] ~processes:[]) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module" true (contains "SC_MODULE d");
  Alcotest.(check bool) "guarded method macro" true (contains "GUARDED_METHOD");
  Alcotest.(check bool) "object with policy" true (contains "global_object ctr (policy fcfs)")

let tests =
  [
    ( "hlir",
      [
        Alcotest.test_case "typecheck accepts valid design" `Quick check_typecheck_accepts;
        Alcotest.test_case "typecheck process diagnostics" `Quick check_typecheck_rejections;
        Alcotest.test_case "typecheck object diagnostics" `Quick check_typecheck_object_rules;
        Alcotest.test_case "statement semantics" `Quick check_interp_statements;
        Alcotest.test_case "case semantics" `Quick check_case_semantics;
        Alcotest.test_case "case typecheck" `Quick check_case_typecheck;
        Alcotest.test_case "halt stops the process" `Quick check_interp_halt_stops;
        Alcotest.test_case "parallel method updates" `Quick check_parallel_method_updates;
        Alcotest.test_case "result reads pre-state" `Quick check_result_reads_prestate;
        Alcotest.test_case "virtual dispatch (polymorphism)" `Quick check_virtual_dispatch;
        Alcotest.test_case "unmatched tag blocks the caller" `Quick check_virtual_unmatched_tag_blocks;
        Alcotest.test_case "native IP calls" `Quick check_native_call;
        Alcotest.test_case "pretty printer" `Quick check_pretty_golden;
      ] );
  ]
