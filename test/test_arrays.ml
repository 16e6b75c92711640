(* Object arrays (register banks): typing rules, interpreter semantics
   (including out-of-range behaviour), and synthesis to register files —
   verified by the behavioural/RTL equivalence harness on a real burst
   FIFO built from an array and two pointers. *)

open Hlcs_hlir.Builder
module A = Hlcs_hlir.Ast
module Typecheck = Hlcs_hlir.Typecheck
module Interp = Hlcs_hlir.Interp
module Equiv = Hlcs_verify.Equiv
module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec

let c8 = cst ~width:8

(* a 4-deep FIFO as one global object: the burst buffer a real bus
   interface needs *)
let fifo4 =
  object_ "fifo"
    ~fields:[ field_decl "count" 3; field_decl "rd" 2; field_decl "wr" 2 ]
    ~arrays:[ array_decl "buf" ~width:8 ~depth:4 ]
    ~methods:
      [
        method_ "push" ~params:[ ("x", 8) ]
          ~guard:(field "count" <: cst ~width:3 4)
          ~updates:
            [
              ("count", field "count" +: cst ~width:3 1);
              ("wr", field "wr" +: cst ~width:2 1);
            ]
          ~array_updates:[ ("buf", field "wr", var "x") ];
        method_ "pop"
          ~result:(8, index "buf" (field "rd"))
          ~guard:(field "count" >: cst ~width:3 0)
          ~updates:
            [
              ("count", field "count" -: cst ~width:3 1);
              ("rd", field "rd" +: cst ~width:2 1);
            ];
      ]

let check_typing () =
  let base ~arrays ~methods =
    design "d" ~objects:[ object_ "o" ~arrays ~fields:[ field_decl "f" 8 ] ~methods ]
  in
  let errors d = match Typecheck.check d with Ok () -> [] | Error l -> l in
  let expect frag d =
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (frag ^ " in [" ^ String.concat "; " (errors d) ^ "]")
      true
      (List.exists (fun e -> contains e frag) (errors d))
  in
  expect "unknown array"
    (base ~arrays:[]
       ~methods:
         [ method_ "m" ~guard:ctrue ~updates:[] ~array_updates:[ ("a", c8 0, c8 0) ] ]);
  expect "width"
    (base
       ~arrays:[ array_decl "a" ~width:4 ~depth:2 ]
       ~methods:
         [ method_ "m" ~guard:ctrue ~updates:[] ~array_updates:[ ("a", c8 0, c8 9) ] ]);
  expect "depth"
    (base ~arrays:[ array_decl "a" ~width:4 ~depth:0 ] ~methods:[]);
  expect "field/array name"
    (base ~arrays:[ array_decl "f" ~width:4 ~depth:2 ] ~methods:[]);
  (* arrays are method-scope only *)
  expect "outside a method"
    (design "d"
       ~objects:[ object_ "o" ~arrays:[ array_decl "a" ~width:8 ~depth:2 ] ~fields:[] ~methods:[] ]
       ~processes:
         [ process "p" ~locals:[ local "x" 8 ] [ set "x" (index "a" (c8 0)) ] ])

let fifo_design ~items =
  let producer =
    process "producer" ~locals:[ local "i" 8 ]
      [
        while_ (var "i" <: c8 items)
          [
            call "fifo" "push" [ (var "i" *: c8 7) +: c8 3 ];
            set "i" (var "i" +: c8 1);
          ];
      ]
  in
  let consumer =
    process "consumer"
      ~locals:[ local "x" 8; local "n" 8 ]
      [
        while_ (var "n" <: c8 items)
          [
            call_bind "x" ~obj:"fifo" ~meth:"pop" [];
            emit "out" (var "x");
            set "n" (var "n" +: c8 1);
            wait 1;
          ];
        halt;
      ]
  in
  design "fifo_pc" ~ports:[ out_port "out" 8 ] ~objects:[ fifo4 ]
    ~processes:[ producer; consumer ]

let check_fifo_interp () =
  let d = fifo_design ~items:11 in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let it = Interp.elaborate k ~clock:clk d in
  (* every popped value differs from the one before, so each emit is one
     committed change of [out] *)
  let seen = ref [] in
  Hlcs_engine.Signal.on_commit (Interp.out_port it "out") (fun _ v ->
      seen := BV.to_int v :: !seen);
  K.run ~max_time:(T.us 5) k;
  Alcotest.(check (list int)) "fifo order through the ring buffer"
    (List.init 11 (fun i -> ((i * 7) + 3) land 0xFF))
    (List.rev !seen)

let check_fifo_equivalence () =
  (* the headline: array writes/reads with dynamic indices synthesise to a
     register file that matches the behavioural FIFO exactly, including the
     final pointer state and bank contents *)
  let v = Equiv.check ~max_time:(T.us 50) (fifo_design ~items:11) in
  if not v.Equiv.vd_equivalent then
    Alcotest.failf "not equivalent:@.%a" Equiv.pp_verdict v;
  let arrays = List.assoc "fifo" v.Equiv.vd_rtl.Equiv.sd_object_arrays in
  Alcotest.(check int) "bank depth" 4 (List.length (List.assoc "buf" arrays))

let check_out_of_range () =
  (* index width 2 over depth 3: index 3 must read zero and drop writes, in
     both models *)
  let obj =
    object_ "o"
      ~fields:[ field_decl "dummy" 1 ]
      ~arrays:[ array_decl "a" ~width:8 ~depth:3 ]
      ~methods:
        [
          method_ "wr" ~params:[ ("i", 2); ("x", 8) ] ~guard:ctrue ~updates:[]
            ~array_updates:[ ("a", var "i", var "x") ];
          method_ "rdm" ~params:[ ("i", 2) ]
            ~result:(8, index "a" (var "i"))
            ~guard:ctrue ~updates:[];
        ]
  in
  let p =
    process "p" ~locals:[ local "x" 8 ]
      [
        call "o" "wr" [ cst ~width:2 0; c8 0x11 ];
        call "o" "wr" [ cst ~width:2 3; c8 0x99 ];
        (* dropped *)
        call_bind "x" ~obj:"o" ~meth:"rdm" [ cst ~width:2 0 ];
        emit "o0" (var "x");
        call_bind "x" ~obj:"o" ~meth:"rdm" [ cst ~width:2 3 ];
        emit "o3" (var "x");
        halt;
      ]
  in
  let d =
    design "oob" ~ports:[ out_port "o0" 8; out_port "o3" 8 ] ~objects:[ obj ]
      ~processes:[ p ]
  in
  let v = Equiv.check ~max_time:(T.us 20) d in
  if not v.Equiv.vd_equivalent then
    Alcotest.failf "not equivalent:@.%a" Equiv.pp_verdict v;
  let port name = List.assoc name v.Equiv.vd_rtl.Equiv.sd_ports in
  Alcotest.(check (list string)) "in-range readback" [ "00"; "11" ]
    (List.map BV.to_hex_string (port "o0"));
  Alcotest.(check (list string)) "out-of-range reads zero" [ "00" ]
    (List.map BV.to_hex_string (port "o3"))

let check_last_write_wins () =
  (* two writes to the same element in one method call: the later entry
     wins, in both models *)
  let obj =
    object_ "o" ~fields:[ field_decl "dummy" 1 ]
      ~arrays:[ array_decl "a" ~width:8 ~depth:2 ]
      ~methods:
        [
          method_ "wr2" ~guard:ctrue ~updates:[]
            ~array_updates:
              [ ("a", cst ~width:1 0, c8 1); ("a", cst ~width:1 0, c8 2) ];
          method_ "rd" ~result:(8, index "a" (cst ~width:1 0)) ~guard:ctrue ~updates:[];
        ]
  in
  let p =
    process "p" ~locals:[ local "x" 8 ]
      [
        call "o" "wr2" [];
        call_bind "x" ~obj:"o" ~meth:"rd" [];
        emit "out" (var "x");
        halt;
      ]
  in
  let d = design "lww" ~ports:[ out_port "out" 8 ] ~objects:[ obj ] ~processes:[ p ] in
  let v = Equiv.check ~max_time:(T.us 20) d in
  if not v.Equiv.vd_equivalent then
    Alcotest.failf "not equivalent:@.%a" Equiv.pp_verdict v;
  Alcotest.(check (list string)) "last write wins" [ "00"; "02" ]
    (List.map BV.to_hex_string (List.assoc "out" v.Equiv.vd_rtl.Equiv.sd_ports))

let tests =
  [
    ( "arrays",
      [
        Alcotest.test_case "typing rules" `Quick check_typing;
        Alcotest.test_case "fifo through a ring buffer (interp)" `Quick check_fifo_interp;
        Alcotest.test_case "fifo equivalence (register file synthesis)" `Quick
          check_fifo_equivalence;
        Alcotest.test_case "out-of-range semantics" `Quick check_out_of_range;
        Alcotest.test_case "last write wins" `Quick check_last_write_wins;
      ] );
  ]
