(* SystemC+'s hardware-oriented polymorphism: a guarded method whose
   behaviour is bound late, through the object's tag field, and — the
   ODETTE project's selling point — synthesised to hardware (a dispatch
   mux over the tag register).

   The example models a little polymorphic "processing element": the same
   apply() call computes a different function depending on which class the
   object currently impersonates.  We run it behaviourally, synthesise it,
   re-run at RT level and compare.

   Run with:  dune exec examples/polymorphism.exe *)

open Hlcs_hlir.Builder
module Equiv = Hlcs_verify.Equiv
module BV = Hlcs_logic.Bitvec

let c8 = cst ~width:8

let processing_element =
  object_ "pe" ~tag:"kind"
    ~fields:[ field_decl "kind" 2; field_decl "acc" 8 ]
    ~methods:
      [
        (* one interface, three implementations: adder / xorer / min *)
        virtual_method "apply" ~params:[ ("x", 8) ]
          [
            (0, impl ~guard:ctrue ~updates:[ ("acc", field "acc" +: var "x") ] ());
            (1, impl ~guard:ctrue ~updates:[ ("acc", field "acc" ^: var "x") ] ());
            ( 2,
              impl ~guard:ctrue
                ~updates:
                  [ ("acc", mux (var "x" <: field "acc") (var "x") (field "acc")) ]
                () );
          ];
        method_ "become" ~params:[ ("t", 2) ] ~guard:ctrue ~updates:[ ("kind", var "t") ];
        method_ "result" ~result:(8, field "acc") ~guard:ctrue ~updates:[];
      ]

let driver =
  process "driver" ~locals:[ local "r" 8 ]
    [
      (* as an adder *)
      call "pe" "apply" [ c8 30 ];
      call "pe" "apply" [ c8 12 ];
      call_bind "r" ~obj:"pe" ~meth:"result" [];
      emit "as_adder" (var "r");
      (* morph to xorer: late binding switches behaviour of the same call *)
      call "pe" "become" [ cst ~width:2 1 ];
      call "pe" "apply" [ c8 0xFF ];
      call_bind "r" ~obj:"pe" ~meth:"result" [];
      emit "as_xorer" (var "r");
      (* morph to min *)
      call "pe" "become" [ cst ~width:2 2 ];
      call "pe" "apply" [ c8 7 ];
      call_bind "r" ~obj:"pe" ~meth:"result" [];
      emit "as_min" (var "r");
      halt;
    ]

let () =
  let d =
    design "polymorphic_pe"
      ~ports:[ out_port "as_adder" 8; out_port "as_xorer" 8; out_port "as_min" 8 ]
      ~objects:[ processing_element ]
      ~processes:[ driver ]
  in
  let v = Equiv.check ~max_time:(Hlcs_engine.Time.us 20) d in
  Format.printf "%a@." Equiv.pp_verdict v;
  List.iter
    (fun (port, history) ->
      Printf.printf "%-10s -> %s\n" port
        (String.concat " " (List.map BV.to_hex_string history)))
    v.Equiv.vd_rtl.Equiv.sd_ports;
  print_endline
    (if v.Equiv.vd_equivalent then
       "late-bound method calls synthesised and verified at RT level"
     else "MISMATCH");
  exit (if v.Equiv.vd_equivalent then 0 else 1)
