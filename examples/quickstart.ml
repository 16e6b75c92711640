(* Quickstart: the library in one page.

   Build a tiny system-level model the way the paper recommends: two
   modules communicating through a guarded-method global object (here a
   bounded FIFO), simulate it on the discrete-event kernel, then push an
   equivalent HLIR design through the communication synthesiser and check
   the RT-level model behaves identically.

   Run with:  dune exec examples/quickstart.exe *)

module K = Hlcs_engine.Kernel
module Time = Hlcs_engine.Time
module Fifo = Hlcs_osss.Shared_fifo

(* --- 1. system-level modelling with global objects ------------------- *)

let system_level () =
  print_endline "1. System-level model: producer/consumer over a shared FIFO";
  let kernel = K.create () in
  let fifo : int Fifo.t = Fifo.create kernel ~name:"fifo" ~capacity:4 () in
  let _ =
    K.spawn kernel ~name:"producer" (fun () ->
        for i = 1 to 10 do
          (* put is guarded on "not full": the call blocks when the
             consumer lags, no handshake code needed *)
          Fifo.put fifo (i * i)
        done)
  in
  let _ =
    K.spawn kernel ~name:"consumer" (fun () ->
        for _ = 1 to 10 do
          let v = Fifo.get fifo () in
          Printf.printf "   consumer got %3d at %s\n" v
            (Format.asprintf "%a" Time.pp (K.now kernel))
        done)
  in
  K.run kernel;
  Printf.printf "   done: %s\n\n" (K.stats kernel)

(* --- 2. the same communication, in the synthesisable IR -------------- *)

let synthesisable () =
  print_endline "2. Synthesisable model: same pattern in the HLIR, then to RT level";
  let open Hlcs_hlir.Builder in
  let c8 = cst ~width:8 in
  let buffer =
    object_ "buffer"
      ~fields:[ field_decl "full" 1; field_decl "data" 8 ]
      ~methods:
        [
          method_ "put" ~params:[ ("x", 8) ]
            ~guard:(inv (field "full"))
            ~updates:[ ("full", ctrue); ("data", var "x") ];
          method_ "get" ~result:(8, field "data") ~guard:(field "full")
            ~updates:[ ("full", cfalse) ];
        ]
  in
  let producer =
    process "producer" ~locals:[ local "i" 8 ]
      [
        while_ (var "i" <: c8 10)
          [
            set "i" (var "i" +: c8 1);
            call "buffer" "put" [ var "i" *: var "i" ];
          ];
      ]
  in
  let consumer =
    process "consumer"
      ~locals:[ local "x" 8; local "n" 8 ]
      [
        while_ (var "n" <: c8 10)
          [
            call_bind "x" ~obj:"buffer" ~meth:"get" [];
            emit "out" (var "x");
            set "n" (var "n" +: c8 1);
            wait 1;
          ];
      ]
  in
  let d =
    design "quickstart" ~ports:[ out_port "out" 8 ] ~objects:[ buffer ]
      ~processes:[ producer; consumer ]
  in
  (* run the whole flow: behavioural sim, synthesis, RTL re-sim, compare *)
  let verdict = Hlcs_verify.Equiv.check ~max_time:(Time.us 20) d in
  Format.printf "   %a@." Hlcs_verify.Equiv.pp_verdict verdict;
  let values =
    List.assoc "out" verdict.Hlcs_verify.Equiv.vd_rtl.Hlcs_verify.Equiv.sd_ports
  in
  Printf.printf "   values seen on 'out': %s\n"
    (String.concat " " (List.map Hlcs_logic.Bitvec.to_hex_string values));
  verdict.Hlcs_verify.Equiv.vd_equivalent

let () =
  system_level ();
  exit (if synthesisable () then 0 else 1)
