module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time
module Sim = Hlcs_rtl.Sim
module Synthesize = Hlcs_synth.Synthesize
open Hlcs_hlir.Builder

let rounds_range = (1, 255)
let done_port i = Printf.sprintf "done%d" i

let design ~policy ~nprocs ~rounds =
  let lo, hi = rounds_range in
  if nprocs < 1 then invalid_arg "Contention_design.design: nprocs must be at least 1";
  if rounds < lo || rounds > hi then
    invalid_arg (Printf.sprintf "Contention_design.design: rounds must be in %d..%d" lo hi);
  let ctr =
    object_ "ctr" ~policy
      ~fields:[ field_decl "n" 16 ]
      ~methods:
        [ method_ "bump" ~guard:ctrue ~updates:[ ("n", field "n" +: cst ~width:16 1) ] ]
  in
  let worker i =
    process (Printf.sprintf "w%d" i) ~priority:i
      ~locals:[ local "k" 8 ]
      [
        while_ (var "k" <: cst ~width:8 rounds)
          [ call "ctr" "bump" []; set "k" (var "k" +: cst ~width:8 1) ];
        emit (done_port i) ctrue;
        halt;
      ]
  in
  design "contention"
    ~ports:(List.init nprocs (fun i -> out_port (done_port i) 1))
    ~objects:[ ctr ]
    ~processes:(List.init nprocs worker)

let rtl_cycles ~policy ~nprocs ~rounds =
  let report = Synthesize.synthesize (design ~policy ~nprocs ~rounds) in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let sim = Sim.elaborate k ~clock:clk report.Synthesize.rp_rtl in
  let finished = ref 0 in
  let _ =
    K.spawn k ~name:"watch" (fun () ->
        for i = 0 to nprocs - 1 do
          Hlcs_engine.Signal.wait_value (Sim.out_port sim (done_port i))
            (Hlcs_logic.Bitvec.of_bool true)
        done;
        finished := C.cycles clk;
        K.request_stop k)
  in
  K.run ~max_time:(T.us 10_000) k;
  if !finished = 0 then failwith "fw1: contention design did not finish";
  !finished
