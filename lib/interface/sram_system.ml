module Kernel = Hlcs_engine.Kernel
module Clock = Hlcs_engine.Clock
module Uud = Hlcs_verify.Uud

let design (config : Run_config.t) ~script =
  Sram_master_design.design ?policy:config.Run_config.rc_policy ~app:script ()

(* the SRAM device wiring around either model of the unit under design *)
let run ~label ~latency config model =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:System.clock_period () in
  let uud = Uud.elaborate kernel ~clock model in
  let memory = System.memory config in
  let output = Uud.out_port uud and input = Uud.in_port uud in
  let (_ : Sram_device.t) =
    Sram_device.create kernel ~clock ~memory ~latency ~addr:(output "addr")
      ~wdata:(output "wdata") ~we:(output "we") ~re:(output "re")
      ~rdata:(input "rdata") ~ready:(input "ready") ()
  in
  let observed = System.observe_app kernel clock ~drain:16 uud in
  let wall, prof = System.timed_run config ~label kernel in
  System.run_report ~uud ~label ~kernel ~clock ~memory ~observed:(observed ()) ~wall ~prof
    ~fstats:None ()

let pin ?(label = "sram-behavioural") ?(latency = 1) config ~script =
  run ~label ~latency config (Uud.Behavioural (design config ~script))

let rtl ?(label = "sram-rtl") ?(latency = 1) config ~script =
  let report = Run_config.synthesize config (design config ~script) in
  run ~label ~latency config (Uud.Rtl (report, config.Run_config.rc_rtl_engine))
