module Kernel = Hlcs_engine.Kernel
module Clock = Hlcs_engine.Clock
module Signal = Hlcs_engine.Signal
module Bitvec = Hlcs_logic.Bitvec
module Interp = Hlcs_hlir.Interp
module Synthesize = Hlcs_synth.Synthesize
module Sim = Hlcs_rtl.Sim
module Pci_memory = Hlcs_pci.Pci_memory
module Obs = Hlcs_obs.Obs

type side = {
  sd_kernel : Kernel.t;
  sd_clock : Clock.t;
  sd_in : string -> Bitvec.t Signal.t;
  sd_out : string -> Bitvec.t Signal.t;
  sd_synthesis : Synthesize.report option;
}

let wire_and_run ~label ~latency (config : Run_config.t) side =
  let memory = Pci_memory.create ~size_bytes:config.Run_config.rc_mem_bytes in
  Pci_memory.fill_pattern memory ~seed:config.Run_config.rc_mem_seed;
  let (_ : Sram_device.t) =
    Sram_device.create side.sd_kernel ~clock:side.sd_clock ~memory ~latency
      ~addr:(side.sd_out "addr") ~wdata:(side.sd_out "wdata") ~we:(side.sd_out "we")
      ~re:(side.sd_out "re") ~rdata:(side.sd_in "rdata") ~ready:(side.sd_in "ready")
      ()
  in
  let obs = ref [] in
  Signal.on_commit (side.sd_out "rd_obs") (fun _ v ->
      let seq = Bitvec.to_int (Bitvec.slice v ~hi:39 ~lo:32) in
      let word = Bitvec.to_int (Bitvec.slice v ~hi:31 ~lo:0) in
      obs := (seq, word) :: !obs);
  let stopper () =
    Signal.wait_value (side.sd_out "app_done") (Bitvec.of_bool true);
    Clock.wait_edges side.sd_clock 16;
    Kernel.request_stop side.sd_kernel
  in
  ignore (Kernel.spawn side.sd_kernel ~name:"stopper" stopper);
  let wall, prof = System.timed_run config ~label side.sd_kernel in
  {
    System.rr_label = label;
    rr_observed = List.rev !obs;
    rr_memory = memory;
    rr_transactions = [];
    rr_violations = [];
    rr_sim_time = Kernel.now side.sd_kernel;
    rr_deltas = Kernel.delta_count side.sd_kernel;
    rr_cycles = Clock.cycles side.sd_clock;
    rr_wall_seconds = wall;
    rr_synthesis = side.sd_synthesis;
    rr_profile = prof;
    rr_fault = None;
    rr_monitor = None;
    rr_rtl_engine = None;
    rr_engine_fallback = None;
  }

let design (config : Run_config.t) ~script =
  Sram_master_design.design ?policy:config.Run_config.rc_policy ~app:script ()

let pin ?(label = "sram-behavioural") ?(latency = 1) config ~script =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:System.clock_period () in
  let it = Interp.elaborate kernel ~clock (design config ~script) in
  wire_and_run ~label ~latency config
    {
      sd_kernel = kernel;
      sd_clock = clock;
      sd_in = Interp.in_port it;
      sd_out = Interp.out_port it;
      sd_synthesis = None;
    }

let rtl ?(label = "sram-rtl") ?(latency = 1) config ~script =
  let report = Run_config.synthesize config (design config ~script) in
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:System.clock_period () in
  let sim =
    Sim.elaborate kernel ~clock ~engine:config.Run_config.rc_rtl_engine
      report.Synthesize.rp_rtl
  in
  let r =
    wire_and_run ~label ~latency config
      {
        sd_kernel = kernel;
        sd_clock = clock;
        sd_in = Sim.in_port sim;
        sd_out = Sim.out_port sim;
        sd_synthesis = Some report;
      }
  in
  {
    r with
    System.rr_profile =
      Option.map (fun sn -> Obs.with_extras sn (Sim.counters sim)) r.System.rr_profile;
    rr_rtl_engine = Some (Sim.engine_used sim);
    rr_engine_fallback = Sim.fallback_reason sim;
  }
