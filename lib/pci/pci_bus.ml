module Kernel = Hlcs_engine.Kernel
module Signal = Hlcs_engine.Signal
module Resolved = Hlcs_engine.Resolved
module Clock = Hlcs_engine.Clock
module Vcd = Hlcs_engine.Vcd
module Logic = Hlcs_logic.Logic
module Lvec = Hlcs_logic.Lvec

type t = {
  clock : Clock.t;
  frame_n : Resolved.t;
  irdy_n : Resolved.t;
  trdy_n : Resolved.t;
  devsel_n : Resolved.t;
  stop_n : Resolved.t;
  ad : Resolved.t;
  cbe : Resolved.t;
  par : Resolved.t;
  req_n : bool Signal.t array;
  gnt_n : bool Signal.t array;
}

let create kernel ~clock ~masters =
  if masters < 1 then invalid_arg "Pci_bus.create: need at least one master";
  let ctl name = Resolved.create kernel ~name ~width:1 ~pull:`Up () in
  {
    clock;
    frame_n = ctl "frame_n";
    irdy_n = ctl "irdy_n";
    trdy_n = ctl "trdy_n";
    devsel_n = ctl "devsel_n";
    stop_n = ctl "stop_n";
    ad = Resolved.create kernel ~name:"ad" ~width:32 ();
    cbe = Resolved.create kernel ~name:"cbe" ~width:4 ();
    par = Resolved.create kernel ~name:"par" ~width:1 ~pull:`Up ();
    req_n = Array.init masters (fun i ->
        Signal.create kernel ~name:(Printf.sprintf "req_n_%d" i) ~eq:Bool.equal true);
    gnt_n = Array.init masters (fun i ->
        Signal.create kernel ~name:(Printf.sprintf "gnt_n_%d" i) ~eq:Bool.equal true);
  }

let masters bus = Array.length bus.req_n

let bit net =
  match Resolved.read_bit net with
  | Logic.Zero -> false
  | Logic.One | Logic.X | Logic.Z -> true

let asserted net = Resolved.read_bit net = Logic.Zero

let trace_to_vcd vcd bus =
  Vcd.add_bool vcd ~name:"clk" (Clock.signal bus.clock);
  Vcd.add_lvec vcd ~name:"frame_n" bus.frame_n;
  Vcd.add_lvec vcd ~name:"irdy_n" bus.irdy_n;
  Vcd.add_lvec vcd ~name:"trdy_n" bus.trdy_n;
  Vcd.add_lvec vcd ~name:"devsel_n" bus.devsel_n;
  Vcd.add_lvec vcd ~name:"stop_n" bus.stop_n;
  Vcd.add_lvec vcd ~name:"ad" bus.ad;
  Vcd.add_lvec vcd ~name:"cbe" bus.cbe;
  Vcd.add_lvec vcd ~name:"par" bus.par;
  Array.iteri (fun i s -> Vcd.add_bool vcd ~name:(Printf.sprintf "req_n_%d" i) s) bus.req_n;
  Array.iteri (fun i s -> Vcd.add_bool vcd ~name:(Printf.sprintf "gnt_n_%d" i) s) bus.gnt_n
