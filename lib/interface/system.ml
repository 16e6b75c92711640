module Kernel = Hlcs_engine.Kernel
module Clock = Hlcs_engine.Clock
module Signal = Hlcs_engine.Signal
module Resolved = Hlcs_engine.Resolved
module Time = Hlcs_engine.Time
module Vcd = Hlcs_engine.Vcd
module Bitvec = Hlcs_logic.Bitvec
module Lvec = Hlcs_logic.Lvec
module Synthesize = Hlcs_synth.Synthesize
module Pci_bus = Hlcs_pci.Pci_bus
module Pci_pad = Hlcs_pci.Pci_pad
module Pci_memory = Hlcs_pci.Pci_memory
module Pci_target = Hlcs_pci.Pci_target
module Pci_arbiter = Hlcs_pci.Pci_arbiter
module Pci_monitor = Hlcs_pci.Pci_monitor
module Pci_types = Hlcs_pci.Pci_types
module Fault = Hlcs_fault.Fault
module Obs = Hlcs_obs.Obs
module Monitor = Hlcs_verify.Monitor
module Uud = Hlcs_verify.Uud

type run_report = {
  rr_label : string;
  rr_observed : (int * int) list;
  rr_memory : Pci_memory.t;
  rr_transactions : Pci_types.transaction list;
  rr_violations : Pci_monitor.violation list;
  rr_sim_time : Time.t;
  rr_deltas : int;
  rr_cycles : int;
  rr_wall_seconds : float;
  rr_synthesis : Synthesize.report option;
  rr_profile : Obs.snapshot option;
  rr_fault : Fault.stats option;
  rr_monitor : Monitor.report option;
}

let clock_period = Time.ns 10

let timed_run (config : Run_config.t) ~label kernel =
  let profile = config.Run_config.rc_profile in
  if profile then Kernel.enable_profiling kernel ~clock:Unix.gettimeofday;
  let t0 = Unix.gettimeofday () in
  Kernel.run ~max_time:config.Run_config.rc_max_time kernel;
  let wall = Unix.gettimeofday () -. t0 in
  (wall, if profile then Some (Obs.snapshot ~label ~wall_seconds:wall kernel) else None)

(* A non-empty fault plan gets a stats record (threaded into the report);
   an empty plan gets nothing at all, so a faultless run is bit-for-bit
   the run the machinery predates. *)
let fault_state (config : Run_config.t) =
  if Fault.is_empty config.Run_config.rc_faults then None
  else Some (Fault.stats ())

(* attach the fault counters to a profile snapshot when both exist *)
let profile_with_faults prof fstats =
  match (prof, fstats) with
  | Some sn, Some st -> Some (Obs.with_extras sn (Fault.counters st))
  | other, _ -> other

let memory (config : Run_config.t) =
  let memory = Pci_memory.create ~size_bytes:config.Run_config.rc_mem_bytes in
  Pci_memory.fill_pattern memory ~seed:config.Run_config.rc_mem_seed;
  memory

(* the one report builder of every runner, read after the kernel stopped:
   a unit under design contributes its synthesis and RTL counters
   (ahead of any fault extras), a bus fabric its trace and verdicts *)
let run_report ?uud ?(transactions = []) ?(violations = []) ?monitor ~label ~kernel
    ~clock ~memory ~observed ~wall ~prof ~fstats () =
  let prof =
    match uud with
    | Some u -> Option.map (fun sn -> Obs.with_extras sn (Uud.counters u)) prof
    | None -> prof
  in
  {
    rr_label = label;
    rr_observed = observed;
    rr_memory = memory;
    rr_transactions = transactions;
    rr_violations = violations;
    rr_sim_time = Kernel.now kernel;
    rr_deltas = Kernel.delta_count kernel;
    rr_cycles = Clock.cycles clock;
    rr_wall_seconds = wall;
    rr_synthesis = Option.bind uud Uud.synthesis;
    rr_profile = profile_with_faults prof fstats;
    rr_fault = fstats;
    rr_monitor = monitor;
  }

(* ------------------------------------------------------------------ *)
(* Configuration A: functional                                         *)

let tlm ?(label = "tlm") (config : Run_config.t) ~script =
  let plan = config.Run_config.rc_faults in
  let fstats = fault_state config in
  let kernel = Kernel.create () in
  (match fstats with
  | Some st -> Fault.install_jitter kernel ~plan st
  | None -> ());
  let clock = Clock.create kernel ~name:"clk" ~period:clock_period () in
  let memory = memory config in
  let tlm =
    Tlm.spawn kernel ~clock ~memory ?policy:config.Run_config.rc_policy
      ?stall:plan.Fault.fp_stall ?guard:plan.Fault.fp_guard
      ?fault_stats:fstats ~script
      ~on_done:(fun () -> Kernel.request_stop kernel)
      ()
  in
  let wall, prof = timed_run config ~label kernel in
  run_report ~label ~kernel ~clock ~memory ~observed:(Tlm.observed tlm) ~wall ~prof
    ~fstats ()

(* ------------------------------------------------------------------ *)
(* Pin-level fabric shared by configurations B and C                   *)

(* the two 1-bit net contributions are interned; nothing mutates an Lvec
   in place, so every single-bit drive reuses these.  Domain-safety: like
   Bitvec's interned bits these are built at module initialisation, ahead
   of any Pool domain spawn, and Lvec's frozen-after-publication
   discipline makes the cross-job sharing read-only. *)
let lv1_zero = Lvec.of_bitvec (Bitvec.of_int ~width:1 0)
let lv1_one = Lvec.of_bitvec (Bitvec.of_int ~width:1 1)
let lv1 b = if b then lv1_one else lv1_zero

(* All glue is stateless forwarding — method processes sensitive to the
   source's changed event (one initial run to present the reset value),
   activated without per-wakeup coroutine suspension. *)

(* input-side glue: net (active low) -> active-high Bitvec port signal *)
let net_to_port kernel net signal =
  ignore
    (Kernel.spawn_method kernel
       ~name:("glue." ^ Signal.name signal)
       ~sensitive:[ Resolved.changed net ]
       (fun () -> Signal.write signal (Bitvec.of_bool (Pci_bus.asserted net))))

(* gnt_n (bool signal, active low) -> active-high port *)
let gnt_to_port kernel gnt_n signal =
  ignore
    (Kernel.spawn_method kernel ~name:"glue.gnt"
       ~sensitive:[ Signal.changed gnt_n ]
       (fun () -> Signal.write signal (Bitvec.of_bool (not (Signal.read gnt_n)))))

(* output-side glue: active-high port -> active-low net, always driven *)
let port_to_net kernel signal net who =
  let driver = Resolved.make_driver net who in
  ignore
    (Kernel.spawn_method kernel ~name:("glue." ^ who)
       ~sensitive:[ Signal.changed signal ]
       (fun () -> Resolved.drive driver (lv1 (Bitvec.is_zero (Signal.read signal)))))

(* active-high port -> active-low req_n bool signal *)
let port_to_req kernel signal req_n =
  ignore
    (Kernel.spawn_method kernel ~name:"glue.req"
       ~sensitive:[ Signal.changed signal ]
       (fun () -> Signal.write req_n (Bitvec.is_zero (Signal.read signal))))

(* cbe: raw 4-bit code, always driven *)
let port_to_cbe kernel signal net =
  let driver = Resolved.make_driver net "master.cbe" in
  ignore
    (Kernel.spawn_method kernel ~name:"glue.cbe"
       ~sensitive:[ Signal.changed signal ]
       (fun () -> Resolved.drive driver (Lvec.of_bitvec (Signal.read signal))))

type fabric = {
  fb_kernel : Kernel.t;
  fb_clock : Clock.t;
  fb_bus : Pci_bus.t;
  fb_memory : Pci_memory.t;
  fb_monitor : Pci_monitor.t;
  fb_vcd : Vcd.t option;
}

(* name -> resolved net, for kernel-level glitch injection on the bus *)
let resolve_net bus name =
  match name with
  | "frame_n" -> Some bus.Pci_bus.frame_n
  | "irdy_n" -> Some bus.Pci_bus.irdy_n
  | "trdy_n" -> Some bus.Pci_bus.trdy_n
  | "devsel_n" -> Some bus.Pci_bus.devsel_n
  | "stop_n" -> Some bus.Pci_bus.stop_n
  | "ad" -> Some bus.Pci_bus.ad
  | "cbe" -> Some bus.Pci_bus.cbe
  | "par" -> Some bus.Pci_bus.par
  | _ -> None

(* one fabric from the run configuration, with the plan's kernel- and
   interface-level faults armed; [vcd] is the resolved dump path *)
let build_fabric (config : Run_config.t) ~vcd fstats =
  let plan = config.Run_config.rc_faults in
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:clock_period () in
  let bus = Pci_bus.create kernel ~clock ~masters:1 in
  let memory = memory config in
  let (_ : Pci_target.t) =
    Pci_target.create kernel ~bus ~memory (Run_config.effective_target config)
  in
  let (_ : Pci_arbiter.t) =
    Pci_arbiter.create
      ?starve:
        (Option.map
           (fun s -> (s.Fault.sv_from_cycle, s.Fault.sv_cycles))
           plan.Fault.fp_starvation)
      kernel ~bus
  in
  let monitor = Pci_monitor.create kernel ~bus in
  let vcd =
    Option.map
      (fun path ->
        let w = Vcd.create kernel ~path in
        Pci_bus.trace_to_vcd w bus;
        w)
      vcd
  in
  (match fstats with
  | Some st ->
      Fault.install_jitter kernel ~plan st;
      Fault.inject_glitches kernel ~clock ~resolve:(resolve_net bus) st
        plan.Fault.fp_glitches
  | None -> ());
  {
    fb_kernel = kernel;
    fb_clock = clock;
    fb_bus = bus;
    fb_memory = memory;
    fb_monitor = monitor;
    fb_vcd = vcd;
  }

(* ------------------------------------------------------------------ *)
(* Temporal monitors over the bus fabric                               *)

(* The named predicates the stock monitor properties observe, sampled at
   every rising clock edge (pre-edge values: flip-flop sampling).  All
   control lines are active low on the bus; predicates are active high. *)
let pci_predicate fb name =
  let bus = fb.fb_bus in
  let live net = Pci_bus.asserted net in
  match name with
  | "req" -> not (Signal.read bus.Pci_bus.req_n.(0))
  | "gnt" -> not (Signal.read bus.Pci_bus.gnt_n.(0))
  | "frame" -> live bus.Pci_bus.frame_n
  | "irdy" -> live bus.Pci_bus.irdy_n
  | "trdy" -> live bus.Pci_bus.trdy_n
  | "devsel" -> live bus.Pci_bus.devsel_n
  | "stop" -> live bus.Pci_bus.stop_n
  | "transfer" -> live bus.Pci_bus.irdy_n && live bus.Pci_bus.trdy_n
  | "bad_transfer" ->
      live bus.Pci_bus.irdy_n && live bus.Pci_bus.trdy_n
      && not (live bus.Pci_bus.devsel_n)
  | other -> invalid_arg ("System: unknown monitor predicate " ^ other)

let pci_monitor_specs = Monitor_specs.pci

(* arm the config's monitors on a fabric: one automaton engine, stepped
   from the clock observer; [None] when the config declares no property *)
let attach_monitors (config : Run_config.t) fabric =
  match config.Run_config.rc_monitors with
  | [] -> None
  | monitor_specs ->
      let m = Monitor.create monitor_specs in
      Clock.on_rising fabric.fb_clock (fun ~cycle ->
          Monitor.step m ~cycle (pci_predicate fabric));
      Some m

(* connect the unit's ports to the bus fabric *)
let connect_pads fb uud =
  let k = fb.fb_kernel in
  let bus = fb.fb_bus in
  let in_port = Uud.in_port uud and out_port = Uud.out_port uud in
  net_to_port k bus.Pci_bus.frame_n (in_port "frame_busy");
  net_to_port k bus.Pci_bus.irdy_n (in_port "irdy_busy");
  net_to_port k bus.Pci_bus.trdy_n (in_port "trdy");
  net_to_port k bus.Pci_bus.devsel_n (in_port "devsel");
  net_to_port k bus.Pci_bus.stop_n (in_port "stop");
  gnt_to_port k bus.Pci_bus.gnt_n.(0) (in_port "gnt");
  Pci_pad.connect_in k ~net:bus.Pci_bus.ad ~signal:(in_port "ad_in") ();
  port_to_net k (out_port "frame") bus.Pci_bus.frame_n "master.frame";
  port_to_net k (out_port "irdy") bus.Pci_bus.irdy_n "master.irdy";
  port_to_req k (out_port "req") bus.Pci_bus.req_n.(0);
  port_to_cbe k (out_port "cbe_out") bus.Pci_bus.cbe;
  Pci_pad.connect_out k ~net:bus.Pci_bus.ad ~data:(out_port "ad_out")
    ~enable:(out_port "ad_oe") ()

let observe_app kernel clock ~drain uud =
  let obs = ref [] in
  Signal.on_commit (Uud.out_port uud "rd_obs") (fun _ v ->
      let seq = Bitvec.to_int (Bitvec.slice v ~hi:39 ~lo:32) in
      let word = Bitvec.to_int (Bitvec.slice v ~hi:31 ~lo:0) in
      obs := (seq, word) :: !obs);
  let stopper () =
    Signal.wait_value (Uud.out_port uud "app_done") (Bitvec.of_bool true);
    Clock.wait_edges clock drain;
    Kernel.request_stop kernel
  in
  ignore (Kernel.spawn kernel ~name:"stopper" stopper);
  fun () -> List.rev !obs

(* the unit under design: the override, or the PCI interface replaying
   [script] *)
let unit_under_design ?design (config : Run_config.t) ~script =
  match design with
  | Some d -> d
  | None -> Pci_master_design.design ?policy:config.Run_config.rc_policy ~app:script ()

(* configurations B and C: one body, the model elaborated behind it *)
let pin_level ~label ~suffix config model =
  let fstats = fault_state config in
  let fabric = build_fabric config ~vcd:(Run_config.vcd_file config suffix) fstats in
  let monitor = attach_monitors config fabric in
  let kernel = fabric.fb_kernel and clock = fabric.fb_clock in
  let uud = Uud.elaborate kernel ~clock model in
  connect_pads fabric uud;
  (* drain 32 edges past app_done: let the engine park and the bus
     monitor close the last transaction *)
  let observed = observe_app kernel clock ~drain:32 uud in
  let wall, prof = timed_run config ~label kernel in
  Option.iter Vcd.close fabric.fb_vcd;
  let monitor =
    Option.map
      (fun m ->
        Monitor.finish m ~cycle:(Clock.cycles clock);
        Monitor.report m)
      monitor
  in
  run_report ~uud ~transactions:(Pci_monitor.transactions fabric.fb_monitor)
    ~violations:(Pci_monitor.violations fabric.fb_monitor) ?monitor ~label ~kernel ~clock
    ~memory:fabric.fb_memory ~observed:(observed ()) ~wall ~prof ~fstats ()

let pin ?(label = "pin-behavioural") ?design config ~script =
  pin_level ~label ~suffix:"behavioural" config
    (Uud.Behavioural (unit_under_design ?design config ~script))

let rtl ?(label = "pin-rtl") ?synthesis config ~script =
  let report =
    match synthesis with
    | Some report -> report
    | None -> Run_config.synthesize config (unit_under_design config ~script)
  in
  pin_level ~label ~suffix:"rtl" config (Uud.Rtl report)

(* ------------------------------------------------------------------ *)
(* Consistency checks                                                  *)

let compare_runs a b =
  let issues = ref [] in
  let add fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  if a.rr_observed <> b.rr_observed then begin
    let show l =
      String.concat " "
        (List.map (fun (s, w) -> Printf.sprintf "%d:%08x" s w) l)
    in
    add "observed read-backs differ: %s=[%s] %s=[%s]" a.rr_label
      (show a.rr_observed) b.rr_label (show b.rr_observed)
  end;
  if not (Pci_memory.equal a.rr_memory b.rr_memory) then
    add "final memories differ between %s and %s" a.rr_label b.rr_label;
  List.rev !issues

let compare_bus_traces a b =
  if List.length a.rr_transactions = List.length b.rr_transactions
     && List.for_all2 Pci_types.transaction_equal a.rr_transactions b.rr_transactions
  then []
  else
    [
      Printf.sprintf "bus transaction traces differ: %s has %d, %s has %d" a.rr_label
        (List.length a.rr_transactions) b.rr_label (List.length b.rr_transactions);
    ]

let pp_run ~wall ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d read-backs, %d bus txns, %d violations, %d cycles, %a simulated%s@]"
    r.rr_label (List.length r.rr_observed)
    (List.length r.rr_transactions)
    (List.length r.rr_violations)
    r.rr_cycles Time.pp r.rr_sim_time
    (if wall then Printf.sprintf ", %.4fs wall" r.rr_wall_seconds else "")

let pp_report = pp_run ~wall:true
let pp_report_deterministic = pp_run ~wall:false
