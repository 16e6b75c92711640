(** Assembly and execution of the three configurations of the paper's
    communication-refinement experiment (Figures 2/3):

    - {!tlm} — configuration A: application + functional interface,
      no bus;
    - {!pin} — configuration B: the executable specification — the
      behavioural HLIR interface driving the pin-level PCI bus fabric
      (target, arbiter, protocol monitor);
    - {!rtl} — configuration C: the post-synthesis model — the same
      design pushed through the synthesiser and re-simulated at RT level
      against the same bus fabric.

    All three take one {!Run_config.t} and replay the same request script;
    their application-level observations (sequence-tagged read-back words)
    and final memories must agree, and the two pin-level runs must also
    agree on the bus transaction trace.

    When the configuration carries a non-empty {!Hlcs_fault.Fault.plan},
    the runners arm its perturbations — activation jitter on the kernel,
    net glitches / target misbehaviour / arbiter starvation on the fabric,
    engine stall and guarded-call bounds on the TLM side — and thread a
    {!Hlcs_fault.Fault.stats} record into the report ([rr_fault]).  An
    {e empty} plan allocates nothing and perturbs nothing: the run is
    byte-identical to one made through the pre-fault code path, which the
    regression suite asserts at the VCD level. *)

type run_report = {
  rr_label : string;
  rr_observed : (int * int) list;  (** (sequence, word) read-backs *)
  rr_memory : Hlcs_pci.Pci_memory.t;  (** final target memory *)
  rr_transactions : Hlcs_pci.Pci_types.transaction list;  (** [] for TLM *)
  rr_violations : Hlcs_pci.Pci_monitor.violation list;
  rr_sim_time : Hlcs_engine.Time.t;
  rr_deltas : int;
  rr_cycles : int;  (** clock cycles simulated *)
  rr_wall_seconds : float;  (** host time spent inside [Kernel.run] *)
  rr_synthesis : Hlcs_synth.Synthesize.report option;  (** RTL run only *)
  rr_profile : Hlcs_obs.Obs.snapshot option;
      (** [Some] iff the run was invoked with profiling on; fault counters
          are attached as extras when faults were injected *)
  rr_fault : Hlcs_fault.Fault.stats option;
      (** [Some] iff the run's fault plan was non-empty *)
  rr_monitor : Hlcs_verify.Monitor.report option;
      (** [Some] iff the config declared temporal monitors
          ([rc_monitors <> []]); always [None] for TLM runs (no bus to
          observe) *)
}

val clock_period : Hlcs_engine.Time.t
(** 10 ns — a 100 MHz bus. *)

(** {1 Harness pieces}

    Shared by every configuration runner, {!Sram_system}'s included. *)

val memory : Run_config.t -> Hlcs_pci.Pci_memory.t
(** A fresh target memory of [rc_mem_bytes], filled from [rc_mem_seed]. *)

val timed_run :
  Run_config.t -> label:string -> Hlcs_engine.Kernel.t -> float * Hlcs_obs.Obs.snapshot option
(** Run the kernel under the config's watchdog ([rc_max_time]) and return
    the wall seconds spent inside it, plus an observability snapshot when
    [rc_profile] is set.  This is where a run arms the kernel's phase
    profiler: with [rc_profile] it is enabled before the run, and the
    snapshot carries the run's wall seconds and phase times. *)

val observe_app :
  Hlcs_engine.Kernel.t ->
  Hlcs_engine.Clock.t ->
  drain:int ->
  Hlcs_verify.Uud.t ->
  unit ->
  (int * int) list
(** Observe the application inside a unit under design: record every
    committed [rd_obs] value as a (sequence, word) read-back, and stop the
    kernel [drain] clock edges after [app_done] rises.  Call it before
    running the kernel; the returned function reads the read-backs, oldest
    first. *)

val run_report :
  ?uud:Hlcs_verify.Uud.t ->
  ?transactions:Hlcs_pci.Pci_types.transaction list ->
  ?violations:Hlcs_pci.Pci_monitor.violation list ->
  ?monitor:Hlcs_verify.Monitor.report ->
  label:string ->
  kernel:Hlcs_engine.Kernel.t ->
  clock:Hlcs_engine.Clock.t ->
  memory:Hlcs_pci.Pci_memory.t ->
  observed:(int * int) list ->
  wall:float ->
  prof:Hlcs_obs.Obs.snapshot option ->
  fstats:Hlcs_fault.Fault.stats option ->
  unit ->
  run_report
(** The report of a finished run, read off its kernel and clock.  A [uud]
    contributes [rr_synthesis] and its RTL counters,
    which ride the profile as extras ahead of the fault counters. *)

(** {1 Temporal monitors}

    The pin-level runners step the config's {!Run_config.t.rc_monitors}
    from a clock observer ({!Hlcs_engine.Clock.on_rising}): every rising
    edge samples the named bus predicates — [req], [gnt], [frame], [irdy],
    [trdy], [devsel], [stop], [transfer] (IRDY# and TRDY# both asserted)
    and [bad_transfer] (a transfer without DEVSEL#) — and advances every
    property automaton.  The report lands in [rr_monitor]. *)

val pci_monitor_specs : Hlcs_verify.Monitor.spec list
(** The stock PCI property set: [req_eventually_gnt] (REQ# answered by
    GNT# within 24 cycles), [frame_eventually_devsel] (FRAME# claimed by
    DEVSEL# within 16 cycles), and [no_transfer_without_devsel] (safety:
    never a data transfer with DEVSEL# deasserted). *)

(** {1 Runners — one {!Run_config.t} per run} *)

val tlm :
  ?label:string ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  run_report
(** Configuration A.  Honours the config's memory, policy, watchdog,
    profiling, and the fault plan's jitter/stall/guard components. *)

val pin :
  ?label:string ->
  ?design:Hlcs_hlir.Ast.design ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  run_report
(** Configuration B.  [design] overrides the unit under design (it must
    expose the {!Pci_master_design} pin ports plus [rd_obs]/[app_done]);
    by default the PCI interface with an application generated from
    [script] is used — with an override, [script] is ignored.  A VCD
    prefix in the config dumps [<prefix>_behavioural.vcd]. *)

val rtl :
  ?label:string ->
  ?synthesis:Hlcs_synth.Synthesize.report ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  run_report
(** Configuration C: re-simulate a synthesised unit at RT level
    ({!Hlcs_rtl.Sim}), against the same fabric as {!pin}.  [synthesis]
    is the report to re-simulate (its netlist must expose the same ports
    as a {!pin} override); by default the config synthesises the PCI
    interface with an application generated from [script], through its
    cache when it has one — with an override, [script] is ignored and
    nothing is synthesised.  A VCD prefix dumps [<prefix>_rtl.vcd]. *)

(** {1 Consistency checks} *)

val compare_runs : run_report -> run_report -> string list
(** Application-level consistency: observations and final memory.  Empty =
    consistent. *)

val compare_bus_traces : run_report -> run_report -> string list
(** Pin-level consistency: the reconstructed transaction streams match. *)

val pp_report : Format.formatter -> run_report -> unit

val pp_report_deterministic : Format.formatter -> run_report -> unit
(** {!pp_report} without the wall-clock figure. *)
