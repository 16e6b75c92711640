(** Execution of the SRAM configurations — the same experiment as
    {!System} but with the SRAM library element wired to the SRAM device
    instead of the PCI fabric.  Reports reuse {!type:System.run_report}
    (bus transaction/violation fields stay empty: the SRAM link is
    point-to-point and needs no protocol monitor).  Both runners are one
    body over {!Hlcs_verify.Uud}: only the SRAM device wiring is theirs;
    the application observer and the report builder are {!System}'s.

    Both runners take one {!Run_config.t}, like {!System.pin} and
    {!System.rtl}, and honour its memory size and seed, policy, watchdog
    and profiling; {!rtl} also its synthesis options, cache and RTL
    engine.  The fields that describe the PCI fabric — target timing,
    fault plan, temporal monitors and the bus VCD prefix — are ignored.
    [latency] is the device's read latency in cycles (default 1). *)

val pin :
  ?label:string ->
  ?latency:int ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  System.run_report
(** Behavioural interface + pin-level SRAM device. *)

val rtl :
  ?label:string ->
  ?latency:int ->
  Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  System.run_report
(** Synthesised interface + pin-level SRAM device.  With profiling on, the
    snapshot carries the RTL-engine counters as extras. *)
