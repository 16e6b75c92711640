(** The paper's Figure-2 design flow as an executable driver.

    Given a request script (the specification's workload), the driver runs:

    + {b Static analysis} — the unit under design (application +
      interface) through {!Hlcs_analysis.Analyze.design}: typecheck,
      lint, guarded-method deadlock and arbitration-starvation checks.
      Error-level diagnostics abort the flow here, before any simulation
      is paid for;
    + {b Functional model} — the application against the TLM interface
      (configuration A), producing the golden application-level
      observations at maximum simulation speed;
    + {b Executable specification} — communication refined to the
      pin-accurate library element, simulated behaviourally against the
      PCI fabric (configuration B); checked against A;
    + {b Synthesis} — the unit under design pushed through the
      communication synthesiser, with the netlist re-analysed
      ({!Hlcs_analysis.Analyze.rtl}: drivers, combinational loops,
      widths, X sources);
    + {b Equivalence check} (only when the config sets
      [rc_equiv]) — the optimised netlist proved combinationally
      equivalent to a raw (unoptimised) synthesis of the same design by
      the SAT-based checker ({!Hlcs_analysis.Cec}); a counterexample
      fails the flow and lands in [fl_diags] as [equiv-mismatch];
    + {b Post-synthesis validation} — the RT-level model re-simulated with
      the same stimuli (configuration C); behaviour consistency checked
      against B at the application level {e and} at the bus-transaction
      level, with the protocol monitor arbitrating legality throughout;
    + {b Fault verdict} (only when the config carries a fault plan) — the
      run classified by {!Hlcs_fault.Fault.classify}: divergence from the
      TLM golden reference or exhausted guarded calls degrade the run
      ([Degraded], survivable); disagreement between the executable
      specification and the synthesised model breaks the paper's
      equivalence invariant ([Inconsistent], fails the flow).  Under a
      fault plan, monitor violations and TLM divergence do {e not} fail
      the earlier stages — they are expected symptoms; the verdict stage
      is the arbiter.

    The returned report records, per stage, success, wall-clock cost and a
    human-readable summary — the data behind EXPERIMENTS.md — plus every
    diagnostic the analyses emitted.  When the analysis stage fails,
    [fl_artefacts] is [None]: there is nothing downstream to report. *)

type stage = {
  sg_name : string;
  sg_ok : bool;
  sg_detail : wall:bool -> string;
      (** a one-paragraph summary; [~wall:false] leaves out the runs'
          wall-clock figures, as [--deterministic] output must *)
  sg_wall_seconds : float;
}

type artefacts = {
  fl_tlm : Hlcs_interface.System.run_report;
  fl_behavioural : Hlcs_interface.System.run_report;
  fl_rtl : Hlcs_interface.System.run_report;
  fl_synthesis : Hlcs_synth.Synthesize.report;
}

type report = {
  fl_stages : stage list;
  fl_ok : bool;
  fl_diags : Hlcs_analysis.Diag.t list;
      (** design-level, netlist-level, then equivalence diagnostics, all
          severities *)
  fl_artefacts : artefacts option;
      (** [None] iff the static-analysis stage failed *)
  fl_verdict : Hlcs_fault.Fault.verdict option;
      (** [Some] iff the config carried a non-empty fault plan *)
  fl_fault : Hlcs_fault.Fault.stats option;
      (** merged fault statistics of the three runs, [Some] iff faulty *)
}

val execute :
  Hlcs_interface.Run_config.t ->
  script:Hlcs_pci.Pci_types.request list ->
  report
(** Run the flow under one {!Hlcs_interface.Run_config.t}, the same shape
    as the configuration runners of {!Hlcs_interface.System}.  A VCD
    prefix in the config dumps [<prefix>_behavioural.vcd] and
    [<prefix>_rtl.vcd] — the paper's Figure-4 artefacts.  The unit under
    design is built once and synthesised once, through the config's cache
    when it has one ({!Hlcs_interface.Run_config.synthesize}): the report
    whose netlist the analysis checks is the one re-simulated at RT level
    ([fl_synthesis] is physically [fl_rtl.rr_synthesis]).  A cache shared
    by a batch of flow runs over one design makes the whole batch
    synthesise once — see {!Sweep}. *)

val pp_report : Format.formatter -> report -> unit

val pp_report_deterministic : Format.formatter -> report -> unit
(** {!pp_report} without any wall-clock figure: no stage times, no run or
    profile wall times. *)
