(** Multicore batch-simulation sweeps over the design flow.

    A sweep runs many independent validation jobs — the paper's complete
    refinement flow ({!Flow.execute}: static analysis, TLM, pin-accurate,
    synthesis, RT-level re-validation) per scenario — across a
    {!Hlcs_runtime.Pool} of domains, sharing one content-hashed
    {!Hlcs_synth.Synth_cache} so a 100-job sweep over one design
    synthesises once.

    Besides the environment and stimuli axes, a sweep can fan a {e fault}
    axis ({!fault_scenarios}): seeded {!Hlcs_fault.Fault.plan}s injected
    into otherwise identical jobs, each classified by the flow's fault
    verdict against the paper's equivalence invariant.

    Determinism: jobs are fully isolated (one kernel set per job, one VCD
    file set per job) and results are returned in submission order, so a
    sweep at [--jobs 4] produces byte-identical artefacts and verdicts to
    the same sweep at [--jobs 1]; the regression suite asserts this at
    the VCD-byte level, fault campaigns included (every injection is a
    deterministic function of the scenario's plan). *)

type scenario = {
  sc_name : string;  (** job label; also the job's VCD file prefix *)
  sc_seed : int;  (** stimulus seed ({!Hlcs_pci.Pci_stim.random}) *)
  sc_mem_seed : int;  (** target-memory fill seed (pure environment) *)
  sc_faults : Hlcs_fault.Fault.plan;  (** {!Hlcs_fault.Fault.empty} = none *)
}
(** What varies between the jobs of one batch.  Everything else a job
    runs under is the batch's {!Hlcs_interface.Run_config.t}. *)

val scenarios :
  ?vary:[ `Environment | `Stimuli ] ->
  Hlcs_interface.Run_config.t ->
  seed:int ->
  n:int ->
  scenario list
(** [n] fault-free scenarios over one design configuration.

    [vary] picks the sweep axis.  [`Environment] (the default) fixes the
    stimulus seed at [seed] and counts the target-memory fill seed up
    from the config's [rc_mem_seed]: the unit under design is
    {e identical} across jobs, so the shared synthesis cache reduces the
    whole sweep to a single synthesis.  [`Stimuli] keeps the config's
    memory seed and counts the stimulus seed up from [seed] instead — a
    multi-design regression campaign (the application process replays
    the script, so each job carries a different design and pays one
    synthesis). *)

val fault_scenarios :
  Hlcs_interface.Run_config.t ->
  seed:int ->
  fault_seed:int ->
  n:int ->
  scenario list
(** The fault axis: one design (stimulus seed [seed]), one environment
    (the config's memory seed), the first [n] seeded plans of campaign
    [fault_seed] ({!Hlcs_fault.Fault.scenarios} — slot 0 is always the
    fault-free control run).  Identical design across jobs, so the
    synthesis cache still collapses the campaign to one synthesis. *)

val script :
  Hlcs_interface.Run_config.t -> seed:int -> count:int -> Hlcs_pci.Pci_types.request list
(** The request script of one job: [count] seeded random bus requests
    within the config's memory window, then read-back of every touched
    address.  Every batch job and {!Job.script} build their script
    here. *)

type job_report = {
  jb_scenario : scenario;
  jb_ok : bool;  (** flow verdict; [false] as well when the job crashed *)
  jb_stages : (string * bool) list;  (** flow stage names and verdicts *)
  jb_wall_seconds : float;
  jb_profile : Hlcs_obs.Obs.snapshot option;
      (** per-job merged kernel snapshot (TLM + behavioural + RTL runs),
          [Some] iff the sweep ran with [profile] *)
  jb_failure : string option;  (** exception text if the job crashed *)
  jb_verdict : Hlcs_fault.Fault.verdict option;
      (** the flow's fault verdict, [Some] iff the scenario carried a
          non-empty plan (and the job did not crash) *)
}

type report = {
  sw_jobs : job_report list;  (** in submission order *)
  sw_ok : bool;
      (** every job passed {e and} no job carries a failure record *)
  sw_domains : int;  (** domains the pool actually used *)
  sw_wall_seconds : float;  (** whole-sweep wall clock *)
  sw_cache : Hlcs_synth.Synth_cache.stats option;
      (** [None] when the sweep ran without a cache *)
  sw_profile : Hlcs_obs.Obs.snapshot option;
      (** merge of every job snapshot, with the cache counters attached
          as [synth_cache_hits]/[synth_cache_misses] extras *)
}

val failed_jobs : report -> job_report list
(** Jobs that failed their flow or crashed ([jb_failure] set).  Non-empty
    exactly when [sw_ok] is false; the CLI exits non-zero on it even when
    the merged snapshot rendered fine. *)

val run :
  ?jobs:int ->
  ?cache_handle:Hlcs_synth.Synth_cache.t ->
  Hlcs_interface.Run_config.t ->
  count:int ->
  scenarios:scenario list ->
  report
(** Runs one {!Flow.execute} per scenario, on a {!script} of [count]
    requests from the scenario's seed.  [jobs] defaults to
    {!Hlcs_runtime.Pool.recommended_jobs}.

    Each job runs under the given config with four fields overridden:
    - [rc_mem_seed] and [rc_faults] are the scenario's;
    - [rc_vcd_prefix]: the config's prefix is a directory, created if
      missing, and each job dumps [<dir>/<sc_name>_{behavioural,rtl}.vcd];
    - [rc_cache]: with a cache, all jobs share a synthesis cache private
      to the batch — or [cache_handle], so consecutive sweeps (or a test)
      share unit fragments across calls; without one
      ({!Hlcs_interface.Run_config.without_cache}), every job synthesises
      cold, whatever the handle.
    Every other field applies to every job as it stands: memory size,
    policy, target timing, watchdog, profiling, synthesis options,
    equivalence stage and monitors.  A crashing job is recorded in its
    [jb_failure] and fails the sweep verdict without aborting the other
    jobs. *)

val render_text : ?wall:bool -> report -> string
(** Per-job verdict table (fault plans and verdicts included) plus cache
    statistics and, when profiled, the merged snapshot.  [wall:false]
    omits every host-time figure, making the output deterministic for
    fixed scenarios regardless of [jobs] — the CLI's [--deterministic]
    mode and the determinism regression rely on that. *)

val to_json : ?wall:bool -> report -> Hlcs_json.Json.t
(** One JSON object: sweep verdict, domain count, per-job records (with
    fault plan summaries and structured verdicts), cache stats, merged
    snapshot. *)

(** {1 Coverage-guided swarm campaigns}

    A swarm is a different shape of batch job: instead of a fixed scenario
    list it holds a {e budget} of jobs and spends it across the fault
    {e families} of {!Hlcs_fault.Fault.families}, guided by the functional
    coverage each family closes ({!Hlcs_verify.Swarm}).  Per job: one
    seeded plan from the family's scenario slice, one random request
    script, one run of the flow (or of the cheaper pin-accurate
    configuration alone), with the stock PCI temporal monitors attached
    ({!Hlcs_interface.System.pci_monitor_specs}) and a
    {!Hlcs_verify.Coverage} model sampling the crossed transaction plan,
    the fault-verdict lattice and the monitor verdicts. *)

val verdict_bins : string list
(** The fault-verdict coverage bins: ["clean"; "survived"; "degraded";
    "inconsistent"].  A job whose plan is empty (the [baseline] family)
    produces no fault verdict and lands in ["clean"]. *)

val swarm_families : unit -> Hlcs_verify.Swarm.family list
(** {!Hlcs_fault.Fault.families} with their coverage-tag hints attached. *)

val swarm :
  ?jobs:int ->
  ?mode:[ `Flow | `Pin ] ->
  Hlcs_interface.Run_config.t ->
  count:int ->
  fault_seed:int ->
  Hlcs_verify.Swarm.config ->
  Hlcs_verify.Swarm.report
(** Run a swarm campaign.  [mode] picks what each job executes: [`Flow]
    (default) runs the complete refinement flow and covers the verdict
    lattice; [`Pin] runs only the behavioural pin-accurate configuration —
    roughly an order of magnitude cheaper per job, used by the closure
    benchmarks.

    Each job is a scenario labelled [<seq>-<family>#<draw>]: the plan
    [Fault.family_scenario ~seed:fault_seed] draws for its family, and a
    {!script} of [count] requests whose seed walks from the campaign's
    [sw_seed] with the family and draw index.  It runs under the config
    exactly as a {!run} job does (same four overrides, so a VCD directory
    receives [<label>_behavioural.vcd] per job, plus [<label>_rtl.vcd] in
    flow mode), with the stock PCI monitors
    ({!Hlcs_interface.System.pci_monitor_specs}) in place of the config's.
    Batches run on the domain pool; outcomes are consumed in submission
    order and the scheduler is single-threaded, so a campaign is
    byte-identical at any [jobs] value. *)
