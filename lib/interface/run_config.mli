(** The one record that configures a simulation run.

    Every knob of a run lives here: build one with {!default} and the
    [with_*] setters (or {!make}) and pass it to the configuration
    runners ({!System.tlm}, {!System.pin}, {!System.rtl},
    {!Sram_system.pin}, {!Sram_system.rtl}), the flow driver
    ([Hlcs.Flow.execute]) and the sweep. *)

type t = {
  rc_mem_bytes : int;  (** target memory size *)
  rc_mem_seed : int;  (** target memory fill pattern seed *)
  rc_policy : Hlcs_osss.Policy.t option;  (** interface arbitration policy *)
  rc_target : Hlcs_pci.Pci_target.config;
  rc_synth_options : Hlcs_synth.Synthesize.options option;
  rc_vcd_prefix : string option;
      (** e.g. ["waves/pci"] dumps [<prefix>_<suffix>.vcd] per pin-level run *)
  rc_max_time : Hlcs_engine.Time.t;  (** simulation watchdog *)
  rc_profile : bool;  (** attach {!Hlcs_obs.Obs} snapshots *)
  rc_cache : Hlcs_synth.Synth_cache.t option;  (** synthesis memoisation *)
  rc_faults : Hlcs_fault.Fault.plan;  (** {!Hlcs_fault.Fault.empty} = none *)
  rc_equiv : bool;
      (** run the SAT-based equivalence stage in {!Hlcs_core.Flow}:
          CEC-prove the optimised netlist against the raw
          (pre-optimisation) synthesis output *)
  rc_monitors : Hlcs_verify.Monitor.spec list;
      (** temporal-property monitors stepped online (clock observer) during
          pin-level and RTL runs; [[]] (default) attaches nothing.  Use
          {!System.pci_monitor_specs} for the stock PCI properties. *)
}

val default : t
(** 1024 memory bytes, seed 42, default target, 100 ms watchdog, no VCD,
    no profiling, no faults, and the shared process-wide synthesis cache
    (sweeps, fault campaigns and benches re-synthesise the same design
    many times per process; use {!without_cache} to force cold
    synthesis). *)

val with_mem_bytes : int -> t -> t
val with_mem_seed : int -> t -> t
val with_policy : Hlcs_osss.Policy.t -> t -> t
val with_target : Hlcs_pci.Pci_target.config -> t -> t
val with_synth_options : Hlcs_synth.Synthesize.options -> t -> t
val with_vcd_prefix : string -> t -> t
val with_max_time : Hlcs_engine.Time.t -> t -> t
val with_profile : bool -> t -> t
val shared_cache : Hlcs_synth.Synth_cache.t
(** The process-wide synthesis cache behind {!default}. *)

val with_cache : Hlcs_synth.Synth_cache.t -> t -> t

val without_cache : t -> t
(** Drop the synthesis cache: every run re-synthesises from scratch. *)

val with_faults : Hlcs_fault.Fault.plan -> t -> t
val with_equiv : bool -> t -> t
val with_monitors : Hlcs_verify.Monitor.spec list -> t -> t

val make :
  ?mem_bytes:int ->
  ?mem_seed:int ->
  ?policy:Hlcs_osss.Policy.t ->
  ?target:Hlcs_pci.Pci_target.config ->
  ?synth_options:Hlcs_synth.Synthesize.options ->
  ?vcd_prefix:string ->
  ?max_time:Hlcs_engine.Time.t ->
  ?profile:bool ->
  ?cache:Hlcs_synth.Synth_cache.t ->
  ?faults:Hlcs_fault.Fault.plan ->
  ?equiv:bool ->
  ?monitors:Hlcs_verify.Monitor.spec list ->
  unit ->
  t
(** All-optionals constructor over {!default}: each given argument applies
    its [with_*] setter. *)

val vcd_file : t -> string -> string option
(** [vcd_file t suffix] is [<prefix>_<suffix>.vcd] when a prefix is set. *)

val synthesize : t -> Hlcs_hlir.Ast.design -> Hlcs_synth.Synthesize.report
(** Synthesise under the config's options, through its cache when it has
    one. *)

val effective_target : t -> Hlcs_pci.Pci_target.config
(** [rc_target] with the fault plan's {!Hlcs_fault.Fault.target_faults}
    merged on top (extra wait states added; retry/disconnect/abort
    injections overriding when the plan sets them). *)

(** {1 Versioned JSON codec}

    The serializable surface of a run configuration, used by job files
    ([hlcs_cli flow --config job.json]), the serve wire protocol and the
    submit client.  Two fields are unrepresentable as live values and map
    to declarative forms:

    - [rc_cache] becomes [cache: "shared" | "none" | "private" | "disk"]:
      the process-wide {!shared_cache}, no cache, a fresh private memory
      cache, or a process-wide disk-backed cache rooted at
      [$HLCS_SYNTH_CACHE] (default [~/.cache/hlcs/synth]);
    - [rc_monitors] becomes a list of stock spec names resolved through
      {!Monitor_specs}; unknown names are decode errors.

    The [rtl_engine] member names the one RTL engine, ["levelized"]; it
    is required, and any other name (a retired engine) is a decode
    error.

    [of_json (parse (to_json t))] succeeds for every [t] whose monitors
    come from the registry and whose values are in range, and the composite
    [to_json ∘ of_json ∘ to_json] is the identity on strings. *)

val codec_version : int
(** Emitted as [config_version]; {!of_json} rejects any other value. *)

val to_json : t -> string
(** Canonical single-line JSON object. *)

val to_json_value : t -> Hlcs_json.Json.t

val of_json : Hlcs_json.Json.t -> (t, string) result
(** Also rejects out-of-range values, naming the field and its range:
    see {!mem_bytes_range} and {!devsel_latency_range}, the target's and
    the fault plan's timing in {!cycles_range} and {!every_range}, plus
    [synth_options.age_width] in 1..62, and [max_time_ps] and
    [faults.guard.timeout_ps] at least 1. *)

val parse : string -> (t, string) result

(** {1 Ranges}

    Inclusive bounds a run can take; the decoder and the CLI flags check
    them, so a bad value is an error message, not a crash in the
    stimulus generator or the PCI target. *)

val mem_bytes_range : int * int
(** 32 (one 8-word burst) to 2{^30} - 1 (the bound of [Random.int], with
    which the stimulus generator draws addresses). *)

val devsel_latency_range : int * int
(** At least 1 cycle; the upper bound is [max_int]. *)

val cycles_range : int * int
(** At least 0: a cycle count of the PCI target's timing, the target's
    [wait_states] and [disconnect_after] and the fault plan's
    [extra_wait_states] and [disconnect_after] (0 disconnects at once). *)

val every_range : int * int
(** At least 1: the period of a "every K-th transaction" behaviour, the
    target's [retry_every] and [ignore_every] and the fault plan's
    [retry_every] and [abort_every]. *)

val in_range : string -> int * int -> int -> (int, string) result
(** [in_range field range v] is [Ok v], or an error naming [field], [v]
    and [range]. *)
