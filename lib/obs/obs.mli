(** Observability snapshots over {!Hlcs_engine.Kernel}.

    The kernel counts scheduler work (deltas, activations, updates,
    notifications, signal/net traffic, queue peaks) unconditionally —
    plain integer bumps with no measurable cost.  Per-phase wall-clock
    attribution is opt-in: {!Hlcs_engine.Kernel.enable_profiling} installs
    a clock, which [System.timed_run] does for a run whose config sets
    [rc_profile].  The kernel's one run loop reads that setting once per
    call and brackets its phases with the clock only when one is
    installed, so an unprofiled simulation never calls a time source and
    pays one branch per phase boundary (EXPERIMENTS.md, Profiling, gives
    its measured cost). *)

type snapshot = {
  sn_label : string;
  sn_sim_time : Hlcs_engine.Time.t;
  sn_wall_seconds : float option;  (** [None] when the run was not timed *)
  sn_counters : Hlcs_engine.Kernel.Counters.t;  (** private copy *)
  sn_phases : Hlcs_engine.Kernel.phase_times option;
      (** [Some] iff profiling was enabled during the run *)
  sn_extras : (string * int) list;
      (** extra integer gauges contributed by layers above the kernel
          (e.g. a batch sweep's synthesis-cache hit/miss counters);
          empty for a plain kernel snapshot *)
}

val snapshot :
  ?label:string -> ?wall_seconds:float -> Hlcs_engine.Kernel.t -> snapshot
(** Capture the kernel's counters (copied) and, if profiling is enabled,
    its accumulated phase times. *)

val glossary : (string * string) list
(** Counter name and one-line meaning, in render order — the table behind
    the EXPERIMENTS.md profiling section. *)

val known_extras : (string * string) list
(** The extra gauge names the stock tooling attaches with {!with_extras}
    (the sweep driver's synthesis-cache and incremental-synthesis unit
    counters), with one-line meanings.  Extras remain free-form; this
    list documents the conventional names so the EXPERIMENTS.md tables
    and the daemon's stats consumers cannot drift from the producers. *)

val with_extras : snapshot -> (string * int) list -> snapshot
(** Append named integer gauges to the snapshot; both renderers list them
    after the kernel counters. *)

val merge : snapshot -> snapshot -> snapshot
(** Aggregate two snapshots into one: counters sum, the [peak_*]
    high-water marks take the max, phase times, wall seconds and
    simulated time sum, extras sum per name except the per-design gauges
    [rtl_levels], [rtl_nodes] and [rtl_cone_max], which take the max.
    An absent optional on one side ([sn_wall_seconds], [sn_phases]) keeps
    the other side's figure.
    The label of the left operand wins — see {!merge_all} to relabel an
    aggregation.  [merge] is associative, so folding it over the per-job
    snapshots of a sweep is well-defined regardless of grouping. *)

val merge_all : label:string -> snapshot list -> snapshot option
(** Fold {!merge} over the snapshots (in order) and relabel the result;
    [None] on the empty list. *)

val render_text : ?wall:bool -> snapshot -> string
(** Aligned counter table with the glossary inline.  [wall:false] omits
    every host-time figure (wall seconds and phase times), making the
    output deterministic for a fixed design — the CLI's diff tests rely on
    that. *)

val to_json : ?wall:bool -> snapshot -> Hlcs_json.Json.t
(** One JSON object: label, simulated picoseconds, counters, extras (when
    any), and (unless [wall:false]) wall/phase seconds. *)
