(** Coverage-guided scenario-swarm scheduling.

    A swarm campaign spends a fixed budget of scenario runs across named
    {e families} (the fault families, a stimulus axis, …), using merged
    functional coverage as feedback: families whose recent jobs hit bins
    nobody had hit before receive more of the remaining budget
    (epsilon-greedy over per-family novelty scores, plus a bonus for
    families whose declared {!family.fam_tags} still match open holes).
    The baseline policy ([sw_guided = false]) is the blind round-robin the
    fault campaigns used before.

    The module is policy only: callers supply [run_batch], which executes
    one batch of {!job}s (typically on the {!Hlcs_runtime} domain pool) and
    returns one {!outcome} per job {e in submission order}.  Scheduling
    decisions are taken single-threaded between batches from merged state,
    so a campaign is a deterministic function of its configuration alone —
    byte-identical at any worker count. *)

type family = {
  fam_name : string;
  fam_tags : string list;
      (** substrings matched against open-hole keys ["point/bin"] *)
}

type job = {
  jb_seq : int;  (** global 0-based submission index *)
  jb_family : int;  (** index into the family list *)
  jb_index : int;  (** 0-based draw counter within the family *)
}

type outcome = {
  oc_label : string;  (** display name, e.g. ["03-retry"] *)
  oc_coverage : Coverage.t;  (** this job's coverage snapshot *)
  oc_verdict : string option;  (** fault verdict label, when the job has one *)
  oc_monitor : (string * int) list;  (** monitor name -> violation count *)
  oc_failure : string option;  (** infrastructure failure, fails the swarm *)
}

type config = {
  sw_seed : int;
  sw_budget : int;  (** total jobs to spend *)
  sw_batch : int;  (** jobs per scheduling round *)
  sw_epsilon : float;  (** exploration probability, in [0, 1] *)
  sw_guided : bool;  (** [false]: blind round-robin baseline *)
  sw_target_ratio : float option;
      (** stop early once merged declared-bin coverage reaches this, in [0, 1] *)
}

val default_config : config
(** seed 1, budget 16, batch 4, epsilon 0.2, guided, no target. *)

type round_stat = {
  rd_round : int;  (** 1-based *)
  rd_jobs : int;
  rd_new_bins : int;  (** distinct bins first hit during this round *)
  rd_bins : int;  (** cumulative distinct bins hit *)
  rd_ratio : float;  (** merged declared-bin coverage after the round *)
}

type family_stat = {
  fs_name : string;
  fs_tags : string list;
  fs_jobs : int;  (** budget spent on the family *)
  fs_new_bins : int;  (** distinct bins this family was first to hit *)
}

type report = {
  sr_config : config;
  sr_jobs : int;  (** jobs actually run *)
  sr_rounds : round_stat list;
  sr_families : family_stat list;
  sr_coverage : Coverage.t;  (** merged over every job *)
  sr_bins : int;  (** distinct bins hit (declared or not) *)
  sr_verdicts : (string * int) list;  (** verdict label -> jobs, sorted *)
  sr_monitors : (string * int) list;  (** monitor -> violations, sorted *)
  sr_failures : (string * string) list;  (** (job label, error) *)
  sr_reached_target : bool;
  sr_ok : bool;  (** no job failed *)
}

val run :
  config -> families:family list -> run_batch:(job list -> outcome list) -> report
(** Runs the campaign.  [run_batch] must return outcomes in job order; a
    short return raises.  @raise Invalid_argument on an empty family list,
    a non-positive budget or batch, or an epsilon or target ratio outside
    [0, 1]. *)

val render_text : ?wall:float -> report -> string
val render_json : ?wall:float -> report -> string
(** [wall] adds a wall-clock line/field; omit it under [--deterministic]. *)
