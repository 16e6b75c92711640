(** The serializable job API: one request type for every batch entry
    point the CLI exposes.

    A {!t} bundles {e what} to run (the {!kind}: one flow, one profiled
    configuration, a scenario sweep, a fault campaign or a coverage
    swarm) with {e how} to run it (a {!Hlcs_interface.Run_config.t}, the
    stimulus seed and length, the pool width, determinism).  The five
    CLI subcommands, the [--config job.json] flag and the serve wire
    protocol all decode into this one type and execute through {!run},
    so a job behaves identically whether it arrived as command-line
    flags, a job file, or a frame over the daemon socket.

    Rendering is envelope-stable: {!render_json} wraps every payload in
    [{"schema_version": 1, "kind": "<kind>", "payload": ...}] so stream
    consumers can dispatch without sniffing payload shapes. *)

type profile_design = [ `Tlm | `Pin | `Rtl | `Sram_pin | `Sram_rtl ]

type kind =
  | Flow
  | Profile of profile_design
  | Sweep of { n : int; vary : [ `Environment | `Stimuli ] }
  | Fault of { n : int; fault_seed : int }
  | Swarm of {
      budget : int;
      batch : int;
      epsilon : float;
      guided : bool;
      target_ratio : float option;
      mode : [ `Flow | `Pin ];
      fault_seed : int;
    }

type t = {
  j_kind : kind;
  j_config : Hlcs_interface.Run_config.t;
  j_seed : int;  (** stimulus seed (sweep/fault/swarm: the base seed) *)
  j_count : int;  (** random bus requests per script *)
  j_jobs : int option;  (** domain-pool width; [None] = recommended *)
  j_deterministic : bool;  (** omit wall-clock figures from renders *)
}

val default : t
(** A fault-free flow: seed 2004, count 12, recommended pool width,
    non-deterministic rendering, {!Hlcs_interface.Run_config.default}. *)

val kind_name : kind -> string
(** The envelope tag: ["flow" | "profile" | "sweep" | "fault" | "swarm"]. *)

val script : t -> Hlcs_pci.Pci_types.request list
(** The request script the job simulates: a seeded random write burst
    followed by read-back of every touched address — identical to the
    CLI's stimulus construction for the same seed/count/mem-bytes. *)

type outcome =
  | Flow_result of Flow.report
  | Profile_result of Hlcs_obs.Obs.snapshot
  | Sweep_result of Sweep.report  (** sweeps and fault campaigns *)
  | Swarm_result of Hlcs_verify.Swarm.report * float  (** report, wall s *)

val run : t -> (outcome, string) result
(** Execute the job in-process.  [Error] is reserved for jobs that could
    not produce a report at all (e.g. a profiling run with no snapshot);
    a flow or campaign that ran but {e failed} returns [Ok] with the
    failure recorded in the outcome — see {!failure}. *)

val failure : outcome -> string option
(** The CLI exit-status rule, shared with the daemon: [Some reason] when
    the outcome should fail the invocation (failed flow, failed or
    crashed sweep jobs, crashed swarm jobs), [None] otherwise. *)

val schema_version : int
(** Version of the output envelope (and of the serve event stream). *)

val render_text : t -> outcome -> string
(** Human-readable report, exactly as the corresponding CLI subcommand
    prints it (trailing newline included; honours [j_deterministic]). *)

val render_json : t -> outcome -> string
(** The versioned envelope
    [{"schema_version": N, "kind": K, "payload": P}] on a single line,
    no trailing newline.  [P] is the subcommand's previous top-level
    JSON object, unchanged. *)

(** {1 JSON codec}

    Jobs serialize as
    [{"job_version": 1, "kind": {...}, "config": {...}, "seed": ...}]
    with the config encoded by the {!Hlcs_interface.Run_config} codec.
    Used by [--config job.json] and the serve protocol's [submit]
    request. *)

val codec_version : int

val to_json_value : t -> Hlcs_json.Json.t
val to_json : t -> string

val of_json : Hlcs_json.Json.t -> (t, string) result
(** Also rejects out-of-range values, naming the field and its range:
    [count] and a sweep's or fault campaign's [n] below 0, [jobs] and a
    swarm's [budget] and [batch] below 1, an [epsilon] or [target_ratio]
    outside [0, 1]. *)

val parse : string -> (t, string) result

(** {1 Ranges}

    Inclusive bounds of the job's own integers; {!of_json} and the CLI
    flags check them through {!Hlcs_interface.Run_config.in_range}, so a
    bad value is an error message, not a crash inside the run. *)

val count_range : int * int
(** 0 and up: request counts, sweep sizes, fault scenario counts. *)

val positive_range : int * int
(** 1 and up: the pool width, a swarm's budget and batch size. *)

val ratio_in_range : string -> float -> (float, string) result
(** [ratio_in_range field r] is [Ok r] for [r] in [0, 1] (a swarm's
    exploration probability or coverage target), else an error naming
    [field], [r] and the range. *)
