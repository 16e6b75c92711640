(** A content-addressed memo table over {!Synthesize.synthesize}, with an
    optional persistent on-disk tier and unit-granular reuse.

    Refinement-based validation re-synthesises the same unit under design
    for every job of a sweep (and the flow driver itself synthesises the
    design twice per run: once for the netlist analyses, once inside the
    RT-level simulation).  Synthesis is a pure function of the HLIR
    design and the synthesis options, so its output can be keyed by
    content at two granularities:

    - the {e report tier} hashes a canonical serialisation of the whole
      design plus the options and replays the complete
      {!Synthesize.report} on a hit;
    - the {e fragment tier} keys each synthesis unit's netlist fragment
      by its content signature ({!Synthesize.plan_unit.u_signature}).  A
      report miss plans the design, pulls every clean unit's fragment
      from this tier, resynthesises only the dirty ones and relinks —
      {!Synthesize.link_plan} is deterministic, so the result is
      byte-identical to a from-scratch synthesis.  Editing one process
      of an N-unit design costs one unit synthesis plus a link, and a
      sweep over N design variants shares every unchanged unit.

    The cached {!Synthesize.report} is immutable after construction
    (pure-data RTL IR, lists and strings throughout), so one report may
    be shared freely across domains; the tables themselves are protected
    by a mutex and are safe to share between the workers of a
    {!Hlcs_runtime.Pool} sweep.  A synthesis in flight is represented by
    a pending entry: concurrent requests for the same key block on it
    rather than duplicating the work, so an N-job sweep over one design
    synthesises exactly once regardless of domain count.

    {b Disk tier.}  A cache opened on a directory also persists every
    successful synthesis (both tiers) as entries of a
    {!Hlcs_store.Store}, so a fresh process — a restarted serve daemon, a
    cold CLI run — reloads prior reports and fragments instead of
    resynthesising.  [Store] describes the file names, fingerprints,
    pruning and corruption recovery.  By default the tier is armed
    exactly when [HLCS_SYNTH_CACHE] names a directory, so the ordinary
    test and CI runs (no variable set) stay byte-reproducible. *)

type t

type stats = {
  hits : int;  (** requests served from the in-memory report table
                   (including waits on a computation already in flight) *)
  misses : int;  (** requests that had to plan, resolve units and link *)
  disk_hits : int;
      (** requests served by loading a persisted report from the disk
          tier (always [0] on a memory-only cache) *)
  units_total : int;
      (** synthesis units resolved while serving report misses *)
  units_reused : int;
      (** units whose fragment came from the fragment tier (memory or
          disk) instead of being resynthesised *)
  units_rebuilt : int;
      (** units actually resynthesised — the dirty cone.  [units_total =
          units_reused + units_rebuilt] *)
}

val env_var : string
(** ["HLCS_SYNTH_CACHE"] — the directory the [`Env] disk mode reads. *)

val create : ?disk:[ `Memory | `Env | `Dir of string ] -> unit -> t
(** [`Env] (the default): persist to the directory named by
    {!env_var} when set and usable, else memory-only.  [`Dir d]: persist
    to [d] (created if missing; memory-only if unusable).  [`Memory]:
    never touch the disk.  Opening a directory prunes every cache blob
    written under a foreign runtime fingerprint. *)

val disk_dir : t -> string option
(** The directory of the armed disk tier, [None] on memory-only caches
    (including those whose requested directory was unusable). *)

val key : ?options:Synthesize.options -> Hlcs_hlir.Ast.design -> string
(** The report-tier content hash: a digest over the canonical
    (sharing-expanded) serialisation of the design plus every option
    field.  Structurally equal designs under equal options always
    collide onto the same key; any change to either yields a fresh key,
    which is the report tier's whole invalidation story.  (The fragment
    tier invalidates per unit, via {!Synthesize.plan_unit.u_signature}.) *)

val synthesize : t -> ?options:Synthesize.options -> Hlcs_hlir.Ast.design -> Synthesize.report
(** Like {!Synthesize.synthesize}, memoised on {!key} with unit-granular
    resynthesis on report misses.  A synthesis that raises (e.g.
    {!Synthesize.Synthesis_error}) is cached as a failure and re-raised
    on later hits — a design outside the synthesisable subset stays
    outside it.  Failures are never persisted to disk. *)

val stats : t -> stats

val size : t -> int
(** Number of distinct report keys resident in memory (completed or in
    flight). *)
