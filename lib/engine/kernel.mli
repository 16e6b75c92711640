(** The discrete-event simulation kernel.

    The kernel reproduces the SystemC scheduler semantics the paper's models
    rely on: an {e evaluate} phase runs all runnable processes, an {e update}
    phase commits primitive-channel (signal) writes, and a {e delta
    notification} phase wakes processes sensitive to the changes; when no
    delta work remains, time advances to the earliest timed notification.

    Processes are ordinary OCaml functions run as one-shot coroutines via
    effect handlers: calling {!wait}, {!wait_any} or {!delay} suspends the
    caller and returns control to the scheduler, exactly like [wait()] in an
    [SC_THREAD]. *)

type t
(** A simulation context.  Contexts are independent; tests routinely create
    many of them. *)

type event
(** A notification primitive, as [sc_event]. *)

type proc_id = int

exception Process_failure of string * exn
(** [Process_failure (name, exn)]: a process body raised [exn].
    [Printexc.to_string] renders it as [process "name" raised <exn>]. *)

val create : unit -> t

(** {1 Time} *)

val now : t -> Time.t
val delta_count : t -> int
(** Total number of delta cycles executed so far. *)

(** {1 Observability}

    The kernel keeps cheap always-on counters of scheduler activity (plain
    integer bumps on the hot path) and, when explicitly enabled, wall-clock
    accounting per scheduler phase.  {!Hlcs_obs} renders both. *)

module Counters : sig
  type t = {
    mutable deltas : int;  (** delta cycles, including timed phases *)
    mutable timesteps : int;  (** advances of simulated time *)
    mutable activations : int;  (** process steps run in evaluate phases *)
    mutable updates : int;  (** update-phase commit callbacks run *)
    mutable immediate_notifies : int;
    mutable delta_notifies : int;
    mutable timed_notifies : int;  (** timed events fired *)
    mutable signal_writes : int;  (** {!Signal.write} calls *)
    mutable signal_changes : int;  (** committed signal value changes *)
    mutable net_drives : int;  (** {!Resolved.drive}/[release] calls *)
    mutable net_changes : int;  (** committed resolved-net changes *)
    mutable peak_runnable : int;  (** peak evaluate-queue depth *)
    mutable peak_timed : int;  (** peak timed-event-queue depth *)
  }

  val create : unit -> t
  val copy : t -> t
end

val counters : t -> Counters.t
(** The kernel's live counter record; channel implementations bump it
    directly.  Treat it as read-only outside the engine. *)

val counters_snapshot : t -> Counters.t
(** An independent copy, safe to keep across further simulation. *)

type phase_times = {
  pt_evaluate : float;  (** seconds spent running processes *)
  pt_update : float;  (** seconds committing channel writes *)
  pt_notify : float;  (** seconds firing delta + timed notifications *)
  pt_run : float;  (** total seconds inside {!run} *)
}

val enable_profiling : t -> clock:(unit -> float) -> unit
(** Starts accumulating per-phase wall-clock time, sampled with [clock]
    (e.g. [Unix.gettimeofday]), from the next {!run} on.  Off by default;
    when off, {!run} makes no timing call and allocates nothing for it. *)

val phase_times : t -> phase_times option
(** [None] unless profiling is enabled. *)

val set_activation_jitter : t -> (int -> int) option -> unit
(** Installs (or removes, with [None]) an activation-order perturbation:
    at the start of each evaluate phase with [n > 1] runnable processes,
    the hook is called with [n] and the runnable queue is rotated by its
    result modulo [n].  Every process still runs exactly once per phase —
    only the order changes, which the SystemC semantics leave unspecified
    anyway — so this is a legality-preserving stressor: a model whose
    behaviour changes under jitter has a process-order race.  Used by
    {!Hlcs_fault} with a seeded generator; deterministic for a fixed hook.
    Off by default (one mutable load per phase). *)

(** {1 Events} *)

val make_event : t -> string -> event
val event_name : event -> string

val notify_immediate : event -> unit
(** Wakes current waiters within the running evaluate phase. *)

val notify_delta : event -> unit
(** Wakes waiters at the end of the current delta cycle (next delta). *)

val notify_after : event -> Time.t -> unit
(** Wakes waiters [d] time units from now ([d] may be zero, meaning the next
    timed phase at the current time). *)

(** {1 Processes} *)

val spawn : t -> ?name:string -> (unit -> unit) -> proc_id
(** Registers a coroutine process; it first runs during the next evaluate
    phase.  Exceptions escaping the body abort the simulation with
    {!Process_failure}. *)

val spawn_method : t -> ?name:string -> sensitive:event list -> (unit -> unit) -> proc_id
(** An [SC_METHOD]-style process: [body] runs once at start-up and then
    once per notification of any event in [sensitive].  The body must not
    suspend (no {!wait}/{!delay}); it is re-invoked, not resumed.
    @raise Invalid_argument on an empty sensitivity list. *)

val current_proc : t -> proc_id
(** Identity of the running process. @raise Failure outside a process. *)

val current_proc_name : t -> string

(** {1 Suspension — call only from inside a process} *)

val wait : event -> unit
val wait_any : event list -> unit
val delay : t -> Time.t -> unit
(** Suspends for a relative amount of time (must be > 0). *)

val yield : t -> unit
(** Suspends for one delta cycle. *)

(** {1 Update phase}

    Used by channel implementations (signals, resolved nets). *)

val schedule_update : t -> (unit -> unit) -> unit
(** Enqueues a commit callback for the update phase of the current delta. *)

(** {1 Running} *)

val run : ?max_time:Time.t -> t -> unit
(** Runs until no activity remains, {!request_stop} is called, or simulated
    time would exceed [max_time].  May be called again afterwards to resume
    (with a larger [max_time]). *)

val request_stop : t -> unit

val suspended_processes : t -> int
(** Number of processes currently blocked on an event or a timer.  After
    {!run} returns, a non-zero value means the simulation starved (ran out
    of notifications) rather than all processes terminating — how SystemC
    simulations of servers normally end, but also the signature of a
    deadlock that tests may want to assert on. *)

val stats : t -> string
(** One-line summary: time, deltas, processes spawned. *)
