(** Simulation as a service: the job daemon behind [hlcs_cli serve].

    A session owns a bounded {!Hlcs_runtime.Admission} queue and speaks
    the {!Protocol} over a channel pair.  Requests are admitted (or
    bounced with a structured [rejected] event carrying a retry hint),
    queued on per-client fairness lanes, and executed in {e batches} on
    a {!Hlcs_runtime.Pool}: a batch starts only at an explicit [drain]
    request, at [shutdown] (graceful: queued work still runs), or — for
    the socket server — between connections.  Within a batch, every
    [started] event goes out, in round-robin drain order, before any job
    runs.  Each [result] event, with its [progress], then goes out as
    soon as that job and every job submitted before it in the batch are
    done ({!Hlcs_runtime.Pool.map}'s [on_result]): a result does not wait
    for later jobs of its batch, and results keep submission order.  A
    session transcript is therefore byte-identical at any [sv_jobs]
    width when the jobs are deterministic.

    Events, one frame each, all tagged [schema_version]:
    {v
      {"event": "accepted",  "id": ..., "queue_length": n}
      {"event": "rejected",  "id": ..., "reason": ..., "retry_after_ms": n}
      {"event": "started",   "id": ...}
      {"event": "progress",  "completed": k, "of": n}
      {"event": "result",    "id": ..., "ok": b, "failure": null | "...",
                             "payload": { the Job render envelope }}
      {"event": "error",     "id": ... | null, "error": "..."}
      {"event": "cancelled", "id": ...}
      {"event": "stats",     "queue_length": ..., "capacity": ...,
                             "submitted": ..., "completed": ...,
                             "rejected": ..., "cancelled": ..., "errors": ...,
                             "cache": {"hits": ..., "misses": ...,
                                       "disk_hits": ..., "disk_dir": ...}}
      {"event": "bye"}
    v}

    A job that does not decode, or whose numbers are out of range
    ({!Hlcs.Job.of_json}), is answered with a per-id [error] event
    ["bad job: ..."] and never queued; so is a job that names a waveform
    path ([vcd_prefix]): the daemon writes no file at a path a client
    chose.

    Cancellation is cooperative: [cancel] removes a {e queued} job; a
    job already handed to the pool runs to completion.  A [timeout_ms]
    on submit bounds queue wait — expired jobs are reported as
    structured timeout [error]s when their batch starts, without
    running.  Client disconnect (EOF, or a broken pipe while emitting)
    cancels every queued job and ends the session; the daemon survives
    to serve the next connection. *)

type config = {
  sv_capacity : int;  (** admission bound (backpressure threshold) *)
  sv_batch : int option;  (** jobs per pool batch; [None] = whole queue *)
  sv_jobs : int option;  (** pool width; [None] = recommended *)
}

val default_config : config
(** capacity 64, whole-queue batches, recommended pool width. *)

type summary = {
  sm_submitted : int;
  sm_completed : int;  (** result events emitted, failures included *)
  sm_rejected : int;
  sm_cancelled : int;  (** cancel requests plus disconnect cleanup *)
  sm_errors : int;  (** error events: bad requests, timeouts, crashes *)
}

type stop_reason = [ `Eof | `Shutdown | `Protocol_error ]

val session :
  ?client:string -> config -> in_channel -> out_channel -> summary * stop_reason
(** Run one session until shutdown, EOF or a framing error.  [client]
    names the default fairness lane (socket connections pass their
    connection id); a [submit] request's own [client] field overrides
    it per job. *)

val serve_unix : ?max_connections:int -> config -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing any stale socket
    file), then serve connections sequentially — one session each —
    until a session ends in [shutdown] (or [max_connections] sessions
    have run).  The socket file is removed on exit. *)
