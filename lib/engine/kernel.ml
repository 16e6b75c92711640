(* The scheduler follows the SystemC reference semantics:

     evaluate*  ->  update  ->  delta-notify  ->  (more deltas | advance time)

   Processes are one-shot coroutines: the [Suspend] effect captures the
   continuation, parks it on the requested events (or a timer) and returns
   control to the scheduler.  A waiter cell shared between several events
   carries a [fired] flag so an any-of wait resumes exactly once.

   Method processes (SC_METHODs) never suspend: they are persistent
   subscribers interned on their sensitivity events at spawn time, so a
   notification re-queues a preallocated step closure instead of paying a
   continuation capture per activation.

   The per-delta work lists (update callbacks, delta-notified events) are
   reusable double-buffered Vecs: the steady-state loop drains one buffer
   while refills land in the other, with no per-cycle list building.  The
   clock path allocates nothing per cycle: a process's [Some proc] is built
   once, firing walks its lists without a closure, and the timed queue
   moves array slots only. *)

type proc_id = int

type proc = { pid : proc_id; pname : string }

type waiter = { mutable fired : bool; resume : unit -> unit }

module Counters = struct
  type t = {
    mutable deltas : int;
    mutable timesteps : int;
    mutable activations : int;
    mutable updates : int;
    mutable immediate_notifies : int;
    mutable delta_notifies : int;
    mutable timed_notifies : int;
    mutable signal_writes : int;
    mutable signal_changes : int;
    mutable net_drives : int;
    mutable net_changes : int;
    mutable peak_runnable : int;
    mutable peak_timed : int;
  }

  let create () =
    {
      deltas = 0;
      timesteps = 0;
      activations = 0;
      updates = 0;
      immediate_notifies = 0;
      delta_notifies = 0;
      timed_notifies = 0;
      signal_writes = 0;
      signal_changes = 0;
      net_drives = 0;
      net_changes = 0;
      peak_runnable = 0;
      peak_timed = 0;
    }

  let copy c = { c with deltas = c.deltas }
end

type phase_times = {
  pt_evaluate : float;
  pt_update : float;
  pt_notify : float;
  pt_run : float;
}

type prof = {
  pr_clock : unit -> float;
  mutable pr_mark : float;  (* when the open phase began *)
  mutable pr_evaluate : float;
  mutable pr_update : float;
  mutable pr_notify : float;
  mutable pr_run : float;
}

type event = {
  ev_name : string;
  owner : t;
  mutable waiters : waiter list;
  mutable methods : method_proc list;  (** persistent SC_METHOD subscribers *)
  mutable delta_pending : bool;
}

and method_proc = {
  mp_proc : proc option;  (** what [t.current] holds while the body runs *)
  mp_step : unit -> unit;
  mutable mp_queued : bool;
}

and t = {
  mutable time : Time.t;
  runnable : (unit -> unit) Fifo.t;
  mutable updates : (unit -> unit) Vec.t;
  mutable updates_back : (unit -> unit) Vec.t;
  mutable delta_events : event Vec.t;
  mutable delta_events_back : event Vec.t;
  timed : event Pq.t;
  ctrs : Counters.t;
  mutable profile : prof option;
  mutable jitter : (int -> int) option;
  mutable next_pid : int;
  mutable current : proc option;
  mutable stop : bool;
  mutable suspended : int;
}

exception Process_failure of string * exn

(* the default printer shows the inner exception as "_" *)
let () =
  Printexc.register_printer (function
    | Process_failure (name, e) ->
        Some (Printf.sprintf "process %S raised %s" name (Printexc.to_string e))
    | _ -> None)

type trigger = On_event of event | On_events of event list | For_time of Time.t

type _ Effect.t += Suspend : trigger -> unit Effect.t

let create () =
  {
    time = Time.zero;
    runnable = Fifo.create ~dummy:ignore;
    updates = Vec.create ();
    updates_back = Vec.create ();
    delta_events = Vec.create ();
    delta_events_back = Vec.create ();
    timed = Pq.create ();
    ctrs = Counters.create ();
    profile = None;
    jitter = None;
    next_pid = 0;
    current = None;
    stop = false;
    suspended = 0;
  }

let now t = t.time
let delta_count t = t.ctrs.Counters.deltas
let counters t = t.ctrs
let counters_snapshot t = Counters.copy t.ctrs

let enable_profiling t ~clock =
  t.profile <-
    Some
      {
        pr_clock = clock;
        pr_mark = 0.;
        pr_evaluate = 0.;
        pr_update = 0.;
        pr_notify = 0.;
        pr_run = 0.;
      }

let set_activation_jitter t f = t.jitter <- f

(* Rotating the runnable queue at an evaluate-phase boundary reorders the
   activations within that phase without dropping or duplicating any: the
   SystemC standard leaves this order unspecified, so a correct model must
   tolerate every rotation.  Inactive (the default) this is one mutable
   load per phase. *)
let apply_jitter t pending =
  match t.jitter with
  | Some f when pending > 1 ->
      let k = f pending mod pending in
      for _ = 1 to k do
        Fifo.push t.runnable (Fifo.pop t.runnable)
      done
  | Some _ | None -> ()

let phase_times t =
  match t.profile with
  | None -> None
  | Some p ->
      Some
        {
          pt_evaluate = p.pr_evaluate;
          pt_update = p.pr_update;
          pt_notify = p.pr_notify;
          pt_run = p.pr_run;
        }

let make_event t name =
  { ev_name = name; owner = t; waiters = []; methods = []; delta_pending = false }

let event_name ev = ev.ev_name

(* Firing takes the current waiter list so that re-waits performed while
   resuming land on a fresh list and are not woken by this firing.  Method
   subscribers are permanent; the [mp_queued] flag makes several
   notifications within one firing window coalesce into one activation.
   The two walks are top-level functions, so a firing builds no closure. *)
let rec wake_waiters runnable = function
  | [] -> ()
  | w :: ws ->
      if not w.fired then begin
        w.fired <- true;
        Fifo.push runnable w.resume
      end;
      wake_waiters runnable ws

let rec queue_methods runnable = function
  | [] -> ()
  | m :: ms ->
      if not m.mp_queued then begin
        m.mp_queued <- true;
        Fifo.push runnable m.mp_step
      end;
      queue_methods runnable ms

let fire ev =
  (match ev.waiters with
  | [] -> ()
  | ws ->
      ev.waiters <- [];
      wake_waiters ev.owner.runnable ws);
  queue_methods ev.owner.runnable ev.methods

let notify_immediate ev =
  ev.owner.ctrs.Counters.immediate_notifies <-
    ev.owner.ctrs.Counters.immediate_notifies + 1;
  fire ev

let notify_delta ev =
  if not ev.delta_pending then begin
    ev.delta_pending <- true;
    ev.owner.ctrs.Counters.delta_notifies <- ev.owner.ctrs.Counters.delta_notifies + 1;
    Vec.push ev.owner.delta_events ev
  end

let notify_after ev d =
  if Time.compare d Time.zero < 0 then invalid_arg "Kernel.notify_after: negative delay";
  let t = ev.owner in
  Pq.add t.timed (Time.add t.time d) ev;
  let c = t.ctrs in
  let n = Pq.length t.timed in
  if n > c.Counters.peak_timed then c.Counters.peak_timed <- n

let schedule_update t f = Vec.push t.updates f

let current_proc t =
  match t.current with
  | Some p -> p.pid
  | None -> failwith "Kernel.current_proc: no process is running"

let current_proc_name t =
  match t.current with
  | Some p -> p.pname
  | None -> "<none>"

let register_waiter t cur trigger k =
  let resume () =
    t.current <- cur;
    t.suspended <- t.suspended - 1;
    Effect.Deep.continue k ()
  in
  let w = { fired = false; resume } in
  t.suspended <- t.suspended + 1;
  match trigger with
  | On_event ev -> ev.waiters <- w :: ev.waiters
  | On_events evs ->
      if evs = [] then invalid_arg "Kernel.wait_any: empty event list";
      List.iter (fun ev -> ev.waiters <- w :: ev.waiters) evs
  | For_time d ->
      if Time.compare d Time.zero <= 0 then
        invalid_arg "Kernel.delay: delay must be positive";
      let ev = make_event t "timer" in
      ev.waiters <- [ w ];
      notify_after ev d

let spawn t ?(name = "proc") body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let cur = Some { pid; pname = name } in
  let step () =
    t.current <- cur;
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = (fun e -> raise (Process_failure (name, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend trigger ->
                Some
                  (fun (k : (a, _) continuation) -> register_waiter t cur trigger k)
            | _ -> None);
      }
  in
  Fifo.push t.runnable step;
  pid

let spawn_method t ?(name = "method") ~sensitive body =
  if sensitive = [] then invalid_arg "Kernel.spawn_method: empty sensitivity list";
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let rec m =
    {
      mp_proc = Some { pid; pname = name };
      mp_queued = true;
      mp_step =
        (fun () ->
          t.current <- m.mp_proc;
          t.suspended <- t.suspended - 1;
          (try body () with e -> raise (Process_failure (name, e)));
          t.suspended <- t.suspended + 1;
          (* cleared only after the body: notifications raised while it ran
             are absorbed, as with the coroutine re-wait they replace *)
          m.mp_queued <- false)
    }
  in
  List.iter (fun ev -> ev.methods <- m :: ev.methods) sensitive;
  (* the initial activation runs in the first evaluate phase, like a thread *)
  t.suspended <- t.suspended + 1;
  Fifo.push t.runnable m.mp_step;
  pid

let wait ev = Effect.perform (Suspend (On_event ev))
let wait_any evs = Effect.perform (Suspend (On_events evs))
let delay _t d = Effect.perform (Suspend (For_time d))

let yield t =
  let ev = make_event t "yield" in
  notify_delta ev;
  wait ev

let request_stop t = t.stop <- true
let suspended_processes t = t.suspended

let run_delta_notifications t =
  let evs = t.delta_events in
  t.delta_events <- t.delta_events_back;
  t.delta_events_back <- evs;
  for i = 0 to Vec.length evs - 1 do
    let ev = Vec.get evs i in
    ev.delta_pending <- false;
    fire ev
  done;
  Vec.clear evs

(* One scheduler loop serves profiled and unprofiled runs.  [t.profile] is
   read once per call into [prof]; each phase is bracketed with the
   injected clock only under [Some], so an unprofiled run pays one
   constant branch per phase boundary, makes no timing call and allocates
   nothing.  The open phase's start lives in [pr_mark], not in a local:
   locals kept live across the phase bodies slowed the unprofiled path.
   Measured on bench's kernel/bare_clock (200,000 cycles, min of 15, 22
   interleaved rounds, 2-vCPU Xeon VM): 61.5-99.2 ms, against 67.6-104.2
   ms when the unprofiled path was a loop of its own. *)
let run ?max_time t =
  let within_horizon time =
    match max_time with None -> true | Some m -> Time.compare time m <= 0
  in
  let c = t.ctrs in
  let prof = t.profile in
  let t_run = match prof with Some p -> p.pr_clock () | None -> 0. in
  let rec cycle () =
    if not t.stop then begin
      (* evaluate *)
      (match prof with Some p -> p.pr_mark <- p.pr_clock () | None -> ());
      let pending = Fifo.length t.runnable in
      if pending > c.Counters.peak_runnable then c.Counters.peak_runnable <- pending;
      apply_jitter t pending;
      while not (Fifo.is_empty t.runnable) && not t.stop do
        let step = Fifo.pop t.runnable in
        t.current <- None;
        c.Counters.activations <- c.Counters.activations + 1;
        step ();
        t.current <- None
      done;
      (match prof with
      | Some p -> p.pr_evaluate <- p.pr_evaluate +. (p.pr_clock () -. p.pr_mark)
      | None -> ());
      if not t.stop then begin
        (* update: drain the front buffer; commits scheduled while it runs
           land in the swapped-in back buffer, i.e. the next delta *)
        (match prof with Some p -> p.pr_mark <- p.pr_clock () | None -> ());
        let us = t.updates in
        t.updates <- t.updates_back;
        t.updates_back <- us;
        let n = Vec.length us in
        c.Counters.updates <- c.Counters.updates + n;
        for i = 0 to n - 1 do
          (* bound first: [Vec.get] is opaque here, and applying its result
             in one expression passes three arguments to a two-argument
             function, which builds a partial application per commit *)
          let commit = Vec.get us i in
          commit ()
        done;
        Vec.clear us;
        (match prof with
        | Some p -> p.pr_update <- p.pr_update +. (p.pr_clock () -. p.pr_mark)
        | None -> ());
        (* delta notify *)
        if not (Vec.is_empty t.delta_events) then begin
          (match prof with Some p -> p.pr_mark <- p.pr_clock () | None -> ());
          c.Counters.deltas <- c.Counters.deltas + 1;
          run_delta_notifications t;
          (match prof with
          | Some p -> p.pr_notify <- p.pr_notify +. (p.pr_clock () -. p.pr_mark)
          | None -> ());
          cycle ()
        end
        else if not (Fifo.is_empty t.runnable) then cycle ()
        else if Pq.is_empty t.timed then ()
        else begin
          let next = Pq.min_key t.timed in
          if within_horizon next then begin
            (match prof with Some p -> p.pr_mark <- p.pr_clock () | None -> ());
            t.time <- next;
            c.Counters.deltas <- c.Counters.deltas + 1;
            c.Counters.timesteps <- c.Counters.timesteps + 1;
            while (not (Pq.is_empty t.timed)) && Pq.min_key t.timed = next do
              let ev = Pq.pop_value t.timed in
              c.Counters.timed_notifies <- c.Counters.timed_notifies + 1;
              fire ev
            done;
            (match prof with
            | Some p -> p.pr_notify <- p.pr_notify +. (p.pr_clock () -. p.pr_mark)
            | None -> ());
            cycle ()
          end
        end
      end
    end
  in
  cycle ();
  match prof with
  | Some p -> p.pr_run <- p.pr_run +. (p.pr_clock () -. t_run)
  | None -> ()

let stats t =
  Printf.sprintf "time=%dps deltas=%d processes=%d suspended=%d" (Time.to_ps t.time)
    t.ctrs.Counters.deltas t.next_pid t.suspended
