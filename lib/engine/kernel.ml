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
   while refills land in the other, with no per-cycle list building. *)

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
  mp_proc : proc;
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

type trigger = On_events of event list | For_time of Time.t

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
    Some { pr_clock = clock; pr_evaluate = 0.; pr_update = 0.; pr_notify = 0.; pr_run = 0. }

let disable_profiling t = t.profile <- None

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
   notifications within one firing window coalesce into one activation. *)
let fire ev =
  (match ev.waiters with
  | [] -> ()
  | ws ->
      ev.waiters <- [];
      let wake w =
        if not w.fired then begin
          w.fired <- true;
          Fifo.push ev.owner.runnable w.resume
        end
      in
      List.iter wake ws);
  match ev.methods with
  | [] -> ()
  | ms ->
      List.iter
        (fun m ->
          if not m.mp_queued then begin
            m.mp_queued <- true;
            Fifo.push ev.owner.runnable m.mp_step
          end)
        ms

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

let register_waiter t proc trigger k =
  let resume () =
    t.current <- Some proc;
    t.suspended <- t.suspended - 1;
    Effect.Deep.continue k ()
  in
  let w = { fired = false; resume } in
  t.suspended <- t.suspended + 1;
  match trigger with
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
  let proc = { pid; pname = name } in
  let step () =
    t.current <- Some proc;
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = (fun e -> raise (Process_failure (proc.pname, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend trigger ->
                Some
                  (fun (k : (a, _) continuation) -> register_waiter t proc trigger k)
            | _ -> None);
      }
  in
  Fifo.push t.runnable step;
  pid

let spawn_method t ?(name = "method") ~sensitive body =
  if sensitive = [] then invalid_arg "Kernel.spawn_method: empty sensitivity list";
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = { pid; pname = name } in
  let rec m =
    {
      mp_proc = proc;
      mp_queued = true;
      mp_step =
        (fun () ->
          t.current <- Some m.mp_proc;
          t.suspended <- t.suspended - 1;
          (try body () with e -> raise (Process_failure (m.mp_proc.pname, e)));
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

let wait ev = Effect.perform (Suspend (On_events [ ev ]))
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

(* The scheduler loop exists twice: the plain variant below carries no
   phase-timing reads at all, so a disabled profiler costs literally zero
   instructions on the hot path; the profiled variant (chosen once per
   [run] call) brackets each phase with the injected clock. *)
let run_plain ?max_time t =
  let within_horizon time =
    match max_time with None -> true | Some m -> Time.compare time m <= 0
  in
  let c = t.ctrs in
  let rec cycle () =
    if not t.stop then begin
      (* evaluate *)
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
      if not t.stop then begin
        (* update: drain the front buffer; commits scheduled while it runs
           land in the swapped-in back buffer, i.e. the next delta *)
        let us = t.updates in
        t.updates <- t.updates_back;
        t.updates_back <- us;
        let n = Vec.length us in
        c.Counters.updates <- c.Counters.updates + n;
        for i = 0 to n - 1 do
          (Vec.get us i) ()
        done;
        Vec.clear us;
        (* delta notify *)
        if not (Vec.is_empty t.delta_events) then begin
          c.Counters.deltas <- c.Counters.deltas + 1;
          run_delta_notifications t;
          cycle ()
        end
        else if not (Fifo.is_empty t.runnable) then cycle ()
        else if Pq.is_empty t.timed then ()
        else begin
          let next = Pq.min_key t.timed in
          if within_horizon next then begin
            t.time <- next;
            c.Counters.deltas <- c.Counters.deltas + 1;
            c.Counters.timesteps <- c.Counters.timesteps + 1;
            while (not (Pq.is_empty t.timed)) && Pq.min_key t.timed = next do
              let _, ev = Pq.pop t.timed in
              c.Counters.timed_notifies <- c.Counters.timed_notifies + 1;
              fire ev
            done;
            cycle ()
          end
        end
      end
    end
  in
  cycle ()

let run_profiled ?max_time t (p : prof) =
  let within_horizon time =
    match max_time with None -> true | Some m -> Time.compare time m <= 0
  in
  let c = t.ctrs in
  let prof_now () = p.pr_clock () in
  let t_run = prof_now () in
  let rec cycle () =
    if not t.stop then begin
      (* evaluate *)
      let t0 = prof_now () in
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
      p.pr_evaluate <- p.pr_evaluate +. (prof_now () -. t0);
      if not t.stop then begin
        (* update: drain the front buffer; commits scheduled while it runs
           land in the swapped-in back buffer, i.e. the next delta *)
        let t1 = prof_now () in
        let us = t.updates in
        t.updates <- t.updates_back;
        t.updates_back <- us;
        let n = Vec.length us in
        c.Counters.updates <- c.Counters.updates + n;
        for i = 0 to n - 1 do
          (Vec.get us i) ()
        done;
        Vec.clear us;
        p.pr_update <- p.pr_update +. (prof_now () -. t1);
        (* delta notify *)
        if not (Vec.is_empty t.delta_events) then begin
          let t2 = prof_now () in
          c.Counters.deltas <- c.Counters.deltas + 1;
          run_delta_notifications t;
          p.pr_notify <- p.pr_notify +. (prof_now () -. t2);
          cycle ()
        end
        else if not (Fifo.is_empty t.runnable) then cycle ()
        else if Pq.is_empty t.timed then ()
        else begin
          let next = Pq.min_key t.timed in
          if within_horizon next then begin
            let t2 = prof_now () in
            t.time <- next;
            c.Counters.deltas <- c.Counters.deltas + 1;
            c.Counters.timesteps <- c.Counters.timesteps + 1;
            while (not (Pq.is_empty t.timed)) && Pq.min_key t.timed = next do
              let _, ev = Pq.pop t.timed in
              c.Counters.timed_notifies <- c.Counters.timed_notifies + 1;
              fire ev
            done;
            p.pr_notify <- p.pr_notify +. (prof_now () -. t2);
            cycle ()
          end
        end
      end
    end
  in
  cycle ();
  p.pr_run <- p.pr_run +. (prof_now () -. t_run)

let run ?max_time t =
  match t.profile with
  | Some p -> run_profiled ?max_time t p
  | None -> run_plain ?max_time t

let stats t =
  Printf.sprintf "time=%dps deltas=%d processes=%d suspended=%d" (Time.to_ps t.time)
    t.ctrs.Counters.deltas t.next_pid t.suspended
