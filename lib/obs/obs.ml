(* Observability layer over the simulation kernel: counter snapshots plus
   optional phase timings, with text/JSON renderers in the house Diag
   style.  The kernel's counters are always-on plain int bumps; only the
   phase clock (armed per run by [System.timed_run]) costs anything, so a
   snapshot can be taken from any finished run. *)

module Kernel = Hlcs_engine.Kernel
module Time = Hlcs_engine.Time
module Json = Hlcs_json.Json

type snapshot = {
  sn_label : string;
  sn_sim_time : Time.t;
  sn_wall_seconds : float option;  (** [None] when the run was not timed *)
  sn_counters : Kernel.Counters.t;  (** a private copy, safe to keep *)
  sn_phases : Kernel.phase_times option;  (** [Some] iff profiling was on *)
  sn_extras : (string * int) list;
      (** extra integer gauges from layers above the kernel (e.g. a
          sweep's synthesis-cache hits); merged by summing per name, except
          the RTL engine's per-design gauges, which take the max *)
}

let snapshot ?(label = "sim") ?wall_seconds kernel =
  {
    sn_label = label;
    sn_sim_time = Kernel.now kernel;
    sn_wall_seconds = wall_seconds;
    sn_counters = Kernel.counters_snapshot kernel;
    sn_phases = Kernel.phase_times kernel;
    sn_extras = [];
  }

let with_extras sn extras = { sn with sn_extras = sn.sn_extras @ extras }

(* counter name, accessor, one-line meaning — the glossary drives both
   renderers so the documented names cannot drift from the output *)
let counter_fields :
    (string * (Kernel.Counters.t -> int) * string) list =
  let open Kernel.Counters in
  [
    ("deltas", (fun c -> c.deltas), "delta cycles executed (evaluate/update rounds)");
    ("timesteps", (fun c -> c.timesteps), "distinct simulation-time advances");
    ("activations", (fun c -> c.activations), "process activations (thread resumes + method calls)");
    ("updates", (fun c -> c.updates), "update-phase commit callbacks run");
    ("immediate_notifies", (fun c -> c.immediate_notifies), "notify_immediate calls");
    ("delta_notifies", (fun c -> c.delta_notifies), "events scheduled for the next delta");
    ("timed_notifies", (fun c -> c.timed_notifies), "timed events fired from the event queue");
    ("signal_writes", (fun c -> c.signal_writes), "Signal.write calls");
    ("signal_changes", (fun c -> c.signal_changes), "signal commits that changed the value");
    ("net_drives", (fun c -> c.net_drives), "resolved-net drive/release calls");
    ("net_changes", (fun c -> c.net_changes), "resolved-net commits that changed the value");
    ("peak_runnable", (fun c -> c.peak_runnable), "peak runnable-queue depth at a delta boundary");
    ("peak_timed", (fun c -> c.peak_timed), "peak timed-event-queue depth");
  ]

let glossary = List.map (fun (n, _, d) -> (n, d)) counter_fields

(* extras are free-form gauges, but the ones the stock tooling attaches
   deserve the same documentation discipline as the kernel counters *)
let known_extras =
  [
    ("synth_cache_hits", "synthesis requests served from the in-memory report cache");
    ("synth_cache_misses", "synthesis requests that had to plan, resolve units and link");
    ("synth_cache_disk_hits", "synthesis reports loaded from the on-disk cache tier");
    ("synth_units_total", "synthesis units resolved while serving cache misses");
    ("synth_units_reused", "units whose netlist fragment was reused from the fragment cache");
    ("synth_units_rebuilt", "units actually resynthesised (the dirty cone of the edit)");
  ]

(* --- aggregation ------------------------------------------------------ *)

(* Counters accumulate work (sum across runs); the two [peak_*] fields are
   high-water marks (max).  Phase times and wall clocks are durations and
   sum; [None] on one side means "not measured there" and the other side's
   figure is kept. *)
let merge_counters (a : Kernel.Counters.t) (b : Kernel.Counters.t) :
    Kernel.Counters.t =
  let open Kernel.Counters in
  {
    deltas = a.deltas + b.deltas;
    timesteps = a.timesteps + b.timesteps;
    activations = a.activations + b.activations;
    updates = a.updates + b.updates;
    immediate_notifies = a.immediate_notifies + b.immediate_notifies;
    delta_notifies = a.delta_notifies + b.delta_notifies;
    timed_notifies = a.timed_notifies + b.timed_notifies;
    signal_writes = a.signal_writes + b.signal_writes;
    signal_changes = a.signal_changes + b.signal_changes;
    net_drives = a.net_drives + b.net_drives;
    net_changes = a.net_changes + b.net_changes;
    peak_runnable = max a.peak_runnable b.peak_runnable;
    peak_timed = max a.peak_timed b.peak_timed;
  }

let merge_option f a b =
  match (a, b) with
  | None, other | other, None -> other
  | Some x, Some y -> Some (f x y)

let merge_phases (a : Kernel.phase_times) (b : Kernel.phase_times) :
    Kernel.phase_times =
  {
    Kernel.pt_evaluate = a.Kernel.pt_evaluate +. b.Kernel.pt_evaluate;
    pt_update = a.Kernel.pt_update +. b.Kernel.pt_update;
    pt_notify = a.Kernel.pt_notify +. b.Kernel.pt_notify;
    pt_run = a.Kernel.pt_run +. b.Kernel.pt_run;
  }

(* the RTL engine's per-design gauges: every job of a sweep reports its
   own netlist's figure, so a merge keeps the largest instead of adding *)
let peak_extras = [ "rtl_levels"; "rtl_nodes"; "rtl_cone_max" ]

let merge_extras a b =
  (* sum (or max) per name, keeping first-appearance order across both
     lists *)
  List.fold_left
    (fun acc (name, v) ->
      let combine = if List.mem name peak_extras then max else ( + ) in
      if List.mem_assoc name acc then
        List.map (fun (n, x) -> if n = name then (n, combine x v) else (n, x)) acc
      else acc @ [ (name, v) ])
    a b

let merge a b =
  {
    sn_label = a.sn_label;
    sn_sim_time = Time.add a.sn_sim_time b.sn_sim_time;
    sn_wall_seconds = merge_option ( +. ) a.sn_wall_seconds b.sn_wall_seconds;
    sn_counters = merge_counters a.sn_counters b.sn_counters;
    sn_phases = merge_option merge_phases a.sn_phases b.sn_phases;
    sn_extras = merge_extras a.sn_extras b.sn_extras;
  }

let merge_all ~label = function
  | [] -> None
  | first :: rest ->
      Some { (List.fold_left merge first rest) with sn_label = label }

let phase_fields (p : Kernel.phase_times) =
  [
    ("evaluate", p.Kernel.pt_evaluate);
    ("update", p.Kernel.pt_update);
    ("notify", p.Kernel.pt_notify);
    ("run", p.Kernel.pt_run);
  ]

(* --- rendering -------------------------------------------------------- *)

(* [wall:false] omits every host-time figure (wall clock and phase times),
   leaving only the deterministic counters: the mode CLI diff tests rely
   on *)

let render_text ?(wall = true) sn =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "profile of %s: %s simulated" sn.sn_label
       (Format.asprintf "%a" Time.pp sn.sn_sim_time));
  (match sn.sn_wall_seconds with
  | Some w when wall -> Buffer.add_string buf (Printf.sprintf ", %.4fs wall" w)
  | Some _ | None -> ());
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, get, doc) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %10d  %s\n" name (get sn.sn_counters) doc))
    counter_fields;
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "  %-20s %10d\n" name v))
    sn.sn_extras;
  (match sn.sn_phases with
  | Some p when wall ->
      Buffer.add_string buf "phase times:\n";
      List.iter
        (fun (name, secs) ->
          Buffer.add_string buf (Printf.sprintf "  %-20s %9.4fs\n" name secs))
        (phase_fields p)
  | Some _ | None -> ());
  Buffer.contents buf

let to_json ?(wall = true) sn =
  let ints l = Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) l) in
  let counters = List.map (fun (name, get, _) -> (name, get sn.sn_counters)) counter_fields in
  Json.Obj
    ([
       ("label", Json.String sn.sn_label);
       ("sim_time_ps", Json.Int (Time.to_ps sn.sn_sim_time));
       ("counters", ints counters);
     ]
    @ (if sn.sn_extras = [] then [] else [ ("extras", ints sn.sn_extras) ])
    @ (match sn.sn_wall_seconds with
      | Some w when wall -> [ ("wall_seconds", Json.Float w) ]
      | Some _ | None -> [])
    @
    match sn.sn_phases with
    | Some p when wall ->
        [
          ( "phase_seconds",
            Json.Obj (List.map (fun (name, secs) -> (name, Json.Float secs)) (phase_fields p)) );
        ]
    | Some _ | None -> [])
