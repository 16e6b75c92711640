(* Per-layer metrics of a traced run.  Every workload reports every name
   in [catalogue], so one summary-line schema serves all four; a layer a
   workload does not exercise reads 0, and only counts and ratios can be
   such a layer — every time figure is measured on all four workloads. *)

module System = Hlcs_interface.System
module Obs = Hlcs_obs.Obs
module Synth_cache = Hlcs_synth.Synth_cache

(* kernel figures summed over the runs of one configuration *)
type kstats = {
  mutable cycles : int;
  mutable deltas : int;
  mutable activations : int;
  mutable evaluate : float;
  mutable update : float;
  mutable notify : float;
  extras : (string, int) Hashtbl.t;
}

let kstats () =
  {
    cycles = 0;
    deltas = 0;
    activations = 0;
    evaluate = 0.;
    update = 0.;
    notify = 0.;
    extras = Hashtbl.create 16;
  }

let add_run k (rr : System.run_report) =
  k.cycles <- k.cycles + rr.System.rr_cycles;
  k.deltas <- k.deltas + rr.System.rr_deltas;
  match rr.System.rr_profile with
  | None -> ()
  | Some sn ->
      k.activations <- k.activations + sn.Obs.sn_counters.Hlcs_engine.Kernel.Counters.activations;
      (match sn.Obs.sn_phases with
      | Some p ->
          k.evaluate <- k.evaluate +. p.Hlcs_engine.Kernel.pt_evaluate;
          k.update <- k.update +. p.Hlcs_engine.Kernel.pt_update;
          k.notify <- k.notify +. p.Hlcs_engine.Kernel.pt_notify
      | None -> ());
      List.iter
        (fun (name, v) ->
          Hashtbl.replace k.extras name (v + Option.value ~default:0 (Hashtbl.find_opt k.extras name)))
        sn.Obs.sn_extras

let extra k name = Option.value ~default:0 (Hashtbl.find_opt k.extras name)

type t = {
  tr : Spans.t;
  pin : kstats;
  rtl : kstats;
  hung : kstats;  (** runs that reached the simulation watchdog *)
  mutable flows : int;  (** flow jobs traced: the per-flow denominator *)
  mutable units_rebuilt : int;
  mutable units_reused : int;
  mutable units_flows : int;  (** flows behind the unit counters *)
  mutable cache_entries : int;  (** largest cache a round ended with *)
  mutable job_work : float list;  (** seconds of work per flow job *)
  mutable result_bytes : int;
  mutable renders : int;
  extra : (string, float) Hashtbl.t;  (** catalogue figures only some workloads have *)
  mutable details : (string * string * float) list;
      (** name, unit, value of figures outside the catalogue, newest first *)
}

let create () =
  {
    tr = Spans.create ();
    pin = kstats ();
    rtl = kstats ();
    hung = kstats ();
    flows = 0;
    units_rebuilt = 0;
    units_reused = 0;
    units_flows = 0;
    cache_entries = 0;
    job_work = [];
    result_bytes = 0;
    renders = 0;
    extra = Hashtbl.create 8;
    details = [];
  }

let set t name v = Hashtbl.replace t.extra name v
let detail t name unit_ v = t.details <- (name, unit_, v) :: t.details

(* a traced flow's runs: TLM, pin-level, RTL *)
let add_flow t (runs : System.run_report list) =
  t.flows <- t.flows + 1;
  match runs with
  | [ _; pin; rtl ] ->
      add_run t.pin pin;
      add_run t.rtl rtl
  | _ -> ()

(* the unit counters and size of a cache that served [flows] flows *)
let add_cache t ~flows cache =
  let st = Synth_cache.stats cache in
  t.units_rebuilt <- t.units_rebuilt + st.Synth_cache.units_rebuilt;
  t.units_reused <- t.units_reused + st.Synth_cache.units_reused;
  t.units_flows <- t.units_flows + flows;
  t.cache_entries <- max t.cache_entries (Synth_cache.size cache)

(* name, unit, which way is better, what it is; BENCHMARK.json lists the
   same metrics *)
let catalogue =
  [
    ("analysis.ms", "ms", "lower", "Analyze.design self time per flow");
    ("tlm.ms", "ms", "lower", "System.tlm self time per flow");
    ("pin.ms", "ms", "lower", "System.pin self time per flow (kernel + PCI fabric)");
    ("synth.ms", "ms", "lower", "Synth_cache.synthesize self time per flow");
    ("netlist_check.ms", "ms", "lower", "Analyze.rtl self time per flow");
    ("rtl.ms", "ms", "lower", "System.rtl self time per flow (levelized sim + kernel)");
    ("check.ms", "ms", "lower", "System.compare_runs/compare_bus_traces per flow");
    ("pin.evaluate_ms", "ms", "lower", "pin-level kernel evaluate phase per flow");
    ("pin.update_ms", "ms", "lower", "pin-level kernel update phase per flow");
    ("pin.notify_ms", "ms", "lower", "pin-level kernel notify phase per flow");
    ("rtl.evaluate_ms", "ms", "lower", "RTL kernel evaluate phase per flow");
    ("rtl.update_ms", "ms", "lower", "RTL kernel update phase per flow");
    ("rtl.notify_ms", "ms", "lower", "RTL kernel notify phase per flow");
    ("pin.cycles", "count", "lower", "pin-level clock cycles per flow");
    ("pin.deltas_per_cycle", "ratio", "lower", "pin-level delta cycles per clock cycle");
    ("pin.activations_per_cycle", "ratio", "lower", "pin-level process activations per clock cycle");
    ("rtl.cycles", "count", "lower", "RTL clock cycles per flow");
    ("rtl.deltas_per_cycle", "ratio", "lower", "RTL delta cycles per clock cycle");
    ("rtl.nodes_evaluated_per_cycle", "ratio", "lower", "netlist nodes evaluated per RTL cycle");
    ("rtl.settles_per_cycle", "ratio", "lower", "netlist settles per RTL cycle");
    ("rtl.eval_ratio", "ratio", "lower", "nodes evaluated over evaluated + skipped");
    ("rtl.cycles_per_s", "1/s", "higher", "RTL cycles per second of System.rtl");
    ("synth.units_rebuilt", "count", "lower", "synthesis units resynthesised per flow");
    ("synth.units_reused", "count", "higher", "synthesis units reused from the fragment tier per flow");
    ("synth.cache_entries", "count", "lower", "report entries in the largest synthesis cache of the run");
    ("synth.plan_ms", "ms", "lower", "Synthesize.plan per replayed synthesis");
    ("synth.unit_ms", "ms", "lower", "Synthesize.synthesize_unit per replayed synthesis");
    ("synth.link_ms", "ms", "lower", "Synthesize.link_plan per replayed synthesis");
    ("job.decode_ms", "ms", "lower", "Protocol.request_of_string + Job.of_json per operation");
    ("job.render_ms", "ms", "lower", "Job.render_json per operation");
    ("job.result_bytes", "bytes", "lower", "rendered result size per operation");
    ("job.p50_ms", "ms", "lower", "median work of one flow job");
    ("pool.efficiency", "ratio", "higher", "flow-job work over worker wall time");
    ("serve.wait_share", "ratio", "lower", "queue wait (submit to started) over job latency");
    ("swarm.watchdog_jobs", "count", "lower", "swarm jobs per campaign that reached the watchdog");
    ("swarm.watchdog_share", "ratio", "lower", "share of swarm job time in watchdog-bound jobs");
    ("swarm.coverage_share", "ratio", "lower", "coverage sampling over swarm job time");
    ("swarm.schedule_share", "ratio", "lower", "Swarm.run outside run_batch over campaign time");
    ("hung.deltas_per_cycle", "ratio", "lower", "delta cycles per clock cycle of watchdog-bound runs");
    ("hung.activations_per_cycle", "ratio", "lower", "activations per clock cycle of watchdog-bound runs");
    ("trace.overhead_pct", "%", "lower", "traced over untraced median operation latency, minus 1");
  ]

let what name =
  Option.map (fun (_, _, _, w) -> w) (List.find_opt (fun (n, _, _, _) -> n = name) catalogue)

let metrics t =
  let spans = Spans.spans t.tr in
  let self = Spans.self_by_name spans in
  let self_s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let ms_per_flow name = per t.flows (self_s name) *. 1e3 in
  let replays = Spans.count_by_name spans "synth.replay" in
  let ms_per_span name = per (Spans.count_by_name spans name) (self_s name) *. 1e3 in
  let rtl_time = Spans.total_by_name spans "rtl" in
  let values =
    [
      ("analysis.ms", ms_per_flow "analysis");
      ("tlm.ms", ms_per_flow "tlm");
      ("pin.ms", ms_per_flow "pin");
      ("synth.ms", ms_per_flow "synth");
      ("netlist_check.ms", ms_per_flow "netlist_check");
      ("rtl.ms", ms_per_flow "rtl");
      ("check.ms", ms_per_flow "check");
      ("pin.evaluate_ms", per t.flows t.pin.evaluate *. 1e3);
      ("pin.update_ms", per t.flows t.pin.update *. 1e3);
      ("pin.notify_ms", per t.flows t.pin.notify *. 1e3);
      ("rtl.evaluate_ms", per t.flows t.rtl.evaluate *. 1e3);
      ("rtl.update_ms", per t.flows t.rtl.update *. 1e3);
      ("rtl.notify_ms", per t.flows t.rtl.notify *. 1e3);
      ("pin.cycles", per t.flows (float_of_int t.pin.cycles));
      ("pin.deltas_per_cycle", ratio t.pin.deltas t.pin.cycles);
      ("pin.activations_per_cycle", ratio t.pin.activations t.pin.cycles);
      ("rtl.cycles", per t.flows (float_of_int t.rtl.cycles));
      ("rtl.deltas_per_cycle", ratio t.rtl.deltas t.rtl.cycles);
      ("rtl.nodes_evaluated_per_cycle", ratio (extra t.rtl "rtl_nodes_evaluated") t.rtl.cycles);
      ("rtl.settles_per_cycle", ratio (extra t.rtl "rtl_settles") t.rtl.cycles);
      ( "rtl.eval_ratio",
        ratio (extra t.rtl "rtl_nodes_evaluated")
          (extra t.rtl "rtl_nodes_evaluated" + extra t.rtl "rtl_nodes_skipped") );
      ("rtl.cycles_per_s", if rtl_time > 0. then float_of_int t.rtl.cycles /. rtl_time else 0.);
      ("synth.units_rebuilt", per t.units_flows (float_of_int t.units_rebuilt));
      ("synth.units_reused", per t.units_flows (float_of_int t.units_reused));
      ("synth.cache_entries", float_of_int t.cache_entries);
      ("synth.plan_ms", per replays (self_s "synth.plan") *. 1e3);
      ("synth.unit_ms", per replays (self_s "synth.unit") *. 1e3);
      ("synth.link_ms", per replays (self_s "synth.link") *. 1e3);
      ("job.decode_ms", ms_per_span "job.decode");
      ("job.render_ms", ms_per_span "job.render");
      ("job.result_bytes", per t.renders (float_of_int t.result_bytes));
      ("job.p50_ms", Stats.median t.job_work *. 1e3);
      ("hung.deltas_per_cycle", ratio t.hung.deltas t.hung.cycles);
      ("hung.activations_per_cycle", ratio t.hung.activations t.hung.cycles);
    ]
  in
  List.map
    (fun (name, unit_, _, _) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> Option.value ~default:0. (Hashtbl.find_opt t.extra name)
      in
      (name, unit_, v))
    catalogue
