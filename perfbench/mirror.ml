(* The traced run's view of a flow and of a swarm campaign.

   [Flow.execute] and [Sweep.swarm] are single calls, so their layers are
   invisible from outside.  This module repeats their bodies as separate
   calls to the same public functions, each inside a span.  The traced run
   checks that the mirror agrees with the library path it mirrors: same
   simulated fingerprint for flows, same coverage bins for campaigns. *)

module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Synthesize = Hlcs_synth.Synthesize
module Synth_cache = Hlcs_synth.Synth_cache
module Analyze = Hlcs_analysis.Analyze
module Fault = Hlcs_fault.Fault
module Monitor = Hlcs_verify.Monitor
module Coverage = Hlcs_verify.Coverage
module Pci_coverage = Hlcs_verify.Pci_coverage
module Swarm = Hlcs_verify.Swarm
module Pci_stim = Hlcs_pci.Pci_stim
module Pool = Hlcs_runtime.Pool

type flow = {
  ok : bool;
  design : Hlcs_hlir.Ast.design;
  runs : System.run_report list;  (** TLM, pin, RTL; [] if analysis failed *)
  verdict : Fault.verdict option;
}

let monitor_clean (rr : System.run_report) =
  match rr.System.rr_monitor with
  | Some m -> m.Monitor.mr_violations = []
  | None -> true

(* Flow.execute without the optional equivalence stage *)
let flow tr ~(config : Run_config.t) ~script =
  let span name f = Spans.span tr name f in
  let design =
    span "design" (fun () ->
        Hlcs_interface.Pci_master_design.design ?policy:config.Run_config.rc_policy
          ~app:script ())
  in
  if not (Analyze.clean (span "analysis" (fun () -> Analyze.design design))) then
    { ok = false; design; runs = []; verdict = None }
  else
    let tlm = span "tlm" (fun () -> System.tlm config ~script) in
    let pin = span "pin" (fun () -> System.pin config ~script) in
    let synthesis =
      span "synth" (fun () ->
          let options = config.Run_config.rc_synth_options in
          match config.Run_config.rc_cache with
          | Some c -> Synth_cache.synthesize c ?options design
          | None -> Synthesize.synthesize ?options design)
    in
    let netlist_ok =
      span "netlist_check" (fun () ->
          Analyze.clean (Analyze.rtl synthesis.Synthesize.rp_rtl))
    in
    let rtl = span "rtl" (fun () -> System.rtl config ~script) in
    let refinement, consistency =
      span "check" (fun () ->
          ( System.compare_runs tlm pin,
            System.compare_runs pin rtl @ System.compare_bus_traces pin rtl ))
    in
    let verdict =
      if Fault.is_empty config.Run_config.rc_faults then None
      else
        let stats =
          match List.filter_map (fun (rr : System.run_report) -> rr.System.rr_fault) [ tlm; pin; rtl ] with
          | [] -> Fault.stats ()
          | first :: rest -> List.fold_left Fault.merge_stats first rest
        in
        Some
          (Fault.classify ~plan:config.Run_config.rc_faults ~spec_vs_synth:consistency
             ~tlm_vs_spec:refinement stats)
    in
    let clean (rr : System.run_report) = rr.System.rr_violations = [] && monitor_clean rr in
    let ok =
      netlist_ok
      &&
      match verdict with
      | Some v -> Fault.verdict_ok v
      | None -> refinement = [] && consistency = [] && clean pin && clean rtl
    in
    { ok; design; runs = [ tlm; pin; rtl ]; verdict }

(* Replays the synthesis of [design] unit by unit against a fragment table
   the benchmark holds, so plan, unit synthesis and link get spans of
   their own.  Runs outside the flow's span. *)
let replay_synthesis tr table ?options design =
  Spans.span tr "synth.replay" (fun () ->
      let pl = Spans.span tr "synth.plan" (fun () -> Synthesize.plan ?options design) in
      let frags =
        List.map
          (fun (u : Synthesize.plan_unit) ->
            match Hashtbl.find_opt table u.Synthesize.u_signature with
            | Some f -> f
            | None ->
                let f =
                  Spans.span tr "synth.unit" (fun () ->
                      Synthesize.synthesize_unit pl.Synthesize.pl_options u.Synthesize.u_decl)
                in
                Hashtbl.replace table u.Synthesize.u_signature f;
                f)
          pl.Synthesize.pl_units
      in
      ignore (Spans.span tr "synth.link" (fun () -> Synthesize.link_plan pl frags)))

(* --- Sweep.swarm in flow mode ------------------------------------------ *)

let monitor_counts (reports : Monitor.report list) =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (r : Monitor.report) ->
      List.iter
        (fun (v : Monitor.violation) ->
          let m = v.Monitor.vl_monitor in
          Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m)))
        r.Monitor.mr_violations)
    reports;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let coverage ~(monitors : Monitor.spec list) txs verdict (reports : Monitor.report list) =
  let cov = Coverage.create () in
  let fm = Pci_coverage.full_model cov in
  List.iter (Pci_coverage.sample_full fm) txs;
  let vp = Coverage.point cov ~name:"verdict" ~bins:Hlcs.Sweep.verdict_bins in
  Coverage.hit vp verdict;
  (if monitors <> [] then
     let mp =
       Coverage.point cov ~name:"monitor"
         ~bins:(List.map (fun (s : Monitor.spec) -> s.Monitor.sp_name) monitors)
     in
     List.iter
       (fun (r : Monitor.report) ->
         List.iter
           (fun (v : Monitor.violation) -> Coverage.hit mp v.Monitor.vl_monitor)
           r.Monitor.mr_violations)
       reports);
  cov

type swarm_job = {
  sj_design : Hlcs_hlir.Ast.design;
  sj_runs : System.run_report list;
  sj_hung : System.run_report list;  (** runs that reached the watchdog *)
  sj_wall : float;
}

(* [Sweep.swarm ~mode:`Flow] with its defaults (512-byte memory, FCFS,
   default target timing, the stock monitors), profiled.  Returns the
   campaign report, per-job run reports (with the runs that reached the
   watchdog) and the campaign's synthesis cache. *)
let swarm tr ~jobs ~base_seed ~count ~fault_seed ~max_time (config : Swarm.config) =
  let mem_bytes = 512 in
  let cache = Synth_cache.create ~disk:`Memory () in
  let monitors = System.pci_monitor_specs in
  let lock = Mutex.create () in
  let infos = ref [] in
  let label_of (job : Swarm.job) =
    Printf.sprintf "%02d-%s#%d" job.Swarm.jb_seq
      (List.nth Fault.families job.Swarm.jb_family)
      job.Swarm.jb_index
  in
  let run_one parent (job : Swarm.job) =
    let t0 = Unix.gettimeofday () in
    Spans.span tr ~parent "swarm.job" (fun () ->
        let _, plan =
          Fault.family_scenario ~seed:fault_seed ~family:job.Swarm.jb_family job.Swarm.jb_index
        in
        let seed = base_seed + (7 * job.Swarm.jb_index) + job.Swarm.jb_family in
        let script =
          Pci_stim.write_then_read_all
            (Pci_stim.random ~seed ~count ~base:0 ~size_bytes:mem_bytes ())
        in
        let config =
          Run_config.make ~mem_bytes ~policy:Hlcs_osss.Policy.Fcfs
            ~target:Hlcs_pci.Pci_target.default_config ~max_time ~cache ~faults:plan
            ~monitors ~profile:true ()
        in
        let fr = flow tr ~config ~script in
        let txs, mon =
          match fr.runs with
          | [ _; pin; rtl ] ->
              ( pin.System.rr_transactions,
                List.filter_map (fun (rr : System.run_report) -> rr.System.rr_monitor) [ pin; rtl ] )
          | _ -> ([], [])
        in
        let verdict =
          match fr.verdict with Some v -> Fault.verdict_label v | None -> "clean"
        in
        let cov = Spans.span tr "swarm.coverage" (fun () -> coverage ~monitors txs verdict mon) in
        let hung =
          List.filter
            (fun (rr : System.run_report) ->
              Hlcs_engine.Time.compare rr.System.rr_sim_time max_time >= 0)
            fr.runs
        in
        let info =
          {
            sj_design = fr.design;
            sj_runs = fr.runs;
            sj_hung = hung;
            sj_wall = Unix.gettimeofday () -. t0;
          }
        in
        Mutex.protect lock (fun () -> infos := info :: !infos);
        {
          Swarm.oc_label = label_of job;
          oc_coverage = cov;
          oc_verdict = Some verdict;
          oc_monitor = monitor_counts mon;
          oc_failure = None;
        })
  in
  let run_batch batch =
    Spans.span tr "swarm.batch" (fun () ->
        let parent = Spans.current () in
        let items = Array.of_list batch in
        Pool.map ~jobs (run_one parent) items
        |> Array.to_list
        |> List.mapi (fun i -> function
             | Pool.Done oc -> oc
             | Pool.Failed f ->
                 {
                   Swarm.oc_label = label_of items.(i);
                   oc_coverage = Coverage.create ();
                   oc_verdict = None;
                   oc_monitor = [];
                   oc_failure = Some f.Pool.f_exn;
                 }))
  in
  let report =
    Spans.span tr "swarm.campaign" (fun () ->
        Swarm.run config ~families:(Hlcs.Sweep.swarm_families ()) ~run_batch)
  in
  (report, !infos, cache)
