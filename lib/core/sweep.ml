(* Batch sweeps: one Flow.execute per scenario, farmed over a domain pool,
   with one shared synthesis cache.

   Job isolation discipline: everything a job touches is created inside
   the job (kernels, clocks, memories, VCD writers on per-job paths); the
   only shared structures are the input scenario array (immutable), the
   synthesis cache (mutex-protected, stores immutable reports) and the
   pool's result slots (one writer each).  That is the entire argument
   for determinism: no job can observe another job's schedule, so the
   domain count is invisible in every artefact.  Fault injection keeps
   the property: every perturbation is a deterministic function of the
   scenario's plan, which lives in the immutable input array. *)

module Pool = Hlcs_runtime.Pool
module Synth_cache = Hlcs_synth.Synth_cache
module Policy = Hlcs_osss.Policy
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target
module Fault = Hlcs_fault.Fault
module Obs = Hlcs_obs.Obs
module Json = Hlcs_json.Json
module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config

type scenario = {
  sc_name : string;
  sc_seed : int;
  sc_mem_seed : int;
  sc_count : int;
  sc_mem_bytes : int;
  sc_policy : Policy.t;
  sc_target : Pci_target.config;
  sc_faults : Fault.plan;
}

(* The two sweep axes differ in what they cost downstream.  The request
   script is compiled *into* the unit under design (the application
   process replays it), so varying [sc_seed] varies the design and every
   job pays one synthesis.  The memory-fill seed is pure environment —
   the design is untouched — so an [`Environment] sweep over n jobs
   synthesises once and hits that cache entry n - 1 times. *)
let scenarios ?(base_seed = 2004) ?(count = 12) ?(mem_bytes = 512)
    ?(policy = Policy.Fcfs) ?(target = Pci_target.default_config)
    ?(vary = `Environment) ~n () =
  List.init n (fun i ->
      {
        sc_name = Printf.sprintf "job%02d" i;
        sc_seed = (match vary with `Stimuli -> base_seed + i | `Environment -> base_seed);
        sc_mem_seed = (match vary with `Stimuli -> 42 | `Environment -> 42 + i);
        sc_count = count;
        sc_mem_bytes = mem_bytes;
        sc_policy = policy;
        sc_target = target;
        sc_faults = Fault.empty;
      })

(* The fault axis: one design, one environment, [n] seeded fault plans
   from [Fault.scenarios] (slot 0 is always the fault-free control). *)
let fault_scenarios ?(base_seed = 2004) ?(count = 12) ?(mem_bytes = 512)
    ?(policy = Policy.Fcfs) ?(target = Pci_target.default_config)
    ?(fault_seed = 7) ~n () =
  List.map
    (fun (name, plan) ->
      {
        sc_name = name;
        sc_seed = base_seed;
        sc_mem_seed = 42;
        sc_count = count;
        sc_mem_bytes = mem_bytes;
        sc_policy = policy;
        sc_target = target;
        sc_faults = plan;
      })
    (Fault.scenarios ~seed:fault_seed ~n)

type job_report = {
  jb_scenario : scenario;
  jb_ok : bool;
  jb_stages : (string * bool) list;
  jb_wall_seconds : float;
  jb_profile : Obs.snapshot option;
  jb_failure : string option;
  jb_verdict : Fault.verdict option;
}

type report = {
  sw_jobs : job_report list;
  sw_ok : bool;
  sw_domains : int;
  sw_wall_seconds : float;
  sw_cache : Synth_cache.stats option;
  sw_profile : Obs.snapshot option;
}

let failed_jobs r =
  List.filter (fun jb -> (not jb.jb_ok) || jb.jb_failure <> None) r.sw_jobs

let script_of sc =
  Pci_stim.write_then_read_all
    (Pci_stim.random ~seed:sc.sc_seed ~count:sc.sc_count ~base:0
       ~size_bytes:sc.sc_mem_bytes ())

let job_snapshots (fr : Flow.report) =
  match fr.Flow.fl_artefacts with
  | None -> []
  | Some a ->
      List.filter_map
        (fun (rr : System.run_report) -> rr.System.rr_profile)
        [ a.Flow.fl_tlm; a.Flow.fl_behavioural; a.Flow.fl_rtl ]

let run ?jobs ?chunk ?cache_handle (base : Run_config.t) ~scenarios =
  (* the jobs share one cache of the sweep's own (or [cache_handle]), never
     the base config's handle, so the report's cache statistics count this
     sweep alone; a base without a cache keeps every job cold *)
  let cache_handle =
    match (base.Run_config.rc_cache, cache_handle) with
    | None, _ -> None
    | Some _, (Some _ as h) -> h
    | Some _, None -> Some (Synth_cache.create ())
  in
  let vcd_dir = base.Run_config.rc_vcd_prefix in
  (match vcd_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | Some _ | None -> ());
  let run_one sc =
    let t0 = Unix.gettimeofday () in
    let config =
      {
        base with
        Run_config.rc_mem_bytes = sc.sc_mem_bytes;
        rc_mem_seed = sc.sc_mem_seed;
        rc_policy = Some sc.sc_policy;
        rc_target = sc.sc_target;
        rc_faults = sc.sc_faults;
        rc_vcd_prefix = Option.map (fun d -> Filename.concat d sc.sc_name) vcd_dir;
        rc_cache = cache_handle;
      }
    in
    let fr = Flow.execute config ~script:(script_of sc) in
    let wall = Unix.gettimeofday () -. t0 in
    {
      jb_scenario = sc;
      jb_ok = fr.Flow.fl_ok;
      jb_stages = List.map (fun s -> (s.Flow.sg_name, s.Flow.sg_ok)) fr.Flow.fl_stages;
      jb_wall_seconds = wall;
      jb_profile = Obs.merge_all ~label:sc.sc_name (job_snapshots fr);
      jb_failure = None;
      jb_verdict = fr.Flow.fl_verdict;
    }
  in
  let items = Array.of_list scenarios in
  let domains =
    let requested =
      match jobs with None -> Pool.recommended_jobs () | Some j -> j
    in
    max 1 (min requested (Array.length items))
  in
  let t0 = Unix.gettimeofday () in
  let outcomes = Pool.map ?jobs ?chunk run_one items in
  let sweep_wall = Unix.gettimeofday () -. t0 in
  let job_reports =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Pool.Done jb -> jb
           | Pool.Failed f ->
               {
                 jb_scenario = items.(i);
                 jb_ok = false;
                 jb_stages = [];
                 jb_wall_seconds = 0.;
                 jb_profile = None;
                 jb_failure = Some f.Pool.f_exn;
                 jb_verdict = None;
               })
         outcomes)
  in
  let cache_stats = Option.map Synth_cache.stats cache_handle in
  let merged =
    Obs.merge_all ~label:"sweep"
      (List.filter_map (fun jb -> jb.jb_profile) job_reports)
  in
  let merged =
    match (merged, cache_stats) with
    | Some sn, Some st ->
        Some
          (Obs.with_extras sn
             [
               ("synth_cache_hits", st.Synth_cache.hits);
               ("synth_cache_misses", st.Synth_cache.misses);
               ("synth_cache_disk_hits", st.Synth_cache.disk_hits);
               ("synth_units_total", st.Synth_cache.units_total);
               ("synth_units_reused", st.Synth_cache.units_reused);
               ("synth_units_rebuilt", st.Synth_cache.units_rebuilt);
             ])
    | other, _ -> other
  in
  {
    sw_jobs = job_reports;
    (* a job with a failure record can never pass the sweep, whatever its
       stage list or the merged snapshot look like *)
    sw_ok =
      List.for_all
        (fun jb -> jb.jb_ok && jb.jb_failure = None)
        job_reports;
    sw_domains = domains;
    sw_wall_seconds = sweep_wall;
    sw_cache = cache_stats;
    sw_profile = merged;
  }

(* --- coverage-guided swarm campaigns ---------------------------------- *)

module Swarm = Hlcs_verify.Swarm
module Coverage = Hlcs_verify.Coverage
module Pci_coverage = Hlcs_verify.Pci_coverage
module Monitor = Hlcs_verify.Monitor

let verdict_bins = [ "clean"; "survived"; "degraded"; "inconsistent" ]

let swarm_families () =
  List.map
    (fun name -> { Swarm.fam_name = name; Swarm.fam_tags = Fault.family_tags name })
    Fault.families

let monitor_counts reports =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (r : Monitor.report) ->
      List.iter
        (fun (v : Monitor.violation) ->
          let c = try Hashtbl.find tbl v.Monitor.vl_monitor with Not_found -> 0 in
          Hashtbl.replace tbl v.Monitor.vl_monitor (c + 1))
        r.Monitor.mr_violations)
    reports;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* One job's coverage snapshot: the crossed PCI transaction plan, the fault
   verdict lattice (flow mode only) and one bin per monitored property.
   Declaring the full shape in every job keeps the merged model's hole list
   meaningful from round one. *)
let swarm_coverage ~monitors ~with_verdict txs verdict mon_reports =
  let cov = Coverage.create () in
  let fm = Pci_coverage.full_model cov in
  List.iter (Pci_coverage.sample_full fm) txs;
  (if with_verdict then begin
     let vp = Coverage.point cov ~name:"verdict" ~bins:verdict_bins in
     match verdict with Some v -> Coverage.hit vp v | None -> ()
   end);
  (match monitors with
  | [] -> ()
  | monitor_specs ->
      let mp =
        Coverage.point cov ~name:"monitor"
          ~bins:(List.map (fun (s : Monitor.spec) -> s.Monitor.sp_name) monitor_specs)
      in
      List.iter
        (fun (r : Monitor.report) ->
          List.iter
            (fun (v : Monitor.violation) -> Coverage.hit mp v.Monitor.vl_monitor)
            r.Monitor.mr_violations)
        mon_reports);
  cov

let swarm ?jobs ?(mode = `Flow) ?(base_seed = 2004) ?(count = 12)
    ?(mem_bytes = 512) ?(policy = Policy.Fcfs) ?(target = Pci_target.default_config)
    ?(fault_seed = 1) ?(monitors = System.pci_monitor_specs) ?(cache = true)
    ?max_time (config : Swarm.config) () =
  let cache_handle = if cache then Some (Synth_cache.create ()) else None in
  let label_of (job : Swarm.job) =
    Printf.sprintf "%02d-%s#%d" job.Swarm.jb_seq
      (List.nth Fault.families job.Swarm.jb_family)
      job.Swarm.jb_index
  in
  let run_one (job : Swarm.job) =
    let _, plan =
      Fault.family_scenario ~seed:fault_seed ~family:job.Swarm.jb_family
        job.Swarm.jb_index
    in
    (* the stimulus seed walks with the draw index, so spending more budget
       on one family keeps producing new scripts (and so new crossed bins)
       instead of replaying one trace *)
    let sc_seed = base_seed + (7 * job.Swarm.jb_index) + job.Swarm.jb_family in
    let script =
      Pci_stim.write_then_read_all
        (Pci_stim.random ~seed:sc_seed ~count ~base:0 ~size_bytes:mem_bytes ())
    in
    let rc =
      Run_config.make ~mem_bytes ~policy ~target ?max_time ?cache:cache_handle
        ~faults:plan ~monitors ()
    in
    let rc = if cache then rc else Run_config.without_cache rc in
    match mode with
    | `Pin ->
        let rr = System.pin rc ~script in
        let monr = Option.to_list rr.System.rr_monitor in
        {
          Swarm.oc_label = label_of job;
          Swarm.oc_coverage =
            swarm_coverage ~monitors ~with_verdict:false rr.System.rr_transactions
              None monr;
          Swarm.oc_verdict = None;
          Swarm.oc_monitor = monitor_counts monr;
          Swarm.oc_failure = None;
        }
    | `Flow ->
        let fr = Flow.execute rc ~script in
        let txs, monr =
          match fr.Flow.fl_artefacts with
          | Some a ->
              ( a.Flow.fl_behavioural.System.rr_transactions,
                List.filter_map
                  (fun (rr : System.run_report) -> rr.System.rr_monitor)
                  [ a.Flow.fl_behavioural; a.Flow.fl_rtl ] )
          | None -> ([], [])
        in
        (* an empty plan (the baseline family) yields no fault verdict;
           its lattice bin is "clean" *)
        let verdict =
          match fr.Flow.fl_verdict with
          | Some v -> Some (Fault.verdict_label v)
          | None -> Some "clean"
        in
        {
          Swarm.oc_label = label_of job;
          Swarm.oc_coverage =
            swarm_coverage ~monitors ~with_verdict:true txs verdict monr;
          Swarm.oc_verdict = verdict;
          Swarm.oc_monitor = monitor_counts monr;
          Swarm.oc_failure = None;
        }
  in
  let run_batch batch =
    let items = Array.of_list batch in
    Pool.map ?jobs run_one items
    |> Array.to_list
    |> List.mapi (fun i -> function
         | Pool.Done oc -> oc
         | Pool.Failed f ->
             {
               Swarm.oc_label = label_of items.(i);
               Swarm.oc_coverage = Coverage.create ();
               Swarm.oc_verdict = None;
               Swarm.oc_monitor = [];
               Swarm.oc_failure = Some f.Pool.f_exn;
             })
  in
  Swarm.run config ~families:(swarm_families ()) ~run_batch

(* --- rendering -------------------------------------------------------- *)

let verdict_suffix jb =
  match jb.jb_verdict with
  | None -> ""
  | Some v -> Printf.sprintf "  verdict: %s" (Format.asprintf "%a" Fault.pp_verdict v)

let render_text ?(wall = true) r =
  let buf = Buffer.create 1024 in
  (* the domain count is host-execution information, like the wall
     clocks: [wall:false] omits it so the rendering is identical at any
     [--jobs] *)
  Buffer.add_string buf
    (Printf.sprintf "sweep: %s, %d jobs%s\n"
       (if r.sw_ok then "PASS" else "FAIL")
       (List.length r.sw_jobs)
       (if wall then
          Printf.sprintf ", %d domains, %.3fs wall" r.sw_domains r.sw_wall_seconds
        else ""));
  List.iter
    (fun jb ->
      let bad = List.filter (fun (_, ok) -> not ok) jb.jb_stages in
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %s  seed %d/mem %d%s%s%s%s%s\n"
           jb.jb_scenario.sc_name
           (if jb.jb_ok then "ok  " else "FAIL")
           jb.jb_scenario.sc_seed jb.jb_scenario.sc_mem_seed
           (if wall then Printf.sprintf "  (%.3fs)" jb.jb_wall_seconds else "")
           (if Fault.is_empty jb.jb_scenario.sc_faults then ""
            else "  faults: " ^ Fault.summary jb.jb_scenario.sc_faults)
           (verdict_suffix jb)
           (match bad with
           | [] -> ""
           | _ ->
               "  failed stages: "
               ^ String.concat ", " (List.map fst bad))
           (match jb.jb_failure with
           | None -> ""
           | Some e -> "  crashed: " ^ e)))
    r.sw_jobs;
  (match r.sw_cache with
  | None -> Buffer.add_string buf "synthesis cache: disabled\n"
  | Some st ->
      Buffer.add_string buf
        (Printf.sprintf
           "synthesis cache: %d hits, %d misses, %d disk hits; units: %d \
            reused, %d rebuilt\n"
           st.Synth_cache.hits st.Synth_cache.misses st.Synth_cache.disk_hits
           st.Synth_cache.units_reused st.Synth_cache.units_rebuilt));
  (match r.sw_profile with
  | None -> ()
  | Some sn -> Buffer.add_string buf (Obs.render_text ~wall sn));
  Buffer.contents buf

let to_json ?(wall = true) r =
  let job jb =
    let sc = jb.jb_scenario in
    Json.Obj
      ([
         ("name", Json.String sc.sc_name);
         ("seed", Json.Int sc.sc_seed);
         ("mem_seed", Json.Int sc.sc_mem_seed);
         ("ok", Json.Bool jb.jb_ok);
         ("stages", Json.Obj (List.map (fun (name, ok) -> (name, Json.Bool ok)) jb.jb_stages));
       ]
      @ (if Fault.is_empty sc.sc_faults then []
         else [ ("faults", Json.String (Fault.summary sc.sc_faults)) ])
      @ (match jb.jb_verdict with
        | None -> []
        | Some v ->
            [
              ( "verdict",
                Json.Obj
                  [
                    ("label", Json.String (Fault.verdict_label v));
                    ("ok", Json.Bool (Fault.verdict_ok v));
                    ( "details",
                      Json.List (List.map (fun d -> Json.String d) (Fault.verdict_details v)) );
                  ] );
            ])
      @ (if wall then [ ("wall_seconds", Json.Float jb.jb_wall_seconds) ] else [])
      @ match jb.jb_failure with None -> [] | Some e -> [ ("failure", Json.String e) ])
  in
  Json.Obj
    ([ ("ok", Json.Bool r.sw_ok); ("jobs", Json.Int (List.length r.sw_jobs)) ]
    @ (if wall then
         [
           ("domains", Json.Int r.sw_domains);
           ("wall_seconds", Json.Float r.sw_wall_seconds);
         ]
       else [])
    @ (match r.sw_cache with
      | None -> []
      | Some st ->
          [
            ( "cache",
              Json.Obj
                [
                  ("hits", Json.Int st.Synth_cache.hits);
                  ("misses", Json.Int st.Synth_cache.misses);
                  ("disk_hits", Json.Int st.Synth_cache.disk_hits);
                  ("units_total", Json.Int st.Synth_cache.units_total);
                  ("units_reused", Json.Int st.Synth_cache.units_reused);
                  ("units_rebuilt", Json.Int st.Synth_cache.units_rebuilt);
                ] );
          ])
    @ [ ("job_reports", Json.List (List.map job r.sw_jobs)) ]
    @ match r.sw_profile with None -> [] | Some sn -> [ ("profile", Obs.to_json ~wall sn) ])
