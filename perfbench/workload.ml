(* The four workloads.

   Each is a closed loop — the next operation starts when the previous one
   returned — that runs for the window the caller gives, and at least
   [prefix] operations whatever the window: those carry the fingerprint
   and the output checks, so they are the same on every run of a seed.
   Operation [i] of a run draws its inputs from [op_seed seed name i].

   A traced run ([~trace:true]) first makes the untraced run, which alone
   gives the end-to-end metrics, then repeats the workload with spans
   around the library calls (see [Mirror]) for the per-layer metrics. *)

module Job = Hlcs.Job
module Flow = Hlcs.Flow
module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Synth_cache = Hlcs_synth.Synth_cache
module Swarm = Hlcs_verify.Swarm
module Protocol = Hlcs_serve.Protocol
module Json = Hlcs_json.Json
module Time = Hlcs_engine.Time

let now = Unix.gettimeofday

type size = {
  count : int;  (** random bus requests per stimulus script *)
  round : int;
      (** operations per round: a fresh synthesis cache (a fresh daemon, for
          serve) and, in-process, a compacted heap *)
  prefix : int;  (** operations every run makes: fingerprint, checks, replays *)
  setups : int;  (** cold set-ups per run *)
  budget : int;  (** swarm jobs per campaign *)
}

type metric = { value : float; unit_ : string; samples : float list }
type check = { name : string; ok : bool; detail : string }

type outcome = {
  attempted : int;  (** operations, output checks included *)
  failed : int;
  checks : check list;
  e2e : (string * metric) list;  (** from the untraced run; no setup_s *)
  layers : (string * string * float) list;  (** traced runs only *)
  layer_details : (string * string * float) list;
      (** figures of this workload's own layers, result file only *)
  fingerprint : Json.t;
  notes : (string * Json.t) list;
  trace : Spans.t option;
}

let op_seed seed tag i = Hashtbl.hash (seed, tag, i) land 0x3FFFFFFF
let new_cache () = Synth_cache.create ~disk:`Memory ()
let job_ok = function Ok o -> Job.failure o = None | Error _ -> false

(* [op i] in a closed loop until the window closed and [min_ops] ran;
   [new_round r] runs before operation [r * round], and [between] before
   every operation, its time added to the window.  Returns latencies (s),
   per-round throughputs, the summed latency and the process's peak
   memory (MiB) when the first round ended.

   A round is a session with a fresh cache.  The heap is compacted between
   rounds, outside the timed operations, and the peak is read after the
   first round: the memory one session needs, whatever number of rounds
   the machine's speed fitted into the window.  Later rounds would not
   measure that: OCaml 5.1 returns no heap memory to the system, so each
   round starts from what the earlier ones left. *)
let closed_loop ?(between = ignore) ~seconds ~min_ops ~round ~new_round op =
  let deadline = ref (now () +. seconds) in
  let lat = ref [] and rates = ref [] and rss = ref None in
  let i = ref 0 and round_t = ref 0. and round_n = ref 0 in
  let close_round () =
    if !round_n > 0 then begin
      rates := (float_of_int !round_n /. !round_t) :: !rates;
      if !rss = None then rss := Some (Sysinfo.peak_rss_mb 0)
    end;
    round_t := 0.;
    round_n := 0
  in
  while !i < min_ops || now () < !deadline do
    if !i mod round = 0 then begin
      close_round ();
      new_round (!i / round);
      Gc.compact ()
    end;
    let tb = now () in
    between ();
    let t0 = now () in
    deadline := !deadline +. (t0 -. tb);
    op !i;
    let dt = now () -. t0 in
    lat := dt :: !lat;
    round_t := !round_t +. dt;
    incr round_n;
    incr i
  done;
  close_round ();
  (List.rev !lat, List.rev !rates, Stats.sum !lat, Option.get !rss)

(* what the untraced run measured *)
type base = {
  b_lat : float list;  (** per operation, s *)
  b_rates : float list;  (** per round, operations/s *)
  b_busy : float;
  b_rss : float list;
      (** peak memory, MiB: after the first round in-process, of each daemon
          that served a whole round when serving *)
  b_failed : int;
  b_fp : Fingerprint.t;
  b_kept : (Job.t * (Job.outcome, string) result) list;  (** prefix jobs *)
  b_checks : check list;
  b_notes : (string * Json.t) list;
}

let e2e base =
  let ms = List.map (fun s -> s *. 1e3) base.b_lat in
  let n = List.length base.b_lat in
  [
    ("op_p50_ms", { value = Stats.median ms; unit_ = "ms"; samples = ms });
    ( "ops_per_s",
      { value = float_of_int n /. base.b_busy; unit_ = "1/s"; samples = base.b_rates } );
    ( "peak_rss_mb",
      { value = Stats.median base.b_rss; unit_ = "MB"; samples = base.b_rss } );
  ]

let check name ok detail = { name; ok; detail }

let count_check name ~failed ~total =
  check name (failed = 0) (Printf.sprintf "%d of %d failed" failed total)

(* Protocol decode and result render of each kept job: what a daemon
   spends per request around the work itself. *)
let job_replays (ly : Layers.t) kept =
  List.iter
    (fun (job, out) ->
      let frame = Protocol.submit_to_string ~id:"replay" (Job.to_json_value job) in
      Spans.span ly.Layers.tr "job.decode" (fun () ->
          match Protocol.request_of_string frame with
          | Ok (Protocol.Submit { job = j; _ }) -> ignore (Job.of_json j)
          | _ -> failwith "job replay: submit frame did not decode");
      match out with
      | Ok o ->
          let s = Spans.span ly.Layers.tr "job.render" (fun () -> Job.render_json job o) in
          ly.Layers.result_bytes <- ly.Layers.result_bytes + String.length s;
          ly.Layers.renders <- ly.Layers.renders + 1
      | Error _ -> ())
    kept

let overhead_pct ~traced ~untraced =
  ((Stats.median traced /. Stats.median untraced) -. 1.) *. 100.

let finish ~base ~traced =
  let layers, details, trace, extra_ops, extra_failed, extra_checks =
    match traced with
    | None -> ([], [], None, 0, 0, [])
    | Some (ly, ops, failed, checks) ->
        (Layers.metrics ly, List.rev ly.Layers.details, Some ly.Layers.tr, ops, failed, checks)
  in
  let checks = base.b_checks @ extra_checks in
  let failed_checks = List.length (List.filter (fun c -> not c.ok) checks) in
  {
    attempted = List.length base.b_lat + extra_ops + List.length checks;
    failed = base.b_failed + extra_failed + failed_checks;
    checks;
    e2e = e2e base;
    layers;
    layer_details = details;
    fingerprint = Fingerprint.to_json base.b_fp;
    notes =
      (match Stats.tail base.b_lat with
      | Some (label, v) ->
          [
            ("op_tail_ms", Json.Obj [ ("percentile", Json.String label); ("value", Json.Float (v *. 1e3)) ]);
          ]
      | None -> [])
      @ (("ops", Json.Int (List.length base.b_lat)) :: base.b_notes);
    trace;
  }

(* --- fig3 flows in-process: the edit loop and the long script --------- *)

let flow_job ~cache ~count seed =
  {
    Job.default with
    Job.j_seed = seed;
    j_count = count;
    j_config = Run_config.with_cache cache Run_config.default;
    j_jobs = Some 1;
  }

let flow_runs = function
  | Ok (Job.Flow_result { Flow.fl_artefacts = Some a; _ }) ->
      [ a.Flow.fl_tlm; a.Flow.fl_behavioural; a.Flow.fl_rtl ]
  | _ -> []

let flows_base ~name ~size ~seed ~seconds ~between =
  let cache = ref (new_cache ()) in
  let failed = ref 0 and kept = ref [] in
  let fp = Fingerprint.create () in
  (* warm-up in a cache of its own: code paths and process-wide lazies *)
  ignore (Job.run (flow_job ~cache:(new_cache ()) ~count:size.count (op_seed seed name (-1))));
  let lat, rates, busy, rss =
    closed_loop ~between ~seconds ~min_ops:size.prefix ~round:size.round
      ~new_round:(fun _ -> cache := new_cache ())
      (fun i ->
        let job = flow_job ~cache:!cache ~count:size.count (op_seed seed name i) in
        let out = Job.run job in
        if not (job_ok out) then incr failed;
        if i < size.prefix then begin
          Fingerprint.add_reports fp (flow_runs out);
          (* the kept job must not pin its round's cache in memory *)
          kept := ({ job with Job.j_config = Run_config.without_cache job.Job.j_config }, out) :: !kept
        end)
  in
  {
    b_lat = lat;
    b_rates = rates;
    b_busy = busy;
    b_rss = [ rss ];
    b_failed = !failed;
    b_fp = fp;
    b_kept = List.rev !kept;
    b_checks = [ count_check "every flow passed, so B = C" ~failed:!failed ~total:(List.length lat) ];
    b_notes = [];
  }

let flows_traced ~name ~size ~seed ~seconds ~base =
  let ly = Layers.create () in
  let cache = ref (new_cache ()) and table = ref (Hashtbl.create 8) and in_round = ref 0 in
  let failed = ref 0 in
  let fp = Fingerprint.create () in
  let close_round () = if !in_round > 0 then Layers.add_cache ly ~flows:!in_round !cache in
  let lat, _, _, _ =
    closed_loop ~seconds ~min_ops:size.prefix ~round:size.round
      ~new_round:(fun _ ->
        close_round ();
        cache := new_cache ();
        table := Hashtbl.create 8;
        in_round := 0)
      (fun i ->
        let job = flow_job ~cache:!cache ~count:size.count (op_seed seed name i) in
        let config = Run_config.with_profile true job.Job.j_config in
        let t0 = now () in
        let fr =
          Spans.span ly.Layers.tr "flow" (fun () ->
              Mirror.flow ly.Layers.tr ~config ~script:(Job.script job))
        in
        ly.Layers.job_work <- (now () -. t0) :: ly.Layers.job_work;
        Layers.add_flow ly fr.Mirror.runs;
        incr in_round;
        if not fr.Mirror.ok then incr failed;
        if i < size.prefix then Fingerprint.add_reports fp fr.Mirror.runs;
        Mirror.replay_synthesis ly.Layers.tr !table ?options:config.Run_config.rc_synth_options
          fr.Mirror.design)
  in
  close_round ();
  job_replays ly base.b_kept;
  Layers.set ly "pool.efficiency" 1.;
  Layers.set ly "trace.overhead_pct" (overhead_pct ~traced:ly.Layers.job_work ~untraced:base.b_lat);
  let checks =
    [
      count_check "every traced flow passed" ~failed:!failed ~total:(List.length lat);
      check "traced flows match Flow.execute (fingerprint)"
        (Fingerprint.digest fp = Fingerprint.digest base.b_fp)
        (Fingerprint.digest fp);
    ]
  in
  (ly, List.length lat, !failed, checks)

let flows ~name size ~seed ~seconds ~trace ~between =
  let base = flows_base ~name ~size ~seed ~seconds ~between in
  let traced =
    if trace then Some (flows_traced ~name ~size ~seed ~seconds ~base) else None
  in
  finish ~base ~traced

let flow_first_op size ~seed = job_ok (Job.run (flow_job ~cache:(new_cache ()) ~count:size.count seed))

(* --- flow jobs through the daemon -------------------------------------- *)

let serve_width = 2
let serve_batch = 4
let serve_job ~count seed = { Job.default with Job.j_seed = seed; j_count = count }

(* One closed-loop session: batches of [serve_batch] submits and a drain,
   a fresh daemon every [size.round] jobs. *)
let serve_session ?ly ?(between = ignore) ~size ~seed ~seconds () =
  let daemon = ref None in
  let rss = ref [] and lat = ref [] and rates = ref [] and kept = ref [] in
  let busy = ref 0. and failed = ref 0 and jobs = ref 0 in
  let round_t = ref 0. and round_n = ref 0 in
  let wait = ref 0. and total = ref 0. and work = ref 0. and batch_wall = ref 0. in
  let retire () =
    match !daemon with
    | None -> ()
    | Some d ->
        (match ly with
        | None -> ()
        | Some (ly : Layers.t) ->
            let st = Serve_client.stats d in
            let field k = Option.bind (Jsonx.path st [ "cache"; k ]) Jsonx.num in
            let get k = int_of_float (Option.value ~default:0. (field k)) in
            ly.Layers.units_rebuilt <- ly.Layers.units_rebuilt + get "synth_units_rebuilt";
            ly.Layers.units_reused <- ly.Layers.units_reused + get "synth_units_reused";
            ly.Layers.units_flows <- ly.Layers.units_flows + !round_n;
            ly.Layers.cache_entries <- max ly.Layers.cache_entries (get "misses"));
        rss := (Sysinfo.peak_rss_mb d.Serve_client.pid, !round_n >= size.round) :: !rss;
        Serve_client.shutdown d;
        daemon := None;
        if !round_n > 0 then rates := (float_of_int !round_n /. !round_t) :: !rates;
        round_t := 0.;
        round_n := 0
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Serve_client.kill !daemon)
    (fun () ->
      let deadline = ref (now () +. seconds) in
      while !jobs < size.prefix || now () < !deadline do
        if !jobs mod size.round = 0 then begin
          retire ();
          daemon := Some (Serve_client.spawn ~width:serve_width)
        end;
        let tb = now () in
        between ();
        deadline := !deadline +. (now () -. tb);
        let d = Option.get !daemon in
        let batch =
          List.init serve_batch (fun k ->
              let n = !jobs + k in
              (string_of_int n, serve_job ~count:size.count (op_seed seed "serve" n)))
        in
        let t0 = now () in
        let served = Serve_client.run_batch d batch in
        let t1 = now () in
        busy := !busy +. (t1 -. t0);
        round_t := !round_t +. (t1 -. t0);
        round_n := !round_n + serve_batch;
        List.iteri
          (fun k (s : Serve_client.served) ->
            lat := (s.Serve_client.s_result -. s.Serve_client.s_submit) :: !lat;
            if not s.Serve_client.s_ok then incr failed;
            if !jobs + k < size.prefix then kept := s :: !kept)
          served;
        (match ly with
        | None -> ()
        | Some (ly : Layers.t) ->
            let bid = Spans.record ly.Layers.tr "serve.batch" ~t0 ~t1 in
            List.iteri
              (fun k (s : Serve_client.served) ->
                let submit = s.Serve_client.s_submit
                and started = s.Serve_client.s_started
                and result = s.Serve_client.s_result in
                (* one display lane per batch slot: jobs of a batch overlap *)
                let tid = 100 + k in
                let jid = Spans.record ly.Layers.tr ~parent:bid ~tid "serve.job" ~t0:submit ~t1:result in
                if not (Float.is_nan started) then begin
                  ignore (Spans.record ly.Layers.tr ~parent:jid ~tid "serve.queue" ~t0:submit ~t1:started);
                  ignore (Spans.record ly.Layers.tr ~parent:jid ~tid "serve.run" ~t0:started ~t1:result);
                  wait := !wait +. (started -. submit)
                end;
                total := !total +. (result -. submit);
                let w = Serve_client.work s in
                work := !work +. w;
                ly.Layers.job_work <- w :: ly.Layers.job_work)
              served;
            batch_wall := !batch_wall +. (t1 -. t0));
        jobs := !jobs + serve_batch
      done;
      retire ());
  (match ly with
  | None -> ()
  | Some ly ->
      let per_job x = x /. float_of_int !jobs *. 1e3 in
      Layers.set ly "serve.wait_share" (!wait /. !total);
      Layers.set ly "pool.efficiency" (!work /. (!batch_wall *. float_of_int serve_width));
      Layers.detail ly "serve.queue_wait_ms" "ms" (per_job !wait);
      Layers.detail ly "serve.run_ms" "ms" (per_job (!total -. !wait));
      Layers.detail ly "serve.job_work_ms" "ms" (per_job !work);
      Layers.detail ly "serve.overhead_ms" "ms" (per_job (!total -. !work)));
  (* the last daemon of a run is cut short by the window: its peak counts
     only when no daemon served a whole round *)
  let rss =
    match List.filter snd !rss with [] -> List.map fst !rss | whole -> List.map fst whole
  in
  (List.rev !lat, List.rev !rates, !busy, List.rev rss, !failed, List.rev !kept)

let serve_base ~size ~seed ~seconds ~between =
  let lat, rates, busy, rss, failed, kept = serve_session ~between ~size ~seed ~seconds () in
  (* the served payloads against the same jobs run in-process *)
  let fp = Fingerprint.create () in
  let replays =
    List.map
      (fun (s : Serve_client.served) ->
        let job = s.Serve_client.s_job in
        let out =
          Job.run { job with Job.j_config = Run_config.with_cache (new_cache ()) job.Job.j_config }
        in
        Fingerprint.add_reports fp (flow_runs out);
        let same =
          match (s.Serve_client.s_payload, out) with
          | Some served, Ok o -> (
              match Json.parse (Job.render_json job o) with
              | Ok local -> Serve_client.same_modulo_wall served local
              | Error _ -> false)
          | _ -> false
        in
        (same, (job, out)))
      kept
  in
  let mismatched = List.length (List.filter (fun (same, _) -> not same) replays) in
  {
    b_lat = lat;
    b_rates = rates;
    b_busy = busy;
    b_rss = rss;
    b_failed = failed;
    b_fp = fp;
    b_kept = List.map snd replays;
    b_checks =
      [
        count_check "every served flow passed" ~failed ~total:(List.length lat);
        count_check "served payloads equal in-process Job.render_json (modulo wall clock)"
          ~failed:mismatched ~total:(List.length replays);
      ];
    b_notes = [];
  }

let serve_traced ~size ~seed ~seconds ~base =
  let ly = Layers.create () in
  let lat, _, _, _, failed, _ = serve_session ~ly ~size ~seed ~seconds () in
  (* the daemon's layers are out of reach of spans: the kept jobs are
     replayed in-process through the traced flow *)
  let table = Hashtbl.create 8 in
  let cache = new_cache () in
  List.iter
    (fun (job, _) ->
      let config = Run_config.(job.Job.j_config |> with_cache cache |> with_profile true) in
      let fr =
        Spans.span ly.Layers.tr "serve.replay" (fun () ->
            Mirror.flow ly.Layers.tr ~config ~script:(Job.script job))
      in
      Layers.add_flow ly fr.Mirror.runs;
      Mirror.replay_synthesis ly.Layers.tr table fr.Mirror.design)
    base.b_kept;
  job_replays ly base.b_kept;
  Layers.set ly "trace.overhead_pct" (overhead_pct ~traced:lat ~untraced:base.b_lat);
  (ly, List.length lat, failed, [ count_check "every traced served flow passed" ~failed ~total:(List.length lat) ])

let serve size ~seed ~seconds ~trace ~between =
  let base = serve_base ~size ~seed ~seconds ~between in
  let traced = if trace then Some (serve_traced ~size ~seed ~seconds ~base) else None in
  finish ~base ~traced

(* set-up: daemon spawn to the first result *)
let serve_setup size ~seed =
  let t0 = now () in
  let d = Serve_client.spawn ~width:serve_width in
  match Serve_client.run_batch d [ ("setup", serve_job ~count:size.count seed) ] with
  | served ->
      let t1 = now () in
      Serve_client.shutdown d;
      (t1 -. t0, List.for_all (fun s -> s.Serve_client.s_ok) served)
  | exception e ->
      Serve_client.kill d;
      raise e

(* --- coverage-guided swarm campaigns ----------------------------------- *)

(* 50 us of simulated time = 5000 bus cycles: 3.5x the longest run a
   fault plan legitimately needs (1403 cycles over 480 sampled jobs), so
   only runs a fault hung reach it *)
let watchdog = Time.us 50
let swarm_fault_seed = 1

let swarm_config size seed =
  {
    Swarm.default_config with
    Swarm.sw_seed = seed;
    sw_budget = size.budget;
    sw_batch = 4;
  }

let swarm_job size seed =
  let c = swarm_config size seed in
  {
    Job.j_kind =
      Job.Swarm
        {
          budget = c.Swarm.sw_budget;
          batch = c.Swarm.sw_batch;
          epsilon = c.Swarm.sw_epsilon;
          guided = c.Swarm.sw_guided;
          target_ratio = c.Swarm.sw_target_ratio;
          mode = `Flow;
          fault_seed = swarm_fault_seed;
        };
    j_config = Run_config.(default |> with_mem_bytes 512 |> with_max_time watchdog);
    j_seed = seed;
    j_count = size.count;
    j_jobs = Some 2;
    j_deterministic = false;
  }

let swarm_report = function Ok (Job.Swarm_result (r, _)) -> Some r | _ -> None

let add_swarm_fingerprint fp (r : Swarm.report) =
  Fingerprint.add fp "jobs" r.Swarm.sr_jobs;
  Fingerprint.add fp "bins" r.Swarm.sr_bins;
  Fingerprint.add fp "crashed_jobs" (List.length r.Swarm.sr_failures);
  List.iter (fun (v, n) -> Fingerprint.add fp ("verdict." ^ v) n) r.Swarm.sr_verdicts;
  List.iter (fun (m, n) -> Fingerprint.add fp ("monitor." ^ m) n) r.Swarm.sr_monitors;
  Fingerprint.add_text fp (Swarm.render_json r)

(* A campaign is an operation that succeeds when it returns its report.
   A fault job that crashed inside it (sr_ok false) is one of the
   campaign's findings: it is deterministic in the campaign's seed, lands
   in the fingerprint and is counted in the notes. *)
let swarm_base ~size ~seed ~seconds ~between =
  let failed = ref 0 and crashed = ref 0 and kept = ref [] in
  let fp = Fingerprint.create () in
  ignore (Job.run (swarm_job size (op_seed seed "swarm" (-1))));
  let lat, rates, busy, rss =
    closed_loop ~between ~seconds ~min_ops:size.prefix ~round:size.round ~new_round:ignore
      (fun i ->
        let job = swarm_job size (op_seed seed "swarm" i) in
        let out = Job.run job in
        (match swarm_report out with
        | Some r -> if not r.Swarm.sr_ok then incr crashed
        | None -> incr failed);
        if i < size.prefix then begin
          Option.iter (add_swarm_fingerprint fp) (swarm_report out);
          kept := (job, out) :: !kept
        end)
  in
  let kept = List.rev !kept in
  (* a campaign is a deterministic function of its configuration *)
  let repeat_same =
    List.for_all
      (fun (job, out) ->
        match (swarm_report out, swarm_report (Job.run job)) with
        | Some a, Some b -> Swarm.render_json a = Swarm.render_json b
        | _ -> false)
      kept
  in
  {
    b_lat = lat;
    b_rates = rates;
    b_busy = busy;
    b_rss = [ rss ];
    b_failed = !failed;
    b_fp = fp;
    b_kept = kept;
    b_checks =
      [
        count_check "every campaign returned its report" ~failed:!failed ~total:(List.length lat);
        check "a repeated campaign renders identically" repeat_same
          (Printf.sprintf "%d campaign(s) repeated" (List.length kept));
      ];
    b_notes = [ ("campaigns_with_crashed_jobs", Json.Int !crashed) ];
  }

let swarm_traced ~size ~seed ~seconds ~base =
  let ly = Layers.create () in
  let campaigns = ref 0 and hung_jobs = ref 0 in
  let job_wall = ref 0. and hung_wall = ref 0. in
  let first = ref None in
  let lat, _, _, _ =
    closed_loop ~seconds ~min_ops:size.prefix ~round:size.round ~new_round:ignore
      (fun i ->
        let s = op_seed seed "swarm" i in
        let report, infos, cache =
          Mirror.swarm ly.Layers.tr ~jobs:2 ~base_seed:s ~count:size.count
            ~fault_seed:swarm_fault_seed ~max_time:watchdog (swarm_config size s)
        in
        incr campaigns;
        if i = 0 then first := Some report;
        Layers.add_cache ly ~flows:(List.length infos) cache;
        let table = Hashtbl.create 8 in
        List.iter
          (fun (j : Mirror.swarm_job) ->
            Layers.add_flow ly j.Mirror.sj_runs;
            List.iter (Layers.add_run ly.Layers.hung) j.Mirror.sj_hung;
            ly.Layers.job_work <- j.Mirror.sj_wall :: ly.Layers.job_work;
            job_wall := !job_wall +. j.Mirror.sj_wall;
            if j.Mirror.sj_hung <> [] then begin
              incr hung_jobs;
              hung_wall := !hung_wall +. j.Mirror.sj_wall
            end;
            Mirror.replay_synthesis ly.Layers.tr table j.Mirror.sj_design)
          infos)
  in
  job_replays ly base.b_kept;
  let spans = Spans.spans ly.Layers.tr in
  let campaign_t = Spans.total_by_name spans "swarm.campaign" in
  let batch_t = Spans.total_by_name spans "swarm.batch" in
  let self = Spans.self_by_name spans in
  let coverage_t = Option.value ~default:0. (Hashtbl.find_opt self "swarm.coverage") in
  Layers.set ly "pool.efficiency" (!job_wall /. (batch_t *. 2.));
  Layers.set ly "swarm.watchdog_jobs" (float_of_int !hung_jobs /. float_of_int !campaigns);
  Layers.set ly "swarm.watchdog_share" (!hung_wall /. !job_wall);
  Layers.set ly "swarm.coverage_share" (coverage_t /. !job_wall);
  Layers.set ly "swarm.schedule_share" ((campaign_t -. batch_t) /. campaign_t);
  let per_campaign x = x /. float_of_int !campaigns *. 1e3 in
  Layers.detail ly "swarm.schedule_ms" "ms" (per_campaign (campaign_t -. batch_t));
  Layers.detail ly "swarm.coverage_ms" "ms" (per_campaign coverage_t);
  Layers.detail ly "swarm.hung_job_ms" "ms"
    (if !hung_jobs = 0 then 0. else !hung_wall /. float_of_int !hung_jobs *. 1e3);
  let campaign_lat =
    List.filter_map
      (fun (s : Spans.span) -> if s.Spans.name = "swarm.campaign" then Some (s.Spans.t1 -. s.Spans.t0) else None)
      spans
  in
  Layers.set ly "trace.overhead_pct" (overhead_pct ~traced:campaign_lat ~untraced:base.b_lat);
  let mirror_same =
    match (!first, base.b_kept) with
    | Some traced, (_, out) :: _ -> (
        match swarm_report out with
        | Some r -> Swarm.render_json r = Swarm.render_json traced
        | None -> false)
    | _ -> false
  in
  ( ly,
    List.length lat,
    0,
    [ check "traced campaign matches Sweep.swarm (bins, verdicts, ledgers)" mirror_same "" ] )

let swarm size ~seed ~seconds ~trace ~between =
  let base = swarm_base ~size ~seed ~seconds ~between in
  let traced = if trace then Some (swarm_traced ~size ~seed ~seconds ~base) else None in
  finish ~base ~traced

let swarm_first_op size ~seed = swarm_report (Job.run (swarm_job size seed)) <> None

(* --- the registry ------------------------------------------------------- *)

type spec = {
  name : string;
  why : string;
  size : smoke:bool -> size;
  measure :
    size -> seed:int -> seconds:float -> trace:bool -> between:(unit -> unit) -> outcome;
      (** [between] runs between untraced operations, outside their timing *)
  setup : setup;
}

and setup =
  | Cold_child of (size -> seed:int -> bool)
      (** a cold process's first operation, run by the set-up child *)
  | In_process of (size -> seed:int -> float * bool)
      (** set-up timed by this process: (seconds, ok) *)

let edit_loop =
  let name = "fig3_edit_loop" in
  {
    name;
    why =
      "designer edit loop: count-12 fig3 flows, a new stimulus each, 1 of 3 synthesis \
       units rebuilt per flow; kernel, PCI fabric and incremental synthesis dominate";
    size =
      (fun ~smoke ->
        if smoke then { count = 12; round = 3; prefix = 4; setups = 1; budget = 0 }
        else { count = 12; round = 200; prefix = 16; setups = 49; budget = 0 });
    measure = flows ~name;
    setup = Cold_child flow_first_op;
  }

let long_script =
  let name = "fig3_long_script" in
  {
    name;
    why =
      "count-400 fig3 flows: an app FSM of thousands of states, RTL stage ~90% of the \
       time; moves with the RTL engine and large-unit synthesis, not the kernel";
    size =
      (fun ~smoke ->
        if smoke then { count = 40; round = 2; prefix = 2; setups = 1; budget = 0 }
        else { count = 400; round = 4; prefix = 2; setups = 5; budget = 0 });
    measure = flows ~name;
    setup = Cold_child flow_first_op;
  }

let serve_flow_jobs =
  {
    name = "serve_flow_jobs";
    why =
      "the edit loop's flows as jobs, 4 per drain, to a width-2 daemon child over \
       stdio: adds Job/JSON/Protocol/Admission and the domain pool";
    size =
      (fun ~smoke ->
        if smoke then { count = 12; round = 4; prefix = 8; setups = 1; budget = 0 }
        else { count = 12; round = 200; prefix = 16; setups = 49; budget = 0 });
    measure = serve;
    setup = In_process serve_setup;
  }

let swarm_campaign =
  {
    name = "swarm_campaign";
    why =
      "guided Sweep.swarm campaigns, flow mode, budget 64 on 2 domains: fault \
       injection, monitors, coverage, scheduling, short watchdog-bound hangs";
    (* a campaign makes its own synthesis cache, so the run is one round and
       its peak memory is the highest over every campaign in the window *)
    size =
      (fun ~smoke ->
        if smoke then { count = 12; round = 1; prefix = 1; setups = 1; budget = 8 }
        else { count = 12; round = max_int; prefix = 1; setups = 5; budget = 64 });
    measure = swarm;
    setup = Cold_child swarm_first_op;
  }

let all = [ edit_loop; long_script; serve_flow_jobs; swarm_campaign ]
let find name = List.find_opt (fun w -> w.name = name) all
