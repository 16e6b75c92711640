module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Synthesize = Hlcs_synth.Synthesize
module Time = Hlcs_engine.Time
module Fault = Hlcs_fault.Fault
module Diag = Hlcs_analysis.Diag
module Analyze = Hlcs_analysis.Analyze
module Cec = Hlcs_analysis.Cec
module Monitor = Hlcs_verify.Monitor

type stage = {
  sg_name : string;
  sg_ok : bool;
  sg_detail : wall:bool -> string;
  sg_wall_seconds : float;
}

type artefacts = {
  fl_tlm : System.run_report;
  fl_behavioural : System.run_report;
  fl_rtl : System.run_report;
  fl_synthesis : Synthesize.report;
}

type report = {
  fl_stages : stage list;
  fl_ok : bool;
  fl_diags : Diag.t list;
  fl_artefacts : artefacts option;
  fl_verdict : Fault.verdict option;
  fl_fault : Fault.stats option;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let stage name ok detail wall =
  { sg_name = name; sg_ok = ok; sg_detail = detail; sg_wall_seconds = wall }

(* a detail that carries no wall-clock figure *)
let fixed text ~wall:_ = text

let run_printer ~wall =
  if wall then System.pp_report else System.pp_report_deterministic

let execute config ~script =
  let faulty = not (Fault.is_empty config.Run_config.rc_faults) in
  let uud =
    Hlcs_interface.Pci_master_design.design ?policy:config.Run_config.rc_policy
      ~app:script ()
  in
  (* static analysis gates the rest of the flow: a design that typechecks
     badly or can deadlock fails here, before any simulation is paid for *)
  let design_diags, t_analysis = timed (fun () -> Analyze.design uud) in
  let analysis_ok = Analyze.clean design_diags in
  let analysis_stage =
    stage "static analysis"
      analysis_ok
      (fixed
         (Format.asprintf "%a over %s" Diag.pp_counts (Diag.count design_diags)
            uud.Hlcs_hlir.Ast.d_name))
      t_analysis
  in
  if not analysis_ok then
    {
      fl_stages = [ analysis_stage ];
      fl_ok = false;
      fl_diags = design_diags;
      fl_artefacts = None;
      fl_verdict = None;
      fl_fault = None;
    }
  else
    let tlm, t_tlm = timed (fun () -> System.tlm config ~script) in
    let behav, t_behav = timed (fun () -> System.pin ~design:uud config ~script) in
    let synthesis, t_synth = timed (fun () -> Run_config.synthesize config uud) in
    let rtl_diags = Analyze.rtl synthesis.Synthesize.rp_rtl in
    (* optional static equivalence proof: the optimised netlist against a
       raw (unoptimised) synthesis of the same design — the B=C invariant
       checked without simulating a cycle *)
    let equiv_stages, equiv_diags =
      if not config.Run_config.rc_equiv then ([], [])
      else
        let cec_report, t_equiv =
          timed (fun () ->
              let base =
                Option.value ~default:Synthesize.default_options
                  config.Run_config.rc_synth_options
              in
              let raw =
                Synthesize.synthesize
                  ~options:{ base with Synthesize.optimize = false }
                  uud
              in
              Cec.check raw.Synthesize.rp_rtl synthesis.Synthesize.rp_rtl)
        in
        let design = synthesis.Synthesize.rp_rtl.Hlcs_rtl.Ir.rd_name in
        let diags = Cec.to_diags ~design cec_report in
        let ok = cec_report.Cec.rp_verdict = Cec.Equivalent in
        let detail =
          match diags with
          | d :: _ -> d.Diag.d_message
          | [] -> "no equivalence result"
        in
        ( [ stage "equivalence check (raw vs optimised netlist)" ok (fixed detail) t_equiv ],
          diags )
    in
    let rtl, t_rtl = timed (fun () -> System.rtl ~synthesis config ~script) in
    (* a [`Compiled] engine request that degraded to the interpreter is
       worth a warning, not a failure: results are identical, speed isn't *)
    let engine_diags =
      match rtl.System.rr_engine_fallback with
      | Some reason ->
          [
            Diag.make ~severity:Diag.Warning ~design:uud.Hlcs_hlir.Ast.d_name
              ~scope:rtl.System.rr_label ~rule:"codegen-fallback"
              (Printf.sprintf
                 "compiled RTL engine unavailable, ran levelized instead: %s"
                 reason);
          ]
      | None -> []
    in
    let refinement_issues = System.compare_runs tlm behav in
    let behav_viols = behav.System.rr_violations in
    let consistency_issues = System.compare_runs behav rtl in
    let trace_issues = System.compare_bus_traces behav rtl in
    let rtl_viols = rtl.System.rr_violations in
    (* temporal-property monitors, when the config declares any *)
    let monitor_violations (rr : System.run_report) =
      match rr.System.rr_monitor with
      | Some m -> m.Monitor.mr_violations
      | None -> []
    in
    let behav_mon = monitor_violations behav in
    let rtl_mon = monitor_violations rtl in
    let monitor_diags =
      List.concat_map
        (fun (rr : System.run_report) ->
          match rr.System.rr_monitor with
          | Some m ->
              Monitor.to_diags
                ~design:(uud.Hlcs_hlir.Ast.d_name ^ "/" ^ rr.System.rr_label)
                m
          | None -> [])
        [ behav; rtl ]
    in
    let monitor_note viols =
      if viols = [] then ""
      else
        Printf.sprintf "; %d temporal-property violation(s)" (List.length viols)
    in
    let fault_stats =
      match
        List.filter_map
          (fun (rr : System.run_report) -> rr.System.rr_fault)
          [ tlm; behav; rtl ]
      with
      | [] -> None
      | first :: rest -> Some (List.fold_left Fault.merge_stats first rest)
    in
    let verdict =
      if not faulty then None
      else
        Some
          (Fault.classify ~plan:config.Run_config.rc_faults
             ~spec_vs_synth:(consistency_issues @ trace_issues)
             ~tlm_vs_spec:refinement_issues
             (Option.value ~default:(Fault.stats ()) fault_stats))
    in
    (* Under an injected fault, divergence from the TLM golden reference
       and monitor violations are expected symptoms, not flow failures:
       the fault-verdict stage is then the arbiter (the paper's invariant,
       spec vs synthesised model, is what it refuses to forgive). *)
    let stages =
      [
        analysis_stage;
        stage "functional model (TLM)" true
          (fun ~wall -> Format.asprintf "%a" (run_printer ~wall) tlm)
          t_tlm;
        stage "executable specification (pin-accurate, behavioural)"
          (faulty || (refinement_issues = [] && behav_viols = [] && behav_mon = []))
          (fun ~wall ->
            Format.asprintf "%a; refinement vs TLM: %s%s" (run_printer ~wall) behav
              (if refinement_issues = [] then "consistent"
               else String.concat "; " refinement_issues)
              (monitor_note behav_mon))
          t_behav;
        stage "communication synthesis"
          (Analyze.clean rtl_diags)
          (fixed
             (Format.asprintf "%a; netlist checks: %a" Synthesize.pp_report synthesis
                Diag.pp_counts (Diag.count rtl_diags)))
          t_synth;
      ]
      @ equiv_stages
      @ [
        stage "post-synthesis validation (RT level)"
          (faulty
          || (consistency_issues = [] && trace_issues = [] && rtl_viols = []
             && rtl_mon = []))
          (fun ~wall ->
            Format.asprintf "%a; consistency vs behavioural: %s%s" (run_printer ~wall)
              rtl
              (if consistency_issues = [] && trace_issues = [] then "consistent"
               else String.concat "; " (consistency_issues @ trace_issues))
              (monitor_note rtl_mon))
          t_rtl;
      ]
      @
      match verdict with
      | None -> []
      | Some v ->
          [
            stage "fault verdict" (Fault.verdict_ok v)
              (fixed
                 (Format.asprintf "%a under plan: %s" Fault.pp_verdict v
                    (Fault.summary config.Run_config.rc_faults)))
              0.;
          ]
    in
    {
      fl_stages = stages;
      fl_ok = List.for_all (fun s -> s.sg_ok) stages;
      fl_diags = design_diags @ rtl_diags @ equiv_diags @ monitor_diags @ engine_diags;
      fl_artefacts =
        Some
          {
            fl_tlm = tlm;
            fl_behavioural = behav;
            fl_rtl = rtl;
            fl_synthesis = synthesis;
          };
      fl_verdict = verdict;
      fl_fault = fault_stats;
    }

let pp ~wall ppf r =
  Format.fprintf ppf "@[<v>design flow: %s@," (if r.fl_ok then "PASS" else "FAIL");
  List.iteri
    (fun i s ->
      Format.fprintf ppf "%d. %-50s %s%s@,   %s@," (i + 1) s.sg_name
        (if s.sg_ok then "ok" else "FAILED")
        (if wall then Printf.sprintf " (%.3fs)" s.sg_wall_seconds else "")
        (s.sg_detail ~wall))
    r.fl_stages;
  (match List.filter (fun (d : Diag.t) -> d.Diag.d_severity <> Diag.Info) r.fl_diags with
  | [] -> ()
  | noisy -> Format.fprintf ppf "diagnostics:@,%s@," (Diag.render_text noisy));
  (match r.fl_fault with
  | None -> ()
  | Some st ->
      List.iter
        (fun (e : Fault.event) ->
          Format.fprintf ppf "fault event: %a %s: %s@," Time.pp e.Fault.ev_time
            e.Fault.ev_label e.Fault.ev_detail)
        (Fault.events st));
  (match r.fl_artefacts with
  | None -> ()
  | Some a ->
      List.iter
        (fun (rr : System.run_report) ->
          match rr.System.rr_profile with
          | None -> ()
          | Some sn -> Format.fprintf ppf "%s" (Hlcs_obs.Obs.render_text ~wall sn))
        [ a.fl_tlm; a.fl_behavioural; a.fl_rtl ]);
  Format.fprintf ppf "@]"

let pp_report = pp ~wall:true
let pp_report_deterministic = pp ~wall:false
