(* Command-line driver for the reproduction.

     hlcs_cli flow     run the paper's complete design flow (Figure 2)
     hlcs_cli synth    synthesise the PCI interface, dump reports/VHDL
     hlcs_cli lint     static analysis over the shipped library elements
     hlcs_cli equiv    SAT-prove optimised netlists against raw synthesis
     hlcs_cli emit     print a synthesised netlist as Verilog/VHDL/OCaml
     hlcs_cli profile  simulate one configuration with kernel profiling on
     hlcs_cli sweep    batch-validate a scenario sweep over a domain pool
     hlcs_cli fault    seeded fault-injection campaign over the flow
     hlcs_cli swarm    coverage-guided scenario swarm over the fault families
     hlcs_cli serve    job daemon: flow/sweep/fault/swarm requests over a socket
     hlcs_cli submit   client: send one job to a running daemon
     hlcs_cli waves    produce the Figure-4 VCD waveforms
     hlcs_cli latency  the FW1 method-call latency series

   All commands are deterministic in their --seed (and the fault campaign
   additionally in its --fault-seed).  Common flags (--format,
   --deterministic, --jobs, --seed, ...) are declared once in Cli_common
   so they parse identically across subcommands.  The five batch
   subcommands (flow, profile, sweep, fault, swarm) decode to one
   Hlcs.Job.t and run through Job.run; `--config job.json` loads the
   same job from a file and `--dump-job` writes one, so any flag
   combination can be replayed through the daemon unchanged. *)

open Cmdliner
open Cli_common
module Synthesize = Hlcs_synth.Synthesize
module Policy = Hlcs_osss.Policy
module Pci_stim = Hlcs_pci.Pci_stim
module Obs = Hlcs_obs.Obs
open Hlcs_interface

(* --- the Job-backed subcommands ----------------------------------------- *)

module Diag = Hlcs_analysis.Diag
module Job = Hlcs.Job
module Json = Hlcs_json.Json

(* a multi-design report: one JSON array, one element per line *)
let print_json_rows rows =
  print_endline ("[" ^ String.concat ",\n " (List.map Json.to_string rows) ^ "]")

(* flow, profile, sweep, fault and swarm all decode to one Hlcs.Job.t and
   execute through Job.run — identical semantics whether the job arrived
   as flags, a --config file, or a frame over the serve protocol *)

let config_file_term =
  Arg.(
    value & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Load the complete job (kind, run configuration, seeds, pool width) \
           from a Job-codec JSON file instead of the command-line flags; only \
           --format still applies.  The file's kind must match the subcommand.")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let job_of_config_file ~expected path =
  match Job.parse (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok job ->
      let kind = Job.kind_name job.Job.j_kind in
      if kind <> expected then
        Error
          (Printf.sprintf "%s: a %S job cannot run under `hlcs_cli %s'" path
             kind expected)
      else Ok job

let dump_job_term =
  Arg.(
    value & flag
    & info [ "dump-job" ]
        ~doc:
          "Print the job the flags describe as Job-codec JSON (the format \
           --config and the serve protocol consume) and exit without running.")

(* resolve the job (config file wins), run it, render, map the failure
   rule to the exit status — the shared tail of all five subcommands.  An
   unusable output path (--vcd, --vcd-dir) is reported like a bad
   --config, and so is any other exception the run raises ("job crashed:
   …", as the daemon words it): one line, exit 124. *)
let run_job ~expected ~config_file ?(dump = false) ~format job =
  let job =
    match config_file with
    | None -> Ok job
    | Some path -> job_of_config_file ~expected path
  in
  match job with
  | Error e -> `Error (false, e)
  | Ok job when dump ->
      print_endline (Job.to_json job);
      `Ok ()
  | Ok job -> (
      match Job.run job with
      | exception Sys_error e -> `Error (false, e)
      | exception Unix.Unix_error (err, fn, arg) ->
          `Error (false, Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err))
      | exception e -> `Error (false, "job crashed: " ^ Printexc.to_string e)
      | Error e -> `Error (false, e)
      | Ok outcome -> (
          (match format with
          | `Text -> print_string (Job.render_text job outcome)
          | `Json -> print_endline (Job.render_json job outcome));
          match Job.failure outcome with
          | None -> `Ok ()
          | Some msg -> `Error (false, msg)))

(* --- flow -------------------------------------------------------------- *)

let flow_cmd =
  let run seed count mem_bytes target policy vcd_prefix profile equiv format
      deterministic config_file dump =
    let config = Run_config.make ~mem_bytes ~target ~policy ?vcd_prefix ~profile ~equiv () in
    run_job ~expected:"flow" ~config_file ~dump ~format
      {
        Job.j_kind = Job.Flow;
        j_config = config;
        j_seed = seed;
        j_count = count;
        j_jobs = None;
        j_deterministic = deterministic;
      }
  in
  let vcd_prefix =
    Arg.(
      value & opt (some string) None
      & info [ "vcd" ] ~docv:"PREFIX" ~doc:"Dump waveforms to PREFIX_{behavioural,rtl}.vcd.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Profile each simulation run (kernel counters and phase times).")
  in
  let equiv =
    Arg.(
      value & flag
      & info [ "equiv" ]
          ~doc:
            "Add the static equivalence stage: SAT-prove the optimised netlist \
             against a raw synthesis of the same design.")
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Run the paper's complete design flow (Figure 2).")
    Term.(
      ret
        (const run $ seed $ count $ mem_bytes $ target_term $ policy $ vcd_prefix
       $ profile $ equiv $ format $ deterministic $ config_file_term $ dump_job_term))

(* --- synth ------------------------------------------------------------- *)

let synth_cmd =
  let run script policy vhdl pretty chaining fsm_dot lint =
    let design = Pci_master_design.design ~policy ~app:script () in
    if pretty then print_string (Hlcs_hlir.Pretty.design_to_string design);
    if lint then
      List.iter
        (fun w -> Format.printf "lint: %a@." Hlcs_hlir.Lint.pp_warning w)
        (Hlcs_hlir.Lint.check design);
    let options = { Synthesize.default_options with chaining } in
    let report = Synthesize.synthesize ~options design in
    Format.printf "%a@." Synthesize.pp_report report;
    (match fsm_dot with
    | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        List.iter
          (fun (proc, dot) ->
            let path = Filename.concat dir (proc ^ ".dot") in
            let oc = open_out path in
            output_string oc dot;
            close_out oc;
            Printf.printf "fsm written to %s\n" path)
          report.Synthesize.rp_fsm_dot
    | None -> ());
    match vhdl with
    | Some path ->
        Hlcs_rtl.Vhdl.write_file path report.Synthesize.rp_rtl;
        Printf.printf "netlist written to %s\n" path
    | None -> ()
  in
  let vhdl =
    Arg.(
      value & opt (some string) None
      & info [ "vhdl" ] ~docv:"FILE" ~doc:"Write the RT-level netlist as VHDL.")
  in
  let pretty =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Print the high-level source first.")
  in
  let chaining =
    Arg.(
      value & opt bool true
      & info [ "chaining" ] ~docv:"BOOL" ~doc:"Operator chaining (false = one assignment per state).")
  in
  let fsm_dot =
    Arg.(
      value & opt (some string) None
      & info [ "fsm-dot" ] ~docv:"DIR" ~doc:"Write one Graphviz file per process FSM.")
  in
  let lint =
    Arg.(value & flag & info [ "lint" ] ~doc:"Print static-analysis warnings first.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesise the PCI interface to RT level.")
    Term.(const run $ script_term $ policy $ vhdl $ pretty $ chaining $ fsm_dot $ lint)

(* --- targets ------------------------------------------------------------ *)

(* the shipped designs `equiv`, `emit` and `units` operate on *)
let design_targets script =
  [
    ("pci", fun () -> Pci_master_design.design ~app:script ());
    (* the figure-3 post-synthesis configuration, under the name the
       experiment tables use *)
    ("fig3", fun () -> Pci_master_design.design ~app:script ());
    ("sram", fun () -> Sram_master_design.design ~app:script ());
    ("dma", fun () -> Dma_design.design ~src:0 ~dst:64 ~words:8 ());
    ( "dma-buffered",
      fun () -> Dma_design.buffered_design ~src:0 ~dst:64 ~words:8 ~chunk:4 () );
  ]

(* The entries [names] pick from [targets], in order, or the usage error
   for the first unknown name, which lists every target. *)
let pick_targets targets names =
  match List.find_opt (fun n -> not (List.mem_assoc n targets)) names with
  | Some bad ->
      Error
        (`Error
          ( false,
            Printf.sprintf "unknown target %S (expected %s)" bad
              (String.concat "|" (List.map fst targets)) ))
  | None -> Ok (List.map (fun n -> (n, List.assoc n targets)) names)

(* --- lint --------------------------------------------------------------- *)

module Analyze = Hlcs_analysis.Analyze
module Fixtures = Hlcs_analysis.Fixtures

let lint_cmd =
  (* a target is either a shipped library element (analysed at the HLIR
     level, then synthesised and re-analysed at the netlist level) or one
     of the seeded demo fixtures showing each analysis firing *)
  let lint_design ~config name design =
    let hlir = Analyze.design ~config design in
    if Analyze.errors hlir <> [] then [ (name, hlir) ]
    else
      let report = Synthesize.synthesize design in
      [ (name, hlir @ Analyze.rtl ~config report.Synthesize.rp_rtl) ]
  in
  let lint_netlist ~config name netlist = [ (name, Analyze.rtl ~config netlist) ] in
  let targets script =
    [
      ("pci", fun config -> lint_design ~config "pci" (Pci_master_design.design ~app:script ()));
      ("sram", fun config -> lint_design ~config "sram" (Sram_master_design.design ~app:script ()));
      ( "dma",
        fun config ->
          lint_design ~config "dma" (Dma_design.design ~src:0 ~dst:64 ~words:8 ())
          @ lint_design ~config "dma-buffered"
              (Dma_design.buffered_design ~src:0 ~dst:64 ~words:8 ~chunk:4 ()) );
      ( "demo-deadlock",
        fun config -> [ ("demo-deadlock", Analyze.design ~config (Fixtures.deadlock_design ())) ] );
      ( "demo-starvation",
        fun config ->
          [ ("demo-starvation", Analyze.design ~config (Fixtures.starvation_design ())) ] );
      ( "demo-multidriver",
        fun config -> lint_netlist ~config "demo-multidriver" (Fixtures.multi_driver_netlist ()) );
      ( "demo-combloop",
        fun config -> lint_netlist ~config "demo-combloop" (Fixtures.comb_loop_netlist ()) );
      ( "demo-xsource",
        fun config -> lint_netlist ~config "demo-xsource" (Fixtures.x_source_netlist ()) );
    ]
  in
  let list_rules format =
    (match format with
    | `Text ->
        Printf.printf "%-24s %-8s %-8s %s\n" "rule" "category" "severity"
          "description";
        List.iter
          (fun (r : Diag.rule_info) ->
            Printf.printf "%-24s %-8s %-8s %s\n" r.Diag.ri_id r.Diag.ri_category
              (Diag.severity_to_string r.Diag.ri_severity)
              r.Diag.ri_doc)
          Diag.rules
    | `Json ->
        print_json_rows
          (List.map
             (fun (r : Diag.rule_info) ->
               Json.Obj
                 [
                   ("rule", Json.String r.Diag.ri_id);
                   ("category", Json.String r.Diag.ri_category);
                   ("severity", Json.String (Diag.severity_to_string r.Diag.ri_severity));
                   ("doc", Json.String r.Diag.ri_doc);
                 ])
             Diag.rules));
    exit 0
  in
  let run script names format strict disabled info rules_only =
    if rules_only then list_rules format;
    let config =
      {
        Diag.disabled_rules = disabled;
        Diag.min_severity = (if info then Diag.Info else Diag.Warning);
      }
    in
    let names = if names = [] then [ "pci"; "sram"; "dma" ] else names in
    match pick_targets (targets script) names with
    | Error e -> e
    | Ok picked ->
        let results = List.concat_map (fun (_, lint) -> lint config) picked in
        (match format with
        | `Text ->
            List.iter
              (fun (name, diags) ->
                print_string (Diag.render_text ~header:name diags))
              results
        | `Json ->
            print_json_rows (List.map (fun (name, diags) -> Diag.to_json ~name diags) results));
        exit (Diag.exit_code ~strict (List.concat_map snd results))
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Designs to analyse: pci, sram, dma (default: all three), or the seeded \
             demos demo-deadlock, demo-starvation, demo-multidriver, demo-combloop, \
             demo-xsource.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings as well as errors.")
  in
  let disabled =
    Arg.(
      value & opt (list string) []
      & info [ "disable" ] ~docv:"RULES"
          ~doc:"Comma-separated rule ids to silence (see --list-rules).")
  in
  let with_info =
    Arg.(
      value & flag
      & info [ "info" ] ~doc:"Also report info-level diagnostics (style notes).")
  in
  let rules_only =
    Arg.(
      value & flag
      & info [ "list-rules" ]
          ~doc:
            "Print every registered rule id with its category, default severity \
             and one-line description, then exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: typecheck, lint, guarded-method deadlock and arbitration \
          checks at the HLIR level; driver, loop, width and X-source checks on the \
          synthesised netlist.")
    Term.(
      ret
        (const run $ script_term $ names $ format $ strict $ disabled $ with_info
       $ rules_only))

(* --- equiv -------------------------------------------------------------- *)

module Cec = Hlcs_analysis.Cec
module Sat = Hlcs_analysis.Sat

let equiv_cmd =
  (* shipped designs are proved raw-synthesis vs optimised netlist; the
     demo fixtures exercise the two inequivalence paths (a functional
     miscompilation and an X-strengthening rewrite) *)
  let synth_pair design =
    let raw =
      Synthesize.synthesize
        ~options:{ Synthesize.default_options with Synthesize.optimize = false }
        design
    in
    let opt = Synthesize.synthesize design in
    (raw.Synthesize.rp_rtl, opt.Synthesize.rp_rtl)
  in
  let targets script =
    List.map (fun (name, mk) -> (name, fun () -> synth_pair (mk ()))) (design_targets script)
    @ [
        ("demo-miscompiled", Fixtures.miscompiled_pair);
        ("demo-xstrengthen", Fixtures.x_strengthened_pair);
      ]
  in
  let verdict_name = function
    | Cec.Equivalent -> "equivalent"
    | Cec.Inequivalent _ -> "inequivalent"
    | Cec.Incomparable _ -> "incomparable"
  in
  let hex v = Format.asprintf "%a" Hlcs_logic.Bitvec.pp v in
  let json_of_report name (r : Cec.report) =
    let st = Cec.total_stats r in
    let count p = Json.Int (List.length (List.filter p r.Cec.rp_checks)) in
    let pins l =
      Json.List
        (List.map
           (fun (n, v) -> Json.Obj [ ("name", Json.String n); ("value", Json.String (hex v)) ])
           l)
    in
    let cex =
      match r.Cec.rp_verdict with
      | Cec.Inequivalent cx ->
          Json.Obj
            [
              ("signal", Json.String cx.Cec.cx_signal);
              ("left", Json.String (Cec.tv_to_string cx.Cec.cx_left));
              ("right", Json.String (Cec.tv_to_string cx.Cec.cx_right));
              ("inputs", pins cx.Cec.cx_inputs);
              ("regs", pins cx.Cec.cx_regs);
            ]
      | _ -> Json.Null
    in
    Json.Obj
      ([
         ("design", Json.String name);
         ("verdict", Json.String (verdict_name r.Cec.rp_verdict));
         ("aig_nodes", Json.Int r.Cec.rp_aig_nodes);
         ( "checks",
           Json.Obj
             [
               ("total", Json.Int (List.length r.Cec.rp_checks));
               ("structural", count (fun c -> c.Cec.ck_structural));
               ("sat", count (fun c -> c.Cec.ck_stats <> None));
             ] );
         ( "stats",
           Json.Obj
             [
               ("vars", Json.Int st.Sat.st_vars);
               ("clauses", Json.Int st.Sat.st_clauses);
               ("learned", Json.Int st.Sat.st_learned);
               ("conflicts", Json.Int st.Sat.st_conflicts);
               ("decisions", Json.Int st.Sat.st_decisions);
               ("propagations", Json.Int st.Sat.st_propagations);
               ("restarts", Json.Int st.Sat.st_restarts);
             ] );
         ("counterexample", cex);
       ]
      @ Diag.json_members (Cec.to_diags ~design:name r))
  in
  let print_text name (r : Cec.report) =
    let st = Cec.total_stats r in
    let structural =
      List.length (List.filter (fun c -> c.Cec.ck_structural) r.Cec.rp_checks)
    in
    Printf.printf "%s: %s\n" name (verdict_name r.Cec.rp_verdict);
    Printf.printf
      "  %d function(s) checked (%d structural, %d via SAT), %d AIG node(s)\n"
      (List.length r.Cec.rp_checks)
      structural
      (List.length r.Cec.rp_checks - structural)
      r.Cec.rp_aig_nodes;
    if st.Sat.st_vars > 0 then
      Printf.printf
        "  sat: %d var(s), %d clause(s), %d learned, %d conflict(s), %d \
         decision(s), %d propagation(s), %d restart(s)\n"
        st.Sat.st_vars st.Sat.st_clauses st.Sat.st_learned st.Sat.st_conflicts
        st.Sat.st_decisions st.Sat.st_propagations st.Sat.st_restarts;
    (match r.Cec.rp_verdict with
    | Cec.Inequivalent cx ->
        Printf.printf "  counterexample: %s\n" (Cec.counterexample_to_string cx)
    | Cec.Incomparable reasons ->
        List.iter (fun m -> Printf.printf "  footprint: %s\n" m) reasons
    | Cec.Equivalent -> ())
  in
  let run script names format strict =
    let names = if names = [] then [ "pci"; "sram"; "dma" ] else names in
    match pick_targets (targets script) names with
    | Error e -> e
    | Ok picked ->
        let results =
          List.map
            (fun (n, pair) ->
              let left, right = pair () in
              (n, Cec.check left right))
            picked
        in
        (match format with
        | `Text -> List.iter (fun (n, r) -> print_text n r) results
        | `Json -> print_json_rows (List.map (fun (n, r) -> json_of_report n r) results));
        let diags =
          List.concat_map (fun (n, r) -> Cec.to_diags ~design:n r) results
        in
        exit (Diag.exit_code ~strict diags)
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Designs to prove: pci (alias fig3), sram, dma, dma-buffered \
             (default: pci sram dma) — each raw synthesis vs optimised \
             netlist — or the seeded demos demo-miscompiled and \
             demo-xstrengthen.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings as well as errors.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "SAT-based combinational equivalence check: prove the optimised \
          netlist equivalent to a raw synthesis of the same design \
          (three-valued — X-strengthening optimisations are rejected), or \
          print a concrete counterexample stimulus.")
    Term.(ret (const run $ script_term $ names $ format $ strict))

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let run seed count mem_bytes target policy which format deterministic config_file
      dump =
    let config = Run_config.make ~mem_bytes ~target ~policy ~profile:true () in
    run_job ~expected:"profile" ~config_file ~dump ~format
      {
        Job.j_kind = Job.Profile which;
        j_config = config;
        j_seed = seed;
        j_count = count;
        j_jobs = None;
        j_deterministic = deterministic;
      }
  in
  let which =
    let designs =
      [
        ("tlm", `Tlm);
        ("pin", `Pin);
        ("rtl", `Rtl);
        (* the figure-3 post-synthesis configuration, under the name the
           experiment tables use *)
        ("fig3", `Rtl);
        ("sram-pin", `Sram_pin);
        ("sram-rtl", `Sram_rtl);
      ]
    in
    Arg.(
      value
      & pos 0 (enum designs) `Rtl
      & info [] ~docv:"DESIGN"
          ~doc:
            "Configuration to profile: tlm, pin, rtl (default, also reachable \
             as fig3), sram-pin or sram-rtl.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Simulate one configuration with kernel profiling enabled and report \
          scheduler counters and per-phase times.")
    Term.(
      ret
        (const run $ seed $ count $ mem_bytes $ target_term $ policy $ which
       $ format $ deterministic $ config_file_term $ dump_job_term))

(* --- sweep -------------------------------------------------------------- *)

let sweep_cmd =
  let run n jobs seed count mem_bytes policy target vary no_cache profile vcd_dir
      format deterministic smoke config_file dump =
    (* --smoke: the CI-sized sweep — few small jobs, profiling on so the
       merged snapshot (and its cache counters) is exercised too *)
    let n, count, profile = if smoke then (4, 4, true) else (n, count, profile) in
    let config = Run_config.make ~mem_bytes ~target ~policy ?vcd_prefix:vcd_dir ~profile () in
    let config = if no_cache then Run_config.without_cache config else config in
    run_job ~expected:"sweep" ~config_file ~dump ~format
      {
        Job.j_kind = Job.Sweep { n; vary };
        j_config = config;
        j_seed = seed;
        j_count = count;
        j_jobs = jobs;
        j_deterministic = deterministic;
      }
  in
  let n =
    Arg.(
      value
      & opt (ranged_int "n" Job.count_range) 16
      & info [ "n"; "sweep" ] ~docv:"N" ~doc:"Number of scenarios (jobs) to run.")
  in
  let vary =
    Arg.(
      value
      & opt (enum [ ("env", `Environment); ("stimuli", `Stimuli) ]) `Environment
      & info [ "vary" ] ~docv:"AXIS"
          ~doc:
            "Sweep axis: env varies the target-memory contents over one design \
             (the whole sweep synthesises once); stimuli varies the request \
             script, giving one design per job.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the content-hashed synthesis cache (each job synthesises).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Profile every job's simulation runs and report the merged kernel \
             snapshot (counters summed, peaks maxed) with the cache counters \
             attached.")
  in
  let vcd_dir =
    Arg.(
      value & opt (some string) None
      & info [ "vcd-dir" ] ~docv:"DIR"
          ~doc:"Dump per-job waveforms to DIR/<job>_{behavioural,rtl}.vcd.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI preset: 4 small profiled jobs (overrides --n and --count).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Batch-validate the design across a scenario sweep: one complete design \
          flow per seed, farmed over a pool of domains with a shared \
          content-hashed synthesis cache.")
    Term.(
      ret
        (const run $ n $ jobs $ seed $ count $ mem_bytes $ policy $ target_term
       $ vary $ no_cache $ profile $ vcd_dir $ format $ deterministic $ smoke
       $ config_file_term $ dump_job_term))

(* --- fault -------------------------------------------------------------- *)

let fault_cmd =
  let run n jobs seed fault_seed count mem_bytes policy target vcd_dir format
      deterministic smoke config_file dump =
    (* --smoke: the CI-sized campaign — one cycle through the fault
       families on a small script *)
    let n, count = if smoke then (8, 4) else (n, count) in
    let config =
      Run_config.make ~mem_bytes ~target ~policy ?vcd_prefix:vcd_dir ()
    in
    run_job ~expected:"fault" ~config_file ~dump ~format
      {
        Job.j_kind = Job.Fault { n; fault_seed };
        j_config = config;
        j_seed = seed;
        j_count = count;
        j_jobs = jobs;
        j_deterministic = deterministic;
      }
  in
  let n =
    Arg.(
      value
      & opt (ranged_int "n" Job.count_range) 8
      & info [ "n"; "scenarios" ] ~docv:"N"
          ~doc:
            "Number of fault scenarios (scenario 0 is the fault-free control; \
             8 cycles once through the fault families).")
  in
  let fault_seed =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Campaign seed: parametrises every injected fault (deterministic \
             and replayable at any --jobs).")
  in
  let vcd_dir =
    Arg.(
      value & opt (some string) None
      & info [ "vcd-dir" ] ~docv:"DIR"
          ~doc:"Dump per-scenario waveforms to DIR/<scenario>_{behavioural,rtl}.vcd.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI preset: 8 scenarios on a small script (overrides --n and --count).")
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Run a seeded fault-injection campaign: kernel glitches and scheduling \
          jitter, PCI target misbehaviour (wait-stretch, retry, disconnect, \
          abort), arbiter starvation and interface stalls, each run classified \
          against the paper's equivalence invariant (survived / degraded / \
          inconsistent).")
    Term.(
      ret
        (const run $ n $ jobs $ seed $ fault_seed $ count $ mem_bytes $ policy
       $ target_term $ vcd_dir $ format $ deterministic $ smoke
       $ config_file_term $ dump_job_term))

(* --- swarm -------------------------------------------------------------- *)

let swarm_cmd =
  let run budget batch epsilon blind target_coverage mode jobs seed fault_seed
      count mem_bytes policy target format deterministic smoke config_file dump =
    (* --smoke: the CI-sized campaign — a small budget on short scripts,
       flow mode so the verdict lattice is exercised too.  Inconsistent
       verdicts and monitor violations are campaign findings (data), not
       infrastructure failures: Job.failure only fails on crashed jobs. *)
    let budget, batch, count, mem_bytes, fault_seed =
      if smoke then (16, 4, 3, 256, 1) else (budget, batch, count, mem_bytes, fault_seed)
    in
    let config = Run_config.make ~mem_bytes ~target ~policy () in
    run_job ~expected:"swarm" ~config_file ~dump ~format
      {
        Job.j_kind =
          Job.Swarm
            {
              budget;
              batch;
              epsilon;
              guided = not blind;
              target_ratio = target_coverage;
              mode;
              fault_seed;
            };
        j_config = config;
        j_seed = seed;
        j_count = count;
        j_jobs = jobs;
        j_deterministic = deterministic;
      }
  in
  let budget =
    Arg.(
      value
      & opt (ranged_int "budget" Job.positive_range) 32
      & info [ "budget" ] ~docv:"N" ~doc:"Total number of scenario jobs to spend.")
  in
  let batch =
    Arg.(
      value
      & opt (ranged_int "batch" Job.positive_range) 4
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Jobs per scheduling round (allocation decisions are taken between \
             rounds, from merged coverage).")
  in
  let epsilon =
    Arg.(
      value
      & opt (ranged float (Job.ratio_in_range "epsilon")) 0.2
      & info [ "epsilon" ] ~docv:"P"
          ~doc:"Exploration probability of the guided scheduler, in [0, 1].")
  in
  let blind =
    Arg.(
      value & flag
      & info [ "blind" ]
          ~doc:
            "Disable coverage guidance: spend the budget blind round-robin over \
             the fault families (the comparison baseline).")
  in
  let target_coverage =
    Arg.(
      value
      & opt (some (ranged float (Job.ratio_in_range "target_ratio"))) None
      & info [ "target-coverage" ] ~docv:"R"
          ~doc:
            "Stop early once merged declared-bin coverage reaches R, in [0, 1] \
             (e.g. 0.85); the report records whether the target was reached.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("flow", `Flow); ("pin", `Pin) ]) `Flow
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "What each job runs: flow (the complete refinement flow, covers the \
             fault-verdict lattice) or pin (behavioural pin-accurate simulation \
             only — much cheaper per job).")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Campaign seed for the per-family fault plans.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI preset: budget 16 in batches of 4 on short scripts (overrides \
             --budget, --batch, --count, --mem-bytes and --fault-seed).")
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Coverage-guided scenario swarm: spend a budget of fault-campaign jobs \
          across the fault families, steering the remaining budget toward \
          families that keep closing new functional-coverage bins (crossed PCI \
          transaction plan, fault-verdict lattice, temporal-monitor verdicts); \
          --blind replays the same budget round-robin for comparison.")
    Term.(
      ret
        (const run $ budget $ batch $ epsilon $ blind $ target_coverage $ mode
       $ jobs $ seed $ fault_seed $ count $ mem_bytes $ policy $ target_term
       $ format $ deterministic $ smoke $ config_file_term $ dump_job_term))

(* --- emit --------------------------------------------------------------- *)

let emit_cmd =
  (* each target is synthesised with the default (optimising) options,
     then the RT-level netlist is printed in the requested language *)
  let run script name lang out =
    match pick_targets (design_targets script) [ name ] with
    | Error e -> e
    | Ok picked ->
        let mk = List.assoc name picked in
        let report = Synthesize.synthesize (mk ()) in
        let rtl = report.Synthesize.rp_rtl in
        let text =
          match lang with
          | `Verilog -> Hlcs_rtl.Verilog.to_string rtl
          | `Vhdl -> Hlcs_rtl.Vhdl.to_string rtl
        in
        (match out with
        | None -> print_string text
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "netlist written to %s\n" path);
        `Ok ()
  in
  let target_name =
    Arg.(
      value
      & pos 0 string "pci"
      & info [] ~docv:"TARGET"
          ~doc:
            "Design to emit: pci (default, alias fig3), sram, dma or \
             dma-buffered.")
  in
  let lang =
    Arg.(
      value
      & opt (enum [ ("verilog", `Verilog); ("vhdl", `Vhdl) ]) `Verilog
      & info [ "lang" ] ~docv:"LANG"
          ~doc:"Output language: verilog (default, Verilog-2001) or vhdl.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Synthesise a design and print its RT-level netlist as Verilog or \
          VHDL.")
    Term.(ret (const run $ script_term $ target_name $ lang $ out))

(* --- units -------------------------------------------------------------- *)

let units_cmd =
  (* the incremental-synthesis partition: what `Synth_cache` keys its
     fragment tier by.  Editing a unit changes exactly the signatures
     shown here (its own, plus — for an interface change — those of its
     clients), so the table doubles as a dirtiness debugger. *)
  let run script name =
    match pick_targets (design_targets script) [ name ] with
    | Error e -> e
    | Ok picked ->
        let mk = List.assoc name picked in
        let design = mk () in
        let pl = Synthesize.plan design in
        Printf.printf "design %s: %d synthesis units\n" pl.Synthesize.pl_name
          (List.length pl.Synthesize.pl_units);
        Printf.printf "%-34s %-34s %8s %8s %8s\n" "unit" "signature" "wires"
          "regs" "gates";
        List.iter
          (fun (pu : Synthesize.plan_unit) ->
            let frag =
              Synthesize.synthesize_unit pl.Synthesize.pl_options
                pu.Synthesize.u_decl
            in
            let st =
              Hlcs_rtl.Stats.of_design (Synthesize.fragment_design frag)
            in
            Printf.printf "%-34s %-34s %8d %8d %8d\n" pu.Synthesize.u_name
              pu.Synthesize.u_signature st.Hlcs_rtl.Stats.wires
              st.Hlcs_rtl.Stats.registers st.Hlcs_rtl.Stats.gate_estimate)
          pl.Synthesize.pl_units;
        `Ok ()
  in
  let target_name =
    Arg.(
      value
      & pos 0 string "pci"
      & info [] ~docv:"TARGET"
          ~doc:
            "Design to partition: pci (default, alias fig3), sram, dma or \
             dma-buffered.")
  in
  Cmd.v
    (Cmd.info "units"
       ~doc:
         "Print the incremental-synthesis unit partition of a design: one row \
          per process / shared object / port bundle with its content \
          signature (the fragment-cache key) and per-fragment resource \
          statistics.")
    Term.(ret (const run $ script_term $ target_name))

(* --- waves ------------------------------------------------------------- *)

let waves_cmd =
  let run mem_bytes target out =
    (* the default prefix lives under waves/ so demo runs stop littering
       the working directory with pci_*.vcd dumps *)
    let dir = Filename.dirname out in
    if dir <> "." && not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let script = Pci_stim.directed_smoke ~base:0 in
    let config =
      Run_config.make ~mem_bytes ~target ~vcd_prefix:out ()
    in
    let b = System.pin config ~script in
    let c = System.rtl config ~script in
    Format.printf "%a@.%a@." System.pp_report b System.pp_report c;
    List.iter
      (fun tx -> Format.printf "  %a@." Hlcs_pci.Pci_types.pp_transaction tx)
      b.System.rr_transactions;
    Printf.printf "written: %s_behavioural.vcd, %s_rtl.vcd\n" out out
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "waves" "pci")
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Output prefix (default waves/pci; the directory is created).")
  in
  Cmd.v
    (Cmd.info "waves" ~doc:"Dump the Figure-4 waveforms (pre- and post-synthesis).")
    Term.(const run $ mem_bytes $ target_term $ out)

(* --- latency ------------------------------------------------------------ *)

let latency_cmd =
  let run rounds max_callers =
    Printf.printf "%-14s" "callers";
    let points =
      List.filter (fun n -> n <= max_callers) [ 1; 2; 4; 8; 12; 16; 24; 32 ]
    in
    List.iter (fun n -> Printf.printf "%8d" n) points;
    print_newline ();
    List.iter
      (fun policy ->
        Printf.printf "%-14s" (Policy.to_string policy);
        List.iter
          (fun nprocs ->
            let cycles = Contention_design.rtl_cycles ~policy ~nprocs ~rounds in
            Printf.printf "%8.1f" (float_of_int cycles /. float_of_int rounds))
          points;
        Printf.printf "   (cycles per call round)\n")
      Policy.all
  in
  let rounds =
    Arg.(
      value
      & opt (ranged_int "rounds" Contention_design.rounds_range) 16
      & info [ "rounds" ] ~docv:"N" ~doc:"Calls per caller (1 to 255).")
  in
  let max_callers =
    Arg.(
      value
      & opt (ranged_int "max_callers" Contention_design.callers_range) 16
      & info [ "max-callers" ] ~docv:"N" ~doc:"Largest caller count (1 to 32).")
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Method-call completion latency vs concurrent callers (FW1).")
    Term.(const run $ rounds $ max_callers)

(* --- serve / submit ------------------------------------------------------ *)

module Serve = Hlcs_serve.Serve
module Protocol = Hlcs_serve.Protocol

let capacity_term =
  Arg.(
    value
    & opt (ranged_int "capacity" Job.positive_range) 64
    & info [ "capacity" ] ~docv:"N"
        ~doc:
          "Admission bound: submissions past N queued jobs are rejected with \
           a structured retry hint (backpressure, never a crash).")

let batch_term =
  Arg.(
    value
    & opt (some (ranged_int "batch" Job.positive_range)) None
    & info [ "batch" ] ~docv:"N"
        ~doc:"Jobs per pool batch at a drain (default: the whole queue).")

let socket_term =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket capacity batch jobs max_connections =
    let cfg = { Serve.sv_capacity = capacity; sv_batch = batch; sv_jobs = jobs } in
    match socket with
    | Some path ->
        Serve.serve_unix ?max_connections cfg ~path;
        `Ok ()
    | None ->
        (* stdio mode: one session over this process's stdin/stdout —
           length-prefixed frames in, events out; used by the protocol
           contract tests and by pipeline embeddings *)
        let _ = Serve.session cfg stdin stdout in
        `Ok ()
  in
  let max_connections =
    Arg.(
      value & opt (some int) None
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Exit after N socket sessions even without a shutdown request.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the job daemon: flow/profile/sweep/fault/swarm requests as JSON \
          frames over a Unix socket (--socket) or stdin/stdout, scheduled on \
          the domain pool behind a bounded admission queue with round-robin \
          per-client fairness and streamed structured events.")
    Term.(ret (const run $ socket_term $ capacity_term $ batch_term $ jobs $ max_connections))

let submit_cmd =
  let run socket config_file id timeout_ms shutdown print_events seed count
      mem_bytes target policy deterministic =
    let job =
      match config_file with
      | Some path -> Job.parse (read_file path)
      | None ->
          (* no file: a flow job from the common flags — the one-liner
             client for the acceptance path *)
          Ok
            {
              Job.j_kind = Job.Flow;
              j_config = Run_config.make ~mem_bytes ~target ~policy ();
              j_seed = seed;
              j_count = count;
              j_jobs = None;
              j_deterministic = deterministic;
            }
    in
    match job with
    | Error e -> `Error (false, e)
    | Ok job -> (
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error (e, _, _) ->
            finally ();
            (* like an unusable --vcd path: one line, exit 124 *)
            `Error
              ( false,
                Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e) )
        | () ->
        Fun.protect ~finally (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            Protocol.write_frame oc
              (Protocol.submit_to_string ~id ?timeout_ms (Job.to_json_value job));
            Protocol.write_frame oc (Protocol.simple_request_to_string `Drain);
            if shutdown then
              Protocol.write_frame oc (Protocol.simple_request_to_string `Shutdown);
            (* read events until our result (or a terminal error) arrives *)
            let result = ref None in
            let finished = ref false in
            while not !finished do
              match Protocol.read_frame ic with
              | Ok None | Error _ -> finished := true
              | Ok (Some payload) -> (
                  if print_events then print_endline payload;
                  match Json.parse payload with
                  | Error _ -> ()
                  | Ok j -> (
                      let event = Json.string_field "event" j in
                      let jid = Json.string_field "id" j in
                      match (event, jid) with
                      | Ok "result", Ok jid when jid = id ->
                          result := Some (Ok j);
                          if not shutdown then finished := true
                      | Ok ("error" | "rejected"), Ok jid when jid = id ->
                          result := Some (Error j);
                          if not shutdown then finished := true
                      | Ok "bye", _ -> finished := true
                      | _ -> ()))
            done;
            match !result with
            | None -> `Error (false, "daemon closed the stream without a result")
            | Some (Error j) ->
                let detail =
                  match
                    (Json.member "error" j, Json.member "reason" j)
                  with
                  | Some (Json.String e), _ -> e
                  | _, Some (Json.String r) -> r
                  | _ -> Json.to_string j
                in
                `Error (false, detail)
            | Some (Ok j) -> (
                (match Json.member "payload" j with
                | Some p -> if not print_events then print_endline (Json.to_string p)
                | None -> ());
                match Json.member "ok" j with
                | Some (Json.Bool true) -> `Ok ()
                | _ -> (
                    match Json.member "failure" j with
                    | Some (Json.String f) -> `Error (false, f)
                    | _ -> `Error (false, "job failed")))))
  in
  let socket =
    Arg.(
      required & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")
  in
  let id =
    Arg.(
      value & opt string "job-1"
      & info [ "id" ] ~docv:"ID" ~doc:"Client-chosen job id tagging the events.")
  in
  let timeout_ms =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Queue-wait bound: if the job is still queued after MS \
             milliseconds it is reported as a structured timeout error \
             instead of running.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to shut down after this job.")
  in
  let print_events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Print every event frame as it streams instead of only the final \
             result payload.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one job to a running daemon and print the result payload: \
          either --config JOB.json (any kind) or a flow job built from the \
          common flags.")
    Term.(
      ret
        (const run $ socket $ config_file_term $ id $ timeout_ms $ shutdown
       $ print_events $ seed $ count $ mem_bytes $ target_term $ policy
       $ deterministic))

(* --- wavediff ----------------------------------------------------------- *)

let wavediff_cmd =
  let run file_a file_b ignore_signals =
    let report = Hlcs_verify.Wave_diff.compare_files file_a file_b in
    Format.printf "%a@." Hlcs_verify.Wave_diff.pp_report report;
    let ok = Hlcs_verify.Wave_diff.consistent ~ignore:ignore_signals report in
    Printf.printf "consistent%s: %b\n"
      (if ignore_signals = [] then ""
       else " (ignoring " ^ String.concat ", " ignore_signals ^ ")")
      ok;
    if ok then `Ok () else `Error (false, "waveforms differ")
  in
  let file n =
    Arg.(required & pos n (some file) None & info [] ~docv:(Printf.sprintf "VCD%d" n))
  in
  let ignore_signals =
    Arg.(
      value
      & opt (list string) [ "clk" ]
      & info [ "ignore" ] ~docv:"SIGNALS"
          ~doc:"Comma-separated signals excluded from the verdict (default: clk).")
  in
  Cmd.v
    (Cmd.info "wavediff"
       ~doc:"Compare two VCD dumps by per-signal value sequences (time-abstracted).")
    Term.(ret (const run $ file 0 $ file 1 $ ignore_signals))

let () =
  let info =
    Cmd.info "hlcs_cli" ~version:"1.0.0"
      ~doc:
        "High-level communication synthesis — reproduction of Bruschi & Bombana (DATE 2004)."
  in
  exit
    (Cli_common.eval_group info
       [
         flow_cmd;
         synth_cmd;
         lint_cmd;
         equiv_cmd;
         emit_cmd;
         units_cmd;
         profile_cmd;
         sweep_cmd;
         fault_cmd;
         swarm_cmd;
         serve_cmd;
         submit_cmd;
         waves_cmd;
         latency_cmd;
         wavediff_cmd;
       ])
