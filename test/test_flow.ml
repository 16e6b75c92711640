(* The end-to-end Figure-2 design flow driver: all five stages must pass,
   and the report must carry the pieces EXPERIMENTS.md documents. *)

module Flow = Hlcs.Flow
module Run_config = Hlcs.Run_config
module Pci_stim = Hlcs_pci.Pci_stim
module Synthesize = Hlcs_synth.Synthesize

let check_flow_passes () =
  let script = Pci_stim.directed_smoke ~base:0 in
  let report = Flow.execute (Run_config.make ~mem_bytes:256 ()) ~script in
  if not report.Flow.fl_ok then
    Alcotest.failf "flow failed:@.%a" Flow.pp_report report;
  Alcotest.(check int) "five stages" 5 (List.length report.Flow.fl_stages);
  Alcotest.(check string) "analysis runs first" "static analysis"
    (List.hd report.Flow.fl_stages).Flow.sg_name;
  Alcotest.(check (list string)) "no error-level flow diagnostics" []
    (List.map
       (fun (d : Hlcs_analysis.Diag.t) -> d.Hlcs_analysis.Diag.d_rule)
       (Hlcs_analysis.Analyze.errors report.Flow.fl_diags));
  (* the synthesis stage reports the interface's structure *)
  let synth =
    match report.Flow.fl_artefacts with
    | Some a -> a.Flow.fl_synthesis
    | None -> Alcotest.fail "flow passed but artefacts missing"
  in
  Alcotest.(check bool) "engine and app compiled" true
    (List.mem_assoc "engine" synth.Synthesize.rp_process_states
    && List.mem_assoc "app" synth.Synthesize.rp_process_states);
  Alcotest.(check bool) "interface object has channels" true
    (List.assoc "bus_if" synth.Synthesize.rp_object_channels > 0);
  Alcotest.(check bool) "nontrivial hardware" true
    (synth.Synthesize.rp_stats.Hlcs_rtl.Stats.registers > 20)

let check_flow_with_faults () =
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:5 ~count:6 ~base:0 ~size_bytes:256 ())
  in
  let target =
    { Hlcs_pci.Pci_target.default_config with retry_every = Some 3; wait_states = 1 }
  in
  let report = Flow.execute (Run_config.make ~mem_bytes:256 ~target ()) ~script in
  if not report.Flow.fl_ok then
    Alcotest.failf "flow failed:@.%a" Flow.pp_report report

let check_flow_vcd () =
  let dir = Filename.temp_file "hlcs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let prefix = Filename.concat dir "fig4" in
  let report =
    Flow.execute
      (Run_config.make ~mem_bytes:256 ~vcd_prefix:prefix ())
      ~script:(Pci_stim.directed_smoke ~base:0)
  in
  Alcotest.(check bool) "flow ok" true report.Flow.fl_ok;
  List.iter
    (fun suffix ->
      let path = prefix ^ suffix in
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      Sys.remove path)
    [ "_behavioural.vcd"; "_rtl.vcd" ];
  Unix.rmdir dir

let tests =
  [
    ( "flow",
      [
        Alcotest.test_case "paper flow passes" `Slow check_flow_passes;
        Alcotest.test_case "paper flow with fault injection" `Slow check_flow_with_faults;
        Alcotest.test_case "figure-4 waveforms dumped" `Slow check_flow_vcd;
      ] );
  ]
