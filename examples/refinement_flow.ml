(* Figures 2 and 3 of the paper: the complete design flow.

   The same application (a stimuli generator issuing bus requests through
   the guarded-method interface) is run against:
     A. the functional (TLM) interface — fast, no pins;
     B. the pin-accurate library element, behavioural — the executable
        specification;
     C. the synthesised RT-level model.

   The flow driver checks behaviour consistency at each refinement step,
   exactly the paper's three-step experiment.

   Run with:  dune exec examples/refinement_flow.exe *)

module Flow = Hlcs.Flow
module Run_config = Hlcs.Run_config
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target

let () =
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:2004 ~count:12 ~base:0 ~size_bytes:1024 ())
  in
  Printf.printf "workload: %d requests (seeded random, writes later read back)\n\n"
    (List.length script);
  (* a less-than-ideal target: slow decode, wait states, occasional retry *)
  let target =
    { Pci_target.default_config with devsel_latency = 2; wait_states = 1;
      retry_every = Some 6 }
  in
  let report = Flow.execute Run_config.(default |> with_target target) ~script in
  Format.printf "%a@." Flow.pp_report report;
  (match report.Flow.fl_artefacts with
  | None -> print_endline "static analysis rejected the design; no simulations run"
  | Some a ->
      let b = a.Flow.fl_behavioural and c = a.Flow.fl_rtl in
      Printf.printf
        "communication refinement cost: %d cycles behavioural -> %d cycles RTL (%.1fx)\n"
        b.Hlcs_interface.System.rr_cycles c.Hlcs_interface.System.rr_cycles
        (float_of_int c.Hlcs_interface.System.rr_cycles
        /. float_of_int (max 1 b.Hlcs_interface.System.rr_cycles)));
  exit (if report.Flow.fl_ok then 0 else 1)
