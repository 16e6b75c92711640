(* The library of interface elements (Section 3 of the paper):

     "when a proper library of such interfaces would be provided, in order
      to refine the communication from a high-level model down to its
      implementation, it would suffice to replace the high level interface
      with the appropriate one"

   This example runs the exact same application — same request script,
   same guarded-method calls — against three interfaces:
     1. the functional (TLM) model,
     2. the PCI bus master element (pin-accurate, arbitrated, monitored),
     3. the SRAM element (point-to-point synchronous protocol),
   and shows that the application cannot tell them apart, while the
   synthesised versions of both elements remain consistent too.

   Run with:  dune exec examples/interface_library.exe *)

open Hlcs_interface
module Pci_stim = Hlcs_pci.Pci_stim

let () =
  let mem_bytes = 1024 in
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:99 ~count:10 ~base:0 ~size_bytes:mem_bytes ())
  in
  Printf.printf "application workload: %d requests\n\n" (List.length script);
  let config = Run_config.(default |> with_mem_bytes mem_bytes) in
  let runs =
    [
      System.tlm config ~script;
      System.pin config ~script;
      System.rtl config ~script;
      Sram_system.pin config ~script;
      Sram_system.rtl config ~script;
    ]
  in
  Printf.printf "%-20s %10s %10s %12s\n" "interface" "cycles" "read-backs" "wall (s)";
  List.iter
    (fun (r : System.run_report) ->
      Printf.printf "%-20s %10d %10d %12.5f\n" r.System.rr_label r.System.rr_cycles
        (List.length r.System.rr_observed)
        r.System.rr_wall_seconds)
    runs;
  let reference = List.hd runs in
  let all_consistent =
    List.for_all (fun r -> System.compare_runs reference r = []) (List.tl runs)
  in
  Printf.printf
    "\nthe application observes identical behaviour through every element: %b\n"
    all_consistent;
  exit (if all_consistent then 0 else 1)
