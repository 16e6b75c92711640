(* Figure 4 of the paper: simulate the executable model — application +
   bus-interface library element + pin-level PCI bus with a target memory
   — and dump the bus waveforms to VCD files, pre- and post-synthesis.

   Open the produced files with any wave viewer (e.g. gtkwave):
     pci_behavioural.vcd   the executable specification
     pci_rtl.vcd           the synthesised RT-level model

   Run with:  dune exec examples/pci_transfer.exe *)

open Hlcs_interface
module Pci_types = Hlcs_pci.Pci_types
module Pci_stim = Hlcs_pci.Pci_stim

let () =
  let script =
    Pci_stim.directed_smoke ~base:0
    @ [
        (* a longer burst to make the waveform interesting *)
        {
          Pci_types.rq_command = Mem_write_invalidate;
          rq_address = 0x40;
          rq_length = 8;
          rq_data = List.init 8 (fun i -> 0x1000 * (i + 1));
        };
        { Pci_types.rq_command = Mem_read_line; rq_address = 0x40; rq_length = 8; rq_data = [] };
      ]
  in
  (* the prefix names both dumps: pci_behavioural.vcd and pci_rtl.vcd *)
  let config = Run_config.(default |> with_mem_bytes 512 |> with_vcd_prefix "pci") in
  let behavioural = System.pin config ~script in
  let rtl = System.rtl config ~script in
  Format.printf "%a@.%a@." System.pp_report behavioural System.pp_report rtl;
  print_endline "bus transactions observed by the protocol monitor:";
  List.iter
    (fun tx -> Format.printf "  %a@." Pci_types.pp_transaction tx)
    behavioural.System.rr_transactions;
  let same_trace = System.compare_bus_traces behavioural rtl = [] in
  let same_runs = System.compare_runs behavioural rtl = [] in
  Printf.printf "behavioural == post-synthesis transaction trace: %b\n" same_trace;
  Printf.printf "application observations match: %b\n" same_runs;
  print_endline "waveforms written to pci_behavioural.vcd and pci_rtl.vcd";
  exit (if same_trace && same_runs then 0 else 1)
