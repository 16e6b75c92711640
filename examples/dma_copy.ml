(* A DMA block-copy engine as a second unit under design.

   The mover issues read and write commands exclusively through the
   guarded-method interface object — no pin-level code at all — and the
   bus-interface library element turns them into PCI transactions.  We run
   the executable specification, synthesise everything (mover + interface),
   re-run at RT level, and check that the destination block in the target
   memory matches the source block in both models.

   Run with:  dune exec examples/dma_copy.exe *)

open Hlcs_interface
module Pci_memory = Hlcs_pci.Pci_memory
module T = Hlcs_engine.Time

let words = 16
let src = 0x000
let dst = 0x100

let block_of mem base =
  List.init words (fun i -> Pci_memory.read32 mem (base + (4 * i)))

let run_variant ~label design =
  let script = [] (* the mover needs no external stimuli *) in
  let config = Run_config.(default |> with_mem_bytes 1024) in
  let b =
    System.pin
      ~label:(label ^ "-behavioural")
      ~design
      (Run_config.with_max_time (T.us 2_000) config)
      ~script
  in
  let c =
    System.rtl ~label:(label ^ "-rtl")
      ~synthesis:(Run_config.synthesize config design)
      (Run_config.with_max_time (T.us 8_000) config)
      ~script
  in
  Format.printf "%a@.%a@." System.pp_report b System.pp_report c;
  let check (r : System.run_report) =
    let copied = block_of r.System.rr_memory dst = block_of r.System.rr_memory src in
    Printf.printf "%-24s copied %d words correctly: %b (violations: %d)\n"
      r.System.rr_label words copied
      (List.length r.System.rr_violations);
    copied && r.System.rr_violations = []
  in
  let ok_b = check b and ok_c = check c in
  let consistent = System.compare_runs b c = [] && System.compare_bus_traces b c = [] in
  Printf.printf "%s: behavioural and RT-level runs consistent: %b\n\n" label consistent;
  (ok_b && ok_c && consistent, b, c)

let () =
  (* word-by-word ping-pong: 2 bus transactions per word *)
  let ok1, b1, _ = run_variant ~label:"dma" (Dma_design.design ~src ~dst ~words ()) in
  (* burst-buffered: a staging register file (an object array) turns the
     copy into chunked read/write bursts *)
  let ok2, b2, _ =
    run_variant ~label:"dma-buffered"
      (Dma_design.buffered_design ~src ~dst ~words ~chunk:8 ())
  in
  Printf.printf
    "burst buffering: %d -> %d bus transactions, %d -> %d behavioural cycles\n"
    (List.length b1.System.rr_transactions)
    (List.length b2.System.rr_transactions)
    b1.System.rr_cycles b2.System.rr_cycles;
  exit (if ok1 && ok2 then 0 else 1)
