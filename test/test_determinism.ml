(* Simulation determinism regression.

   The scheduler's determinism guarantees (stable timed-event queue, FIFO
   runnable queue, insertion-ordered waiter wake-ups) should make every run
   of the same design bit-for-bit reproducible, and the observability layer
   must not perturb the schedule: a profiled run has to produce exactly the
   artefacts of an unprofiled one.  Both claims are checked at the strongest
   available level — byte-identical VCD waveforms — plus the application
   observations and the bus-transaction trace. *)

module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Pci_stim = Hlcs_pci.Pci_stim

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp_dir f =
  let dir = Filename.temp_file "hlcs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let script = Pci_stim.directed_smoke ~base:0

let run prefix ~profile =
  System.pin (Run_config.make ~mem_bytes:256 ~vcd_prefix:prefix ~profile ()) ~script

let check_deterministic () =
  with_temp_dir (fun dir ->
      let prefix n = Filename.concat dir n in
      let vcd n = prefix n ^ "_behavioural.vcd" in
      let a = run (prefix "a") ~profile:false in
      let b = run (prefix "b") ~profile:false in
      let c = run (prefix "c") ~profile:true in
      (* same design, same stimuli: byte-identical waveforms *)
      let wa = read_file (vcd "a") in
      Alcotest.(check bool) "repeat run: identical vcd" true (wa = read_file (vcd "b"));
      Alcotest.(check bool) "profiled run: identical vcd" true (wa = read_file (vcd "c"));
      (* and identical application/bus-level behaviour *)
      List.iter
        (fun (label, r) ->
          Alcotest.(check (list string))
            (label ^ ": no observation drift") []
            (System.compare_runs a r);
          Alcotest.(check (list string))
            (label ^ ": no transaction drift") []
            (System.compare_bus_traces a r);
          Alcotest.(check int)
            (label ^ ": same cycle count") a.System.rr_cycles r.System.rr_cycles;
          Alcotest.(check int)
            (label ^ ": same delta count") a.System.rr_deltas r.System.rr_deltas)
        [ ("repeat", b); ("profiled", c) ];
      (* the profiled run must actually carry a snapshot, the others none *)
      Alcotest.(check bool) "profile snapshot present" true (c.System.rr_profile <> None);
      Alcotest.(check bool) "no snapshot by default" true (a.System.rr_profile = None))

let tests =
  [
    ( "determinism",
      [ Alcotest.test_case "pin-accurate run is bit-reproducible" `Quick check_deterministic ] );
  ]
