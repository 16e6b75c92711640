(* The VCD reader and waveform differ: parse-back of our own dumps,
   glitch normalisation, and the paper's step-3 waveform comparison —
   pre- vs post-synthesis runs must agree on every protocol-sampled
   line. *)

module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec
module Vcd = Hlcs_engine.Vcd
module Reader = Hlcs_verify.Vcd_reader
module Diff = Hlcs_verify.Wave_diff
open Hlcs_interface

let with_temp_vcd f =
  let path = Filename.temp_file "hlcs" ".vcd" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let check_roundtrip () =
  with_temp_vcd (fun path ->
      let k = K.create () in
      let vcd = Vcd.create k ~path in
      let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
      let data = S.create k ~name:"data" ~eq:BV.equal (BV.zero 8) in
      Vcd.add_bool vcd (C.signal clk);
      Vcd.add_bitvec vcd data;
      let _ =
        K.spawn k (fun () ->
            (* the first rising edge is at t=0; write later so the initial
               value is visible for nonzero time *)
            C.wait_edges clk 2;
            S.write data (BV.of_int ~width:8 0x0A);
            C.wait_edges clk 2;
            S.write data (BV.of_int ~width:8 0xFF))
      in
      K.run ~max_time:(T.ns 50) k;
      Vcd.close vcd;
      let wave = Reader.load path in
      Alcotest.(check (list string)) "signals" [ "clk"; "data" ] (Reader.signal_names wave);
      Alcotest.(check int) "width" 8 (Reader.width wave "data");
      Alcotest.(check (list string))
        "value sequence (leading zeros normalised)"
        [ "b0"; "b1010"; "b11111111" ]
        (Reader.value_sequence wave "data");
      Alcotest.(check bool) "clock toggles recorded" true
        (List.length (Reader.changes wave "clk") > 5);
      Alcotest.(check bool) "final time" true (Reader.final_time wave >= 30_000))

let check_glitch_normalisation () =
  with_temp_vcd (fun path ->
      let k = K.create () in
      let vcd = Vcd.create k ~path in
      let data = S.create k ~name:"data" ~eq:BV.equal (BV.zero 4) in
      Vcd.add_bitvec vcd data;
      (* two commits at the same timestamp: a zero-width glitch *)
      let _ =
        K.spawn k (fun () ->
            S.write data (BV.of_int ~width:4 5);
            K.yield k;
            S.write data (BV.of_int ~width:4 9);
            K.delay k (T.ns 10);
            S.write data (BV.of_int ~width:4 1))
      in
      K.run ~max_time:(T.ns 50) k;
      Vcd.close vcd;
      let wave = Reader.load path in
      Alcotest.(check int) "raw changes keep the glitch" 4
        (List.length (Reader.changes wave "data"));
      (* the initial value and both same-timestamp writes are at #0: only
         the settled value survives *)
      Alcotest.(check (list string)) "sequence settles per timestamp"
        [ "b1001"; "b1" ]
        (Reader.value_sequence wave "data"))

let protocol_lines = [ "frame_n"; "irdy_n"; "trdy_n"; "devsel_n"; "stop_n"; "cbe"; "par" ]

(* a VCD prefix in a fresh temporary directory, removed afterwards with
   every dump written under it *)
let with_temp_prefix f =
  let dir = Filename.temp_file "hlcs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f (Filename.concat dir "run"))

let waves prefix = Run_config.make ~mem_bytes:256 ~vcd_prefix:prefix ()

let check_same_run_identical () =
  with_temp_prefix (fun p1 ->
      with_temp_prefix (fun p2 ->
          let script = Hlcs_pci.Pci_stim.directed_smoke ~base:0 in
          let _ = System.pin (waves p1) ~script in
          let _ = System.pin (waves p2) ~script in
          let report =
            Diff.compare_files (p1 ^ "_behavioural.vcd") (p2 ^ "_behavioural.vcd")
          in
          Alcotest.(check bool) "deterministic reruns give identical waves" true
            (Diff.consistent report);
          Alcotest.(check (list string)) "no one-sided signals" []
            (report.Diff.rp_only_a @ report.Diff.rp_only_b)))

let check_pre_vs_post_synthesis () =
  with_temp_prefix (fun prefix ->
      let script = Hlcs_pci.Pci_stim.directed_smoke ~base:0 in
      let _ = System.pin (waves prefix) ~script in
      let _ = System.rtl (waves prefix) ~script in
      let report =
        Diff.compare_files (prefix ^ "_behavioural.vcd") (prefix ^ "_rtl.vcd")
      in
      (* every protocol-sampled line agrees between the executable
         specification and the RT-level model; clk (run length), req
         (zero-time dips) and ad (turnaround windows) legitimately
         differ across abstraction levels *)
      List.iter
        (fun name ->
          match
            List.find_opt (fun v -> v.Diff.sv_name = name) report.Diff.rp_signals
          with
          | Some v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s consistent pre/post synthesis" name)
                true v.Diff.sv_equal
          | None -> Alcotest.failf "signal %s missing from the dumps" name)
        protocol_lines)

let tests =
  [
    ( "wave-diff",
      [
        Alcotest.test_case "vcd roundtrip" `Quick check_roundtrip;
        Alcotest.test_case "glitch normalisation" `Quick check_glitch_normalisation;
        Alcotest.test_case "identical runs give identical waves" `Quick
          check_same_run_identical;
        Alcotest.test_case "figure-4: pre vs post synthesis waveforms" `Slow
          check_pre_vs_post_synthesis;
      ] );
  ]
