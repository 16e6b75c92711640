(* Remaining corners: the Time module, the pad ring (tri-state glue), and
   the flow report rendering. *)

module T = Hlcs_engine.Time
module K = Hlcs_engine.Kernel
module S = Hlcs_engine.Signal
module R = Hlcs_engine.Resolved
module Pad = Hlcs_pci.Pci_pad
module BV = Hlcs_logic.Bitvec
module Lvec = Hlcs_logic.Lvec

let check_time () =
  Alcotest.(check int) "ns" 2_000 (T.to_ps (T.ns 2));
  Alcotest.(check int) "us" 3_000_000 (T.to_ps (T.us 3));
  Alcotest.(check int) "arith" 1_500 (T.to_ps (T.add (T.ns 1) (T.ps 500)));
  Alcotest.(check int) "mul/div" 5_000 (T.to_ps (T.div (T.mul (T.ns 10) 3) 6));
  Alcotest.(check bool) "compare" true (T.compare (T.ns 1) (T.us 1) < 0);
  Alcotest.(check (float 0.001)) "to ns float" 1.5 (T.to_ns_float (T.ps 1_500));
  let pp t = Format.asprintf "%a" T.pp t in
  Alcotest.(check string) "pp zero" "0 s" (pp T.zero);
  Alcotest.(check string) "pp ps" "123 ps" (pp (T.ps 123));
  Alcotest.(check string) "pp ns" "42 ns" (pp (T.ns 42));
  Alcotest.(check string) "pp us" "7 us" (pp (T.us 7))

let check_pad_output_enable () =
  let k = K.create () in
  let net = R.create k ~name:"net" ~width:4 () in
  let data = S.create k ~name:"data" ~eq:BV.equal (BV.of_int ~width:4 0xA) in
  let enable = S.create k ~name:"oe" ~eq:BV.equal (BV.zero 1) in
  Pad.connect_out k ~net ~data ~enable ();
  let probe = ref [] in
  let _ =
    K.spawn k (fun () ->
        K.yield k;
        K.yield k;
        probe := ("disabled", Lvec.to_string (R.read net)) :: !probe;
        S.write enable (BV.of_bool true);
        K.yield k;
        K.yield k;
        probe := ("driving", Lvec.to_string (R.read net)) :: !probe;
        S.write data (BV.of_int ~width:4 0x3);
        K.yield k;
        K.yield k;
        probe := ("updated", Lvec.to_string (R.read net)) :: !probe;
        S.write enable (BV.of_bool false);
        K.yield k;
        K.yield k;
        probe := ("released", Lvec.to_string (R.read net)) :: !probe)
  in
  K.run k;
  Alcotest.(check (list (pair string string)))
    "tri-state sequencing"
    [ ("disabled", "zzzz"); ("driving", "1010"); ("updated", "0011"); ("released", "zzzz") ]
    (List.rev !probe)

let check_pad_input_mapping () =
  let k = K.create () in
  let net = R.create k ~name:"net" ~width:4 () in
  let d = R.make_driver net "drv" in
  let sig_ = S.create k ~name:"in" ~eq:BV.equal (BV.zero 4) in
  Pad.connect_in k ~net ~signal:sig_ ~undefined_as:false ();
  let got = ref [] in
  let _ =
    K.spawn k (fun () ->
        R.drive d (Lvec.of_string "1z0x");
        K.yield k;
        K.yield k;
        got := BV.to_bin_string (S.read sig_) :: !got;
        R.drive d (Lvec.of_string "1111");
        K.yield k;
        K.yield k;
        got := BV.to_bin_string (S.read sig_) :: !got)
  in
  K.run k;
  Alcotest.(check (list string)) "x/z map to the default"
    [ "1000"; "1111" ]
    (List.rev !got)

let check_flow_report_rendering () =
  let report =
    Hlcs.Flow.execute
      (Hlcs.Run_config.make ~mem_bytes:256 ())
      ~script:(Hlcs_pci.Pci_stim.directed_smoke ~base:0)
  in
  let s = Format.asprintf "%a" Hlcs.Flow.pp_report report in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verdict line" true (contains "design flow: PASS");
  Alcotest.(check bool) "all four stages named" true
    (contains "functional model" && contains "executable specification"
   && contains "communication synthesis" && contains "post-synthesis validation")

let tests =
  [
    ( "misc",
      [
        Alcotest.test_case "time arithmetic and printing" `Quick check_time;
        Alcotest.test_case "pad output enable" `Quick check_pad_output_enable;
        Alcotest.test_case "pad input x/z mapping" `Quick check_pad_input_mapping;
        Alcotest.test_case "flow report rendering" `Slow check_flow_report_rendering;
      ] );
  ]
