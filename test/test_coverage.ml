(* Functional coverage: the collector itself and the PCI coverage model,
   including closure under random stimuli with a faulty target. *)

module Coverage = Hlcs_verify.Coverage
module Pci_coverage = Hlcs_verify.Pci_coverage
open Hlcs_interface
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target
module Pci_types = Hlcs_pci.Pci_types
module T = Hlcs_engine.Time

let check_collector () =
  let cov = Coverage.create () in
  let p = Coverage.point cov ~name:"p" ~bins:[ "a"; "b"; "c" ] in
  Alcotest.(check (list (pair string string)))
    "all holes initially"
    [ ("p", "a"); ("p", "b"); ("p", "c") ]
    (Coverage.holes cov);
  Coverage.hit p "a";
  Coverage.hit p "a";
  Coverage.hit p "c";
  Coverage.hit p "weird";
  Alcotest.(check int) "bin count" 2 (Coverage.bin_count p "a");
  Alcotest.(check (list (pair string string))) "one hole" [ ("p", "b") ] (Coverage.holes cov);
  Alcotest.(check bool) "ratio 2/3" true (abs_float (Coverage.ratio cov -. (2.0 /. 3.0)) < 1e-9);
  Alcotest.(check (list (triple string string int)))
    "unexpected bin recorded"
    [ ("p", "weird", 1) ]
    (Coverage.unexpected cov);
  Alcotest.(check bool) "duplicate point rejected" true
    (match Coverage.point cov ~name:"p" ~bins:[ "x" ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let check_merge () =
  (* union-declare semantics: counts sum on common bins; bins declared on
     only one side become declared in the destination *)
  let a = Coverage.create () in
  let pa = Coverage.point a ~name:"p" ~bins:[ "x"; "y" ] in
  Coverage.hit pa "x";
  Coverage.hit pa "x";
  let b = Coverage.create () in
  let pb = Coverage.point b ~name:"p" ~bins:[ "x"; "z" ] in
  Coverage.hit pb "x";
  Coverage.hit pb "z";
  let qb = Coverage.point b ~name:"q" ~bins:[ "only-b" ] in
  Coverage.hit qb "only-b";
  Coverage.merge a b;
  Alcotest.(check int) "counts summed" 3 (Coverage.bin_count pa "x");
  Alcotest.(check int) "src-only bin carried" 1 (Coverage.bin_count pa "z");
  Alcotest.(check (list (pair string string)))
    "holes = union of declarations minus hits"
    [ ("p", "y") ]
    (Coverage.holes a);
  Alcotest.(check (list (pair string string)))
    "hit bins merged and sorted"
    [ ("p", "x"); ("p", "z"); ("q", "only-b") ]
    (Coverage.hit_bins a);
  (* src untouched *)
  Alcotest.(check int) "src not modified" 1 (Coverage.bin_count pb "x")

let check_merge_unexpected_promotion () =
  (* a hit one side filed as unexpected but the other declares must fold
     into the declared bin — in both merge directions *)
  let declare_side () =
    let t = Coverage.create () in
    let p = Coverage.point t ~name:"p" ~bins:[ "known" ] in
    (t, p)
  in
  let stray_side () =
    let t = Coverage.create () in
    let p = Coverage.point t ~name:"p" ~bins:[ "other" ] in
    Coverage.hit p "known";
    (* undeclared there *)
    Coverage.hit p "wild";
    (* undeclared everywhere *)
    t
  in
  (* direction 1: dst declares, src has the stray hit *)
  let d1, p1 = declare_side () in
  Coverage.merge d1 (stray_side ());
  Alcotest.(check int) "src unexpected promoted" 1 (Coverage.bin_count p1 "known");
  Alcotest.(check (list (triple string string int)))
    "doubly-undeclared hit survives the merge"
    [ ("p", "wild", 1) ]
    (Coverage.unexpected d1);
  (* direction 2: dst has the stray hit, src declares the bin *)
  let d2 = stray_side () in
  let s2, sp = declare_side () in
  Coverage.hit sp "known";
  Coverage.merge d2 s2;
  Alcotest.(check (list (triple string string int)))
    "dst unexpected folded into newly-declared bin"
    [ ("p", "wild", 1) ]
    (Coverage.unexpected d2);
  Alcotest.(check bool) "folded bin now counts as hit" true
    (List.mem ("p", "known") (Coverage.hit_bins d2))

let check_to_json () =
  let t = Coverage.create () in
  let p = Coverage.point t ~name:"esc\"pt" ~bins:[ "a"; "b" ] in
  Coverage.hit p "a";
  Coverage.hit p "stray";
  let js = Coverage.to_json t in
  let has needle =
    let ln = String.length needle and lj = String.length js in
    let rec go i = i + ln <= lj && (String.sub js i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ratio present" true (has "\"ratio\": 0.5000");
  Alcotest.(check bool) "point name escaped" true (has "\"esc\\\"pt\"");
  Alcotest.(check bool) "declared bin with hits" true
    (has "{\"bin\": \"a\", \"hits\": 1}");
  Alcotest.(check bool) "hole listed with zero hits" true
    (has "{\"bin\": \"b\", \"hits\": 0}");
  Alcotest.(check bool) "unexpected table present" true
    (has "\"unexpected\": [{\"bin\": \"stray\", \"hits\": 1}]")

let check_empty_model () =
  Alcotest.(check bool) "empty model is full" true (Coverage.ratio (Coverage.create ()) = 1.0)

let check_pci_coverage_closure () =
  (* closing the model needs BOTH a hostile target (retry/disconnect/abort
     bins) and a clean one (a disconnecting target chops every burst, so
     long bursts only complete when it behaves) *)
  let mem_bytes = 512 in
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:123 ~count:25 ~base:0 ~size_bytes:mem_bytes ())
    @ [ { Pci_types.rq_command = Mem_read; rq_address = 0x100000; rq_length = 1; rq_data = [] } ]
  in
  let target =
    { Pci_target.default_config with retry_every = Some 7; disconnect_after = Some 3 }
  in
  let config = Run_config.make ~mem_bytes ~max_time:(T.us 4_000) () in
  let hostile = System.pin (Run_config.with_target target config) ~script in
  let clean = System.pin config ~script in
  let cov =
    Pci_coverage.of_transactions
      (hostile.System.rr_transactions @ clean.System.rr_transactions)
  in
  Alcotest.(check (list (pair string string)))
    (Format.asprintf "no holes@.%a" Coverage.pp cov)
    [] (Coverage.holes cov);
  Alcotest.(check (list (triple string string int))) "no unexpected bins" []
    (Coverage.unexpected cov)

let check_pci_coverage_holes_on_small_test () =
  (* the paper's smoke scenario alone leaves retry/abort bins uncovered —
     exactly what a coverage report is for *)
  let b =
    System.pin (Run_config.make ~mem_bytes:256 ()) ~script:(Pci_stim.directed_smoke ~base:0)
  in
  let cov = Pci_coverage.of_transactions b.System.rr_transactions in
  let holes = Coverage.holes cov in
  Alcotest.(check bool) "retry bin is a hole" true
    (List.mem ("termination", "retry") holes);
  Alcotest.(check bool) "abort bin is a hole" true
    (List.mem ("termination", "master-abort") holes);
  Alcotest.(check bool) "commands fully covered" true
    (not (List.exists (fun (p, _) -> p = "bus_command") holes))

let tests =
  [
    ( "coverage",
      [
        Alcotest.test_case "collector semantics" `Quick check_collector;
        Alcotest.test_case "merge sums and union-declares" `Quick check_merge;
        Alcotest.test_case "merge promotes unexpected hits" `Quick
          check_merge_unexpected_promotion;
        Alcotest.test_case "json rendering" `Quick check_to_json;
        Alcotest.test_case "empty model" `Quick check_empty_model;
        Alcotest.test_case "pci model closes under random stimuli" `Slow
          check_pci_coverage_closure;
        Alcotest.test_case "pci model reports holes on the smoke test" `Quick
          check_pci_coverage_holes_on_small_test;
      ] );
  ]
