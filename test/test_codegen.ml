(* The code-generating RTL backend (Codegen/Sim `Compiled) against the
   levelized interpreter: differential properties over the same random
   netlists test_levelized.ml uses (narrow and >62-bit nets), VCD
   byte-identity on the PCI interface, the artefact-cache round trips
   (built / disk / memo, corrupt and stale artefacts, any design's) and
   the graceful degradation to `Levelized when code generation is
   unusable.

   Every test needing the native toolchain checks [Codegen.available]
   first and passes vacuously without it — the differential guarantees
   are meaningless on a host that can only run the interpreter anyway.
   All cache traffic goes through a private temp directory so the suite
   never touches (or trusts) the user's artefact cache. *)

module Ir = Hlcs_rtl.Ir
module Sim = Hlcs_rtl.Sim
module Codegen = Hlcs_rtl.Codegen
module R = Hlcs_rtl.Codegen_registry
module BV = Hlcs_logic.Bitvec
open Hlcs_interface

let cache_root =
  lazy
    (let dir = Filename.temp_file "hlcs_test_cg" "" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     dir)

let with_cache ?dir f =
  let dir = match dir with Some d -> d | None -> Lazy.force cache_root in
  let old = Option.value ~default:"" (Sys.getenv_opt "HLCS_CODEGEN_CACHE") in
  Unix.putenv "HLCS_CODEGEN_CACHE" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "HLCS_CODEGEN_CACHE" old) f

let wipe_cache () =
  let dir = Lazy.force cache_root in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Codegen.clear_memo ()

(* ------------------------------------------------------------------ *)
(* Emission is a pure function of the design. *)

let check_emit_deterministic () =
  let st = Random.State.make [| 7; 11 |] in
  let d = Test_levelized.random_design st ~nwires:10 in
  let a = Codegen.emit_ocaml d and b = Codegen.emit_ocaml d in
  Alcotest.(check bool) "emitted source is byte-stable" true (a = b);
  Alcotest.(check bool) "emits a registration call" true
    (let needle = "R.register" in
     let rec find i =
       i + String.length needle <= String.length a
       && (String.sub a i (String.length needle) = needle || find (i + 1))
     in
     find 0)

(* ------------------------------------------------------------------ *)
(* Differential over random netlists: identical output-change sequences
   and register files, including the 80-bit nets that exercise the boxed
   Bitvec path. *)

let random_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"random netlists: compiled == levelized (outputs and registers)"
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 4 24))
       (fun (seed, nwires) ->
         if not (Codegen.available ()) then true
         else
           with_cache (fun () ->
               let st = Random.State.make [| seed; nwires |] in
               let d = Test_levelized.random_design st ~nwires in
               let stim = Test_levelized.random_stim st ~cycles:12 in
               let ev_c, regs_c = Test_levelized.run_engine `Compiled d ~stim in
               let ev_l, regs_l = Test_levelized.run_engine `Levelized d ~stim in
               if ev_c <> ev_l then
                 QCheck2.Test.fail_reportf
                   "output sequences diverge: compiled %d events, levelized %d"
                   (List.length ev_c) (List.length ev_l)
               else if regs_c <> regs_l then
                 QCheck2.Test.fail_reportf "register files diverge:@.%s@.vs@.%s"
                   (String.concat " "
                      (List.map (fun (n, v) -> n ^ "=" ^ v) regs_c))
                   (String.concat " "
                      (List.map (fun (n, v) -> n ^ "=" ^ v) regs_l))
               else true)))

(* ------------------------------------------------------------------ *)
(* The full system run: same reports, same bus traffic, byte-identical
   VCD, and the run report tagged with the engine that actually ran. *)

let read_and_remove path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let check_system_and_vcd () =
  if not (Codegen.available ()) then ()
  else
    with_cache (fun () ->
        let dump engine tag =
          let prefix =
            Filename.concat (Filename.get_temp_dir_name ()) ("hlcs_cg_" ^ tag)
          in
          let r = Test_levelized.run_system engine ~vcd_prefix:(Some prefix) in
          (r, read_and_remove (prefix ^ "_rtl.vcd"))
        in
        let rc, vcd_c = dump `Compiled "comp" in
        let rl, vcd_l = dump `Levelized "lev" in
        Alcotest.(check (list string))
          "run reports agree" [] (System.compare_runs rc rl);
        Alcotest.(check bool)
          (Printf.sprintf "VCDs byte-identical (%d vs %d bytes)"
             (String.length vcd_c) (String.length vcd_l))
          true (vcd_c = vcd_l);
        (match rc.System.rr_rtl_engine with
        | Some `Compiled -> ()
        | _ -> Alcotest.fail "compiled run not tagged `Compiled");
        Alcotest.(check (option string))
          "no fallback on a usable host" None rc.System.rr_engine_fallback)

(* ------------------------------------------------------------------ *)
(* Artefact-cache round trips. *)

let fig3_design =
  lazy
    (Hlcs_synth.Synthesize.synthesize
       (Pci_master_design.design ~app:(Hlcs_pci.Pci_stim.directed_smoke ~base:0) ()))
      .Hlcs_synth.Synthesize.rp_rtl

let provenance_name = function
  | Codegen.Memo -> "memo"
  | Codegen.Disk -> "disk"
  | Codegen.Built -> "built"

(* each cache scenario gets its own design (the name feeds the content
   hash): reusing an artefact path another test already Dynlink-loaded
   would let the OS loader hand back the cached handle instead of
   re-reading the file, masking the on-disk state the test manipulates *)
let small_design name =
  let b = Ir.builder name in
  Ir.add_input b "a" 8;
  Ir.add_output b "o" 8;
  let r = Ir.fresh_reg b "r" 8 in
  let w = Ir.fresh_wire b "w" 8 in
  Ir.assign b w (Ir.Binop (Ir.Add, Ir.Input ("a", 8), Ir.Reg r));
  Ir.update b r (Ir.Wire w);
  Ir.drive b "o" (Ir.Wire w);
  Ir.finish b

let check_cache_round_trip () =
  if not (Codegen.available ()) then ()
  else
    with_cache (fun () ->
        wipe_cache ();
        let d = small_design "cgtest_roundtrip" in
        let prov = function
          | Ok (_, p) -> provenance_name p
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check string) "cold prepare compiles" "built"
          (prov (Codegen.prepare d));
        Alcotest.(check string) "second prepare reuses the artefact" "disk"
          (prov (Codegen.prepare d));
        Codegen.clear_memo ();
        Alcotest.(check string) "fresh process loads from disk" "disk"
          (prov (Codegen.instance d));
        Alcotest.(check string) "same process reuses the memo" "memo"
          (prov (Codegen.instance d));
        (* the loaded instance must actually run *)
        match Codegen.instance d with
        | Error e -> Alcotest.fail e
        | Ok (i, _) ->
            i.R.cg_full_settle ();
            Alcotest.(check bool) "counters live" true
              (List.mem_assoc "rtl_settles" (i.R.cg_counters ())))

let artefacts () =
  let dir = Lazy.force cache_root in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cmxs")

let check_corrupt_artefact_rebuilt () =
  if not (Codegen.available ()) then ()
  else
    with_cache (fun () ->
        wipe_cache ();
        let d = small_design "cgtest_corrupt" in
        (match Codegen.prepare d with
        | Ok (_, Codegen.Built) -> ()
        | Ok (_, p) -> Alcotest.fail ("expected a cold build, got " ^ provenance_name p)
        | Error e -> Alcotest.fail e);
        (* trash the artefact: Dynlink must reject it and the cache must
           delete and rebuild it rather than trust or crash on it *)
        (match artefacts () with
        | [ f ] ->
            let oc =
              open_out_bin (Filename.concat (Lazy.force cache_root) f)
            in
            output_string oc "not a cmxs";
            close_out oc
        | l -> Alcotest.fail (Printf.sprintf "expected 1 artefact, found %d" (List.length l)));
        Codegen.clear_memo ();
        match Codegen.instance d with
        | Ok (i, Codegen.Built) ->
            i.R.cg_full_settle ();
            Alcotest.(check int) "rebuilt artefact settles" 1
              (List.assoc "rtl_settles" (i.R.cg_counters ()))
        | Ok (_, p) ->
            Alcotest.fail ("corrupt artefact reused via " ^ provenance_name p)
        | Error e -> Alcotest.fail e)

let check_stale_artefact_pruned () =
  if not (Codegen.available ()) then ()
  else
    with_cache (fun () ->
        wipe_cache ();
        let d = small_design "cgtest_stale" in
        (* a leftover artefact for the same design under an older
           toolchain/emitter fingerprint must be garbage-collected when
           the current one is installed *)
        let stale =
          Filename.concat (Lazy.force cache_root)
            (Printf.sprintf "hlcs_cg_%s-00000000.cmxs" (Codegen.design_key d))
        in
        let oc = open_out_bin stale in
        output_string oc "stale";
        close_out oc;
        (match Codegen.prepare d with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "stale fingerprint removed" false
          (Sys.file_exists stale);
        Alcotest.(check int) "exactly one artefact kept" 1
          (List.length (artefacts ())))

let check_foreign_design_pruned () =
  if not (Codegen.available ()) then ()
  else
    with_cache (fun () ->
        wipe_cache ();
        (* another design's artefact under an older toolchain/emitter
           fingerprint is pruned too, not only the requested design's *)
        let other =
          Filename.concat (Lazy.force cache_root)
            (Printf.sprintf "hlcs_cg_%s-00000000.cmxs"
               (Codegen.design_key (small_design "cgtest_other")))
        in
        let oc = open_out_bin other in
        output_string oc "stale";
        close_out oc;
        (match Codegen.prepare (small_design "cgtest_foreign") with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "other design's stale artefact removed" false
          (Sys.file_exists other);
        Alcotest.(check int) "exactly one artefact kept" 1
          (List.length (artefacts ())))

(* ------------------------------------------------------------------ *)
(* Degradation: an unusable cache directory (or a host with no native
   toolchain at all) must fall back to the interpreter with a recorded
   reason, not abort.  This test runs everywhere. *)

let check_fallback_to_levelized () =
  with_cache ~dir:"/dev/null/not-a-directory" (fun () ->
      let d = Lazy.force fig3_design in
      let k = Hlcs_engine.Kernel.create () in
      let clk =
        Hlcs_engine.Clock.create k ~name:"clk" ~period:(Hlcs_engine.Time.ns 10) ()
      in
      let sim = Sim.elaborate k ~clock:clk ~engine:`Compiled d in
      (match Sim.engine_used sim with
      | `Levelized -> ()
      | _ -> Alcotest.fail "unusable cache did not degrade to `Levelized");
      (match Sim.fallback_reason sim with
      | Some _ -> ()
      | None -> Alcotest.fail "fallback carries no reason");
      Alcotest.(check (option int))
        "counters tagged with the engine that ran" (Some 1)
        (List.assoc_opt "rtl_engine" (Sim.counters sim)))

let tests =
  [
    ( "rtl-codegen",
      [
        Alcotest.test_case "emitted source is deterministic" `Quick
          check_emit_deterministic;
        random_differential;
        Alcotest.test_case "system runs agree, VCD byte-identical" `Quick
          check_system_and_vcd;
        Alcotest.test_case "artefact cache: built / disk / memo" `Quick
          check_cache_round_trip;
        Alcotest.test_case "corrupt artefact deleted and rebuilt" `Quick
          check_corrupt_artefact_rebuilt;
        Alcotest.test_case "stale fingerprint pruned" `Quick
          check_stale_artefact_pruned;
        Alcotest.test_case "other designs' stale fingerprints pruned" `Quick
          check_foreign_design_pruned;
        Alcotest.test_case "degrades to levelized with a reason" `Quick
          check_fallback_to_levelized;
      ] );
  ]
