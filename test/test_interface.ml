(* The paper's bus-interface pattern: the command word, the guarded-method
   interface object (native and HLIR renditions), and the three-way
   consistency of the refinement experiment (TLM / pin-behavioural /
   post-synthesis RTL) under directed and random workloads, target fault
   injection and all arbitration policies. *)

module K = Hlcs_engine.Kernel
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec
open Hlcs_interface
module Pci_types = Hlcs_pci.Pci_types
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_target = Hlcs_pci.Pci_target
module Pci_memory = Hlcs_pci.Pci_memory

let check_command_encoding () =
  List.iter
    (fun op ->
      let bv = Bus_command.encode ~op ~len:17 ~addr:0xCAFE0040 in
      Alcotest.(check int) "width" Bus_command.command_width (BV.width bv);
      match Bus_command.decode bv with
      | Some (op', len, addr) ->
          Alcotest.(check bool) "op" true (op = op');
          Alcotest.(check int) "len" 17 len;
          Alcotest.(check int) "addr" 0xCAFE0040 addr
      | None -> Alcotest.fail "decode failed")
    [ Bus_command.Read; Write; Read_burst; Write_burst ];
  Alcotest.(check bool) "bad op decode" true
    (Bus_command.decode (BV.zero Bus_command.command_width) = None);
  Alcotest.(check bool) "config maps to none" true
    (Bus_command.of_request
       { Pci_types.rq_command = Config_read; rq_address = 0; rq_length = 1; rq_data = [] }
    = None)

let check_native_interface_object () =
  let k = K.create () in
  let ifc = Interface_object.Native.create k ~name:"ifc" () in
  let log = ref [] in
  let _ =
    K.spawn k ~name:"app" (fun () ->
        Interface_object.Native.put_command ifc ~op:Bus_command.Write ~len:1 ~addr:8;
        (* second command blocks until the engine fetches the first *)
        Interface_object.Native.put_command ifc ~op:Bus_command.Read ~len:1 ~addr:8;
        log := "second put done" :: !log)
  in
  let _ =
    K.spawn k ~name:"engine" (fun () ->
        K.delay k (T.ns 100);
        let op, len, addr = Interface_object.Native.get_command ifc in
        log :=
          Format.asprintf "got %a len=%d addr=%d" Bus_command.pp_op op len addr :: !log)
  in
  K.run k;
  Alcotest.(check (list string))
    "putCommand guard blocks on pending command"
    [ "got write len=1 addr=8"; "second put done" ]
    (List.rev !log)

let check_native_data_path () =
  let k = K.create () in
  let ifc = Interface_object.Native.create k ~name:"ifc" () in
  let got = ref (-1) in
  let _ =
    K.spawn k ~name:"app" (fun () ->
        Interface_object.Native.app_data_put ifc 0x42;
        got := Interface_object.Native.app_data_get ifc)
  in
  let _ =
    K.spawn k ~name:"engine" (fun () ->
        let w = Interface_object.Native.eng_data_get ifc in
        Interface_object.Native.eng_data_put ifc (w + 1))
  in
  K.run k;
  Alcotest.(check int) "data round trip" 0x43 !got

let check_hlir_decl_well_typed () =
  let d = Pci_master_design.design ~app:(Pci_stim.directed_smoke ~base:0) () in
  Alcotest.(check (list string)) "design typechecks" []
    (match Hlcs_hlir.Typecheck.check d with Ok () -> [] | Error l -> l)

let config = Run_config.(default |> with_mem_bytes 512 |> with_max_time (T.us 2_000))
let rtl_config config = Run_config.with_max_time (T.mul config.Run_config.rc_max_time 4) config

let consistency ?(config = config) script =
  let a = System.tlm config ~script in
  let b = System.pin config ~script in
  let c = System.rtl (rtl_config config) ~script in
  let issues =
    List.map (fun s -> "A/B " ^ s) (System.compare_runs a b)
    @ List.map (fun s -> "B/C " ^ s) (System.compare_runs b c)
    @ List.map (fun s -> "B/C " ^ s) (System.compare_bus_traces b c)
    @ List.map
        (fun v -> Format.asprintf "B violation: %a" Hlcs_pci.Pci_monitor.pp_violation v)
        b.System.rr_violations
    @ List.map
        (fun v -> Format.asprintf "C violation: %a" Hlcs_pci.Pci_monitor.pp_violation v)
        c.System.rr_violations
  in
  (issues, a, b, c)

let assert_consistent ?config script =
  let issues, a, b, c = consistency ?config script in
  Alcotest.(check (list string)) "three-way consistency" [] issues;
  (a, b, c)

let check_directed_consistency () =
  let a, b, c = assert_consistent (Pci_stim.directed_smoke ~base:0) in
  Alcotest.(check int) "five read-backs" 5 (List.length a.System.rr_observed);
  Alcotest.(check bool) "tlm is fastest (fewest cycles)" true
    (a.System.rr_cycles < b.System.rr_cycles && b.System.rr_cycles < c.System.rr_cycles)

let check_random_consistency () =
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:11 ~count:10 ~base:0 ~size_bytes:512 ())
  in
  ignore (assert_consistent script)

let check_hostile_target_consistency () =
  let target =
    { Pci_target.default_config with
      devsel_latency = 2;
      wait_states = 1;
      retry_every = Some 4;
      disconnect_after = Some 2;
    }
  in
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:23 ~count:8 ~base:0 ~size_bytes:512 ())
  in
  let _, b, _ = assert_consistent ~config:(Run_config.with_target target config) script in
  let retries =
    List.length
      (List.filter
         (fun t -> t.Pci_types.tx_termination = Pci_types.Retry)
         b.System.rr_transactions)
  in
  Alcotest.(check bool) "retries actually exercised" true (retries > 0)

let check_policies_consistency () =
  List.iter
    (fun policy ->
      ignore
        (assert_consistent ~config:(Run_config.with_policy policy config)
           (Pci_stim.directed_smoke ~base:0)))
    Hlcs_osss.Policy.all

let check_memory_against_golden () =
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:31 ~count:10 ~base:0 ~size_bytes:512 ())
  in
  let _, b, _ = assert_consistent script in
  (* overlay the writes on the same seeded initial image *)
  let golden = Pci_memory.create ~size_bytes:512 in
  Pci_memory.fill_pattern golden ~seed:42;
  List.iter
    (fun (r : Pci_types.request) ->
      if Pci_types.command_is_write r.Pci_types.rq_command then
        List.iteri (fun i w -> Pci_memory.write32 golden (r.rq_address + (4 * i)) w) r.rq_data)
    script;
  Alcotest.(check bool) "pin run converged to the golden image" true
    (Pci_memory.equal golden b.System.rr_memory)

let check_sram_element_consistency () =
  (* the second library element: same application, SRAM protocol engine *)
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:17 ~count:10 ~base:0 ~size_bytes:512 ())
  in
  let a = System.tlm config ~script in
  let b = Sram_system.pin config ~script in
  let c = Sram_system.rtl (rtl_config config) ~script in
  Alcotest.(check (list string)) "tlm vs sram-behavioural" [] (System.compare_runs a b);
  Alcotest.(check (list string)) "sram behavioural vs rtl" [] (System.compare_runs b c)

let check_sram_latency_variants () =
  let script = Pci_stim.directed_smoke ~base:0 in
  List.iter
    (fun latency ->
      let b = Sram_system.pin ~latency config ~script in
      let c = Sram_system.rtl ~latency (rtl_config config) ~script in
      Alcotest.(check (list string))
        (Printf.sprintf "latency %d consistent" latency)
        [] (System.compare_runs b c))
    [ 1; 2; 4 ]

let check_sram_honours_config () =
  let script = Pci_stim.directed_smoke ~base:0 in
  let seeded = Run_config.(config |> with_mem_seed 7 |> with_profile true) in
  let b = Sram_system.pin seeded ~script in
  let c = Sram_system.rtl (rtl_config seeded) ~script in
  (* the memory seed reaches the device: same run as the PCI element under
     that seed, a different image from the default seed *)
  Alcotest.(check (list string)) "sram vs pci under seed 7" []
    (System.compare_runs (System.pin seeded ~script) b);
  Alcotest.(check (list string)) "sram behavioural vs rtl under seed 7" []
    (System.compare_runs b c);
  Alcotest.(check bool) "seed changes the final image" false
    (Pci_memory.equal b.System.rr_memory (Sram_system.pin config ~script).System.rr_memory);
  Alcotest.(check bool) "profiled" true (b.System.rr_profile <> None);
  Alcotest.(check bool) "rtl snapshot carries the engine counters" true
    (match c.System.rr_profile with
    | Some sn -> List.mem_assoc "rtl_nodes" sn.Hlcs_obs.Obs.sn_extras
    | None -> false);
  (* the watchdog stops a run short of the script *)
  let cut = Sram_system.pin (Run_config.with_max_time (T.ns 200) config) ~script in
  Alcotest.(check bool) "watchdog honoured" true
    (T.compare cut.System.rr_sim_time (T.ns 200) <= 0
    && List.length cut.System.rr_observed < 5)

let check_interface_swap () =
  (* Figure 3's punchline: swapping the pin-accurate element (PCI <-> SRAM)
     leaves the application's observable behaviour untouched *)
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:29 ~count:8 ~base:0 ~size_bytes:512 ())
  in
  let pci = System.pin config ~script in
  let sram = Sram_system.pin config ~script in
  Alcotest.(check (list string)) "same observations and memory" []
    (System.compare_runs pci sram)

let check_dma_design () =
  let words = 8 and src = 0 and dst = 0x80 in
  let design = Dma_design.design ~src ~dst ~words () in
  let b = System.pin ~design config ~script:[] in
  let rc = rtl_config config in
  let c = System.rtl ~synthesis:(Run_config.synthesize rc design) rc ~script:[] in
  let block mem base = List.init words (fun i -> Pci_memory.read32 mem (base + (4 * i))) in
  Alcotest.(check (list int)) "behavioural copy correct"
    (block b.System.rr_memory src)
    (block b.System.rr_memory dst);
  Alcotest.(check (list int)) "rtl copy correct"
    (block c.System.rr_memory src)
    (block c.System.rr_memory dst);
  Alcotest.(check (list string)) "dma runs consistent" []
    (System.compare_runs b c @ System.compare_bus_traces b c);
  Alcotest.(check int) "two bus transactions per word" (2 * words)
    (List.length b.System.rr_transactions)

let check_buffered_dma () =
  (* arrays in action: the staging register file turns the copy into
     chunked bursts *)
  let words = 16 and src = 0 and dst = 0x100 and chunk = 8 in
  let design = Dma_design.buffered_design ~src ~dst ~words ~chunk () in
  let config = Run_config.with_mem_bytes 1024 config in
  let b = System.pin ~design config ~script:[] in
  let rc = rtl_config config in
  let c = System.rtl ~synthesis:(Run_config.synthesize rc design) rc ~script:[] in
  let block mem base = List.init words (fun i -> Pci_memory.read32 mem (base + (4 * i))) in
  Alcotest.(check (list int)) "behavioural copy" (block b.System.rr_memory src)
    (block b.System.rr_memory dst);
  Alcotest.(check (list int)) "rtl copy" (block c.System.rr_memory src)
    (block c.System.rr_memory dst);
  Alcotest.(check (list string)) "consistent" []
    (System.compare_runs b c @ System.compare_bus_traces b c);
  Alcotest.(check int) "two bursts per chunk" (2 * (words / chunk))
    (List.length b.System.rr_transactions)

let check_vcd_artifacts () =
  let dir = Filename.temp_file "hlcs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let prefix = Filename.concat dir "fig4" in
  let vcd = prefix ^ "_behavioural.vcd" in
  let script = Pci_stim.directed_smoke ~base:0 in
  let b = System.pin (Run_config.make ~mem_bytes:256 ~vcd_prefix:prefix ()) ~script in
  Alcotest.(check bool) "run ok" true (b.System.rr_violations = []);
  let size = (Unix.stat vcd).Unix.st_size in
  Alcotest.(check bool) (Printf.sprintf "vcd has content (%d bytes)" size) true (size > 2_000);
  Sys.remove vcd;
  Unix.rmdir dir

(* FW1's callers count calls in an 8-bit local: 255 rounds is the most
   that does not wrap it (300 used to finish after 44 calls); its caller
   counts run 1 to 32 *)
let check_contention_rounds () =
  let module Cd = Contention_design in
  let policy = Hlcs_osss.Policy.Fcfs in
  List.iter
    (fun (nprocs, rounds) ->
      Alcotest.(check bool)
        (Printf.sprintf "nprocs %d, rounds %d rejected" nprocs rounds)
        true
        (match Cd.design ~policy ~nprocs ~rounds with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (1, 0); (1, 256); (1, -3); (0, 16); (33, 16) ];
  let cycles = Cd.rtl_cycles ~policy ~nprocs:1 ~rounds:255 in
  Alcotest.(check bool)
    (Printf.sprintf "255 calls take at least 4 cycles each (%d)" cycles)
    true (cycles >= 4 * 255)

let tests =
  [
    ( "interface",
      [
        Alcotest.test_case "command encoding" `Quick check_command_encoding;
        Alcotest.test_case "native interface object" `Quick check_native_interface_object;
        Alcotest.test_case "native data path" `Quick check_native_data_path;
        Alcotest.test_case "hlir declaration typechecks" `Quick check_hlir_decl_well_typed;
        Alcotest.test_case "directed three-way consistency" `Slow check_directed_consistency;
        Alcotest.test_case "random three-way consistency" `Slow check_random_consistency;
        Alcotest.test_case "hostile target consistency" `Slow check_hostile_target_consistency;
        Alcotest.test_case "all policies consistent" `Slow check_policies_consistency;
        Alcotest.test_case "memory against golden image" `Slow check_memory_against_golden;
        Alcotest.test_case "sram element three-way consistency" `Slow
          check_sram_element_consistency;
        Alcotest.test_case "sram latency variants" `Slow check_sram_latency_variants;
        Alcotest.test_case "sram runs honour the run config" `Slow check_sram_honours_config;
        Alcotest.test_case "interface swap (pci vs sram)" `Slow check_interface_swap;
        Alcotest.test_case "dma block copy design" `Slow check_dma_design;
        Alcotest.test_case "buffered dma (register-file bursts)" `Slow check_buffered_dma;
        Alcotest.test_case "figure-4 vcd artifacts" `Quick check_vcd_artifacts;
        Alcotest.test_case "contention design: rounds in 1..255" `Quick
          check_contention_rounds;
      ] );
  ]
