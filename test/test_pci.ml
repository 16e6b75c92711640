(* The pin-level PCI substrate: target protocol behaviour against the
   native reference master, fault injection (retry / disconnect / master
   abort), the monitor's reconstruction and violation detection, the
   arbiter, and a random read-after-write property. *)

module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module S = Hlcs_engine.Signal
module R = Hlcs_engine.Resolved
module T = Hlcs_engine.Time
module Lvec = Hlcs_logic.Lvec
open Hlcs_pci

type rig = {
  rig_kernel : K.t;
  rig_bus : Pci_bus.t;
  rig_target : Pci_target.t;
  rig_monitor : Pci_monitor.t;
  rig_master : Pci_master.t;
  rig_memory : Pci_memory.t;
}

let make_rig ?(masters = 1) ?(target = Pci_target.default_config) ?(mem_bytes = 256) () =
  let kernel = K.create () in
  let clock = C.create kernel ~name:"clk" ~period:(T.ns 10) () in
  let bus = Pci_bus.create kernel ~clock ~masters in
  let memory = Pci_memory.create ~size_bytes:mem_bytes in
  let tgt = Pci_target.create kernel ~bus ~memory target in
  let _ = Pci_arbiter.create kernel ~bus in
  let monitor = Pci_monitor.create kernel ~bus in
  let master = Pci_master.create kernel ~bus ~index:0 in
  {
    rig_kernel = kernel;
    rig_bus = bus;
    rig_target = tgt;
    rig_monitor = monitor;
    rig_master = master;
    rig_memory = memory;
  }

let run_script ?masters ?target ?mem_bytes script =
  let rig = make_rig ?masters ?target ?mem_bytes () in
  let outcomes = ref [] in
  let _ =
    K.spawn rig.rig_kernel ~name:"app" (fun () ->
        List.iter
          (fun req -> outcomes := Pci_master.execute rig.rig_master req :: !outcomes)
          script)
  in
  K.run ~max_time:(T.us 1_000) rig.rig_kernel;
  (rig, List.rev !outcomes)

let no_violations rig =
  Alcotest.(check (list string)) "no protocol violations" []
    (List.map
       (fun v -> Format.asprintf "%a" Pci_monitor.pp_violation v)
       (Pci_monitor.violations rig.rig_monitor))

let check_memory_tests () =
  let mem = Pci_memory.create ~size_bytes:64 in
  Pci_memory.write32 mem 0 0xAABBCCDD;
  Alcotest.(check int) "read back" 0xAABBCCDD (Pci_memory.read32 mem 0);
  Pci_memory.write32_be mem 0 ~byte_enables:0b0011 0x11223344;
  Alcotest.(check int) "partial write" 0xAABB3344 (Pci_memory.read32 mem 0);
  Alcotest.(check bool) "unaligned rejected" true
    (match Pci_memory.read32 mem 2 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range rejected" true
    (match Pci_memory.read32 mem 64 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let a = Pci_memory.create ~size_bytes:64 and b = Pci_memory.create ~size_bytes:64 in
  Pci_memory.fill_pattern a ~seed:7;
  Pci_memory.fill_pattern b ~seed:7;
  Alcotest.(check bool) "deterministic fill" true (Pci_memory.equal a b);
  Pci_memory.fill_pattern b ~seed:8;
  Alcotest.(check bool) "seed matters" false (Pci_memory.equal a b)

let check_command_codes () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Pci_types.command_of_cbe (Pci_types.cbe_of_command c) = Some c))
    [ Pci_types.Mem_read; Mem_write; Config_read; Config_write; Mem_read_line;
      Mem_write_invalidate ];
  Alcotest.(check bool) "invalid code" true (Pci_types.command_of_cbe 0 = None)

let check_parity_function () =
  Alcotest.(check bool) "zero" false (Pci_types.parity32_4 ~ad:0 ~cbe:0);
  Alcotest.(check bool) "one bit" true (Pci_types.parity32_4 ~ad:1 ~cbe:0);
  Alcotest.(check bool) "two bits" false (Pci_types.parity32_4 ~ad:1 ~cbe:1);
  Alcotest.(check bool) "masks to 32 bits" true
    (Pci_types.parity32_4 ~ad:0x100000000 ~cbe:0 = Pci_types.parity32_4 ~ad:0 ~cbe:0)

let check_single_write_read () =
  let rig, outcomes =
    run_script
      [
        { Pci_types.rq_command = Mem_write; rq_address = 8; rq_length = 1; rq_data = [ 0x12345678 ] };
        { Pci_types.rq_command = Mem_read; rq_address = 8; rq_length = 1; rq_data = [] };
      ]
  in
  no_violations rig;
  (match outcomes with
  | [ w; r ] ->
      Alcotest.(check bool) "write clean" false w.Pci_master.out_aborted;
      Alcotest.(check (list int)) "read back" [ 0x12345678 ] r.Pci_master.out_data
  | _ -> Alcotest.fail "expected two outcomes");
  Alcotest.(check int) "memory updated" 0x12345678 (Pci_memory.read32 rig.rig_memory 8);
  Alcotest.(check int) "two transactions claimed" 2
    (Pci_target.transactions_claimed rig.rig_target)

let check_burst () =
  let data = [ 1; 2; 3; 4; 5; 6 ] in
  let rig, outcomes =
    run_script
      [
        { Pci_types.rq_command = Mem_write_invalidate; rq_address = 0x20; rq_length = 6; rq_data = data };
        { Pci_types.rq_command = Mem_read_line; rq_address = 0x20; rq_length = 6; rq_data = [] };
      ]
  in
  no_violations rig;
  (match outcomes with
  | [ _; r ] -> Alcotest.(check (list int)) "burst read" data r.Pci_master.out_data
  | _ -> Alcotest.fail "expected two outcomes");
  Alcotest.(check int) "data transfers" 12 (Pci_monitor.data_transfers rig.rig_monitor)

let check_wait_states_and_latency () =
  (* slow target: same data, more cycles, still no violations *)
  let target = { Pci_target.default_config with devsel_latency = 3; wait_states = 2 } in
  let rig, outcomes =
    run_script ~target
      [
        { Pci_types.rq_command = Mem_write; rq_address = 0; rq_length = 1; rq_data = [ 99 ] };
        { Pci_types.rq_command = Mem_read; rq_address = 0; rq_length = 1; rq_data = [] };
      ]
  in
  no_violations rig;
  match outcomes with
  | [ _; r ] -> Alcotest.(check (list int)) "read back slow" [ 99 ] r.Pci_master.out_data
  | _ -> Alcotest.fail "expected two outcomes"

let check_retry () =
  let target = { Pci_target.default_config with retry_every = Some 1 } in
  let rig, outcomes =
    run_script ~target
      [ { Pci_types.rq_command = Mem_write; rq_address = 4; rq_length = 1; rq_data = [ 5 ] } ]
  in
  no_violations rig;
  (match outcomes with
  | [ w ] ->
      Alcotest.(check int) "one retry absorbed" 1 w.Pci_master.out_retries;
      Alcotest.(check bool) "not aborted" false w.Pci_master.out_aborted
  | _ -> Alcotest.fail "expected one outcome");
  Alcotest.(check int) "memory written after retry" 5 (Pci_memory.read32 rig.rig_memory 4);
  let terminations =
    List.map (fun t -> t.Pci_types.tx_termination) (Pci_monitor.transactions rig.rig_monitor)
  in
  Alcotest.(check bool) "monitor saw the retry" true (List.mem Pci_types.Retry terminations)

let check_disconnect () =
  let target = { Pci_target.default_config with disconnect_after = Some 2 } in
  let data = [ 10; 20; 30; 40; 50 ] in
  let rig, outcomes =
    run_script ~target
      [
        { Pci_types.rq_command = Mem_write_invalidate; rq_address = 0; rq_length = 5; rq_data = data };
        { Pci_types.rq_command = Mem_read_line; rq_address = 0; rq_length = 5; rq_data = [] };
      ]
  in
  no_violations rig;
  (match outcomes with
  | [ w; r ] ->
      Alcotest.(check bool) "write disconnected at least once" true
        (w.Pci_master.out_disconnects >= 1);
      Alcotest.(check (list int)) "data survives disconnects" data r.Pci_master.out_data
  | _ -> Alcotest.fail "expected two outcomes")

let check_master_abort () =
  (* address far outside the target window: nobody claims *)
  let rig, outcomes =
    run_script ~mem_bytes:64
      [ { Pci_types.rq_command = Mem_read; rq_address = 0x4000; rq_length = 1; rq_data = [] } ]
  in
  no_violations rig;
  (match outcomes with
  | [ r ] -> Alcotest.(check bool) "aborted" true r.Pci_master.out_aborted
  | _ -> Alcotest.fail "expected one outcome");
  let terminations =
    List.map (fun t -> t.Pci_types.tx_termination) (Pci_monitor.transactions rig.rig_monitor)
  in
  Alcotest.(check bool) "monitor saw the abort" true
    (List.mem Pci_types.Master_abort terminations)

let check_config_ignored () =
  (* the memory target must not claim configuration commands *)
  let rig, outcomes =
    run_script
      [ { Pci_types.rq_command = Config_read; rq_address = 0; rq_length = 1; rq_data = [] } ]
  in
  (match outcomes with
  | [ r ] -> Alcotest.(check bool) "master abort on config" true r.Pci_master.out_aborted
  | _ -> Alcotest.fail "expected one outcome");
  Alcotest.(check int) "target claimed nothing" 0
    (Pci_target.transactions_claimed rig.rig_target)

let check_monitor_catches_bad_master () =
  (* failure injection: a rogue driver asserts IRDY# with no transaction,
     and starts an "address phase" with undriven AD *)
  let kernel = K.create () in
  let clock = C.create kernel ~name:"clk" ~period:(T.ns 10) () in
  let bus = Pci_bus.create kernel ~clock ~masters:1 in
  let monitor = Pci_monitor.create kernel ~bus in
  let _ =
    K.spawn kernel ~name:"rogue" (fun () ->
        let d_irdy = R.make_driver bus.Pci_bus.irdy_n "rogue.irdy" in
        let d_frame = R.make_driver bus.Pci_bus.frame_n "rogue.frame" in
        let low = Lvec.of_string "0" and high = Lvec.of_string "1" in
        C.wait_edges clock 2;
        (* IRDY# without FRAME# *)
        R.drive d_irdy low;
        C.wait_edges clock 2;
        R.drive d_irdy high;
        C.wait_edges clock 2;
        (* address phase with floating AD and garbage command *)
        R.drive d_frame low;
        C.wait_edges clock 2;
        R.drive d_frame high;
        R.drive d_irdy low;
        C.wait_edges clock 1;
        R.drive d_irdy high)
  in
  K.run ~max_time:(T.us 2) kernel;
  let rules = List.map (fun v -> v.Pci_monitor.v_rule) (Pci_monitor.violations monitor) in
  Alcotest.(check bool) "IRDY violation" true (List.mem "IRDY" rules);
  Alcotest.(check bool) "AD violation" true (List.mem "AD" rules);
  Alcotest.(check bool) "CBE violation" true (List.mem "CBE" rules)

let word w v = Lvec.of_bitvec (Hlcs_logic.Bitvec.of_int ~width:w v)

(* A rogue driver puts [ad]/[cbe] on the bus for one edge, then drives
   [par] while AD moves on to a value of the other parity: the monitor
   must check PAR against the previous edge's AD and C/BE. *)
let parity_violations ~ad ~cbe ~par =
  let kernel = K.create () in
  let clock = C.create kernel ~name:"clk" ~period:(T.ns 10) () in
  let bus = Pci_bus.create kernel ~clock ~masters:1 in
  let monitor = Pci_monitor.create kernel ~bus in
  let _ =
    K.spawn kernel ~name:"rogue" (fun () ->
        let d_ad = R.make_driver bus.Pci_bus.ad "rogue.ad" in
        let d_cbe = R.make_driver bus.Pci_bus.cbe "rogue.cbe" in
        let d_par = R.make_driver bus.Pci_bus.par "rogue.par" in
        C.wait_edges clock 2;
        R.drive d_ad ad;
        R.drive d_cbe (word 4 cbe);
        C.wait_edges clock 1;
        R.drive d_ad (word 32 0x0000_0001);
        R.drive d_par (word 1 par);
        C.wait_edges clock 1;
        R.drive d_ad (Lvec.all_z 32);
        R.drive d_cbe (Lvec.all_z 4);
        R.drive d_par (Lvec.all_z 1))
  in
  K.run ~max_time:(T.ns 100) kernel;
  List.map
    (fun v -> (v.Pci_monitor.v_rule, v.Pci_monitor.v_detail))
    (Pci_monitor.violations monitor)

let check_monitor_catches_parity_error () =
  let ad = 0x1234_5670 and cbe = 0x6 in
  let right = if Pci_types.parity32_4 ~ad ~cbe then 1 else 0 in
  let violations = Alcotest.(list (pair string string)) in
  Alcotest.check violations "wrong PAR on the next edge"
    [ ("PAR", "parity mismatch for ad=12345670 cbe=6") ]
    (parity_violations ~ad:(word 32 ad) ~cbe ~par:(1 - right));
  Alcotest.check violations "right PAR" []
    (parity_violations ~ad:(word 32 ad) ~cbe ~par:right);
  let floating = Lvec.set (word 32 ad) 31 Hlcs_logic.Logic.Z in
  List.iter
    (fun par ->
      Alcotest.check violations "AD not fully driven: no check" []
        (parity_violations ~ad:floating ~cbe ~par))
    [ 0; 1 ]

let check_two_masters_share_bus () =
  let rig = make_rig ~masters:2 ~mem_bytes:512 () in
  let master2 = Pci_master.create rig.rig_kernel ~bus:rig.rig_bus ~index:1 in
  let done1 = ref false and done2 = ref false in
  let script base =
    List.init 8 (fun i ->
        {
          Pci_types.rq_command = (if i mod 2 = 0 then Pci_types.Mem_write else Mem_read);
          rq_address = base + (4 * (i / 2));
          rq_length = 1;
          rq_data = (if i mod 2 = 0 then [ base + i ] else []);
        })
  in
  let _ =
    K.spawn rig.rig_kernel ~name:"app1" (fun () ->
        List.iter (fun r -> ignore (Pci_master.execute rig.rig_master r)) (script 0);
        done1 := true)
  in
  let _ =
    K.spawn rig.rig_kernel ~name:"app2" (fun () ->
        List.iter (fun r -> ignore (Pci_master.execute master2 r)) (script 256);
        done2 := true)
  in
  K.run ~max_time:(T.us 1_000) rig.rig_kernel;
  no_violations rig;
  Alcotest.(check bool) "master 1 finished" true !done1;
  Alcotest.(check bool) "master 2 finished" true !done2;
  Alcotest.(check int) "all transactions seen" 16
    (List.length (Pci_monitor.transactions rig.rig_monitor))

let check_expected_memory_model () =
  let script =
    Pci_stim.write_then_read_all (Pci_stim.random ~seed:3 ~count:10 ~base:0 ~size_bytes:256 ())
  in
  let rig, _ = run_script ~mem_bytes:256 script in
  no_violations rig;
  let golden = Pci_stim.expected_memory ~size_bytes:256 ~base:0 script in
  (* compare only written words: the rig's memory was zero-initialised here *)
  Alcotest.(check bool) "memory matches golden replay" true
    (Pci_memory.equal golden rig.rig_memory)

(* random read-after-write property over the full pin-level stack *)
let random_read_after_write =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"pin-level read-after-write (random scripts)"
       QCheck2.Gen.(
         pair (int_range 0 10_000)
           (pair (int_range 1 12) (pair (int_range 1 3) (int_range 0 2))))
       (fun (seed, (count, (devsel_latency, wait_states))) ->
         let script =
           Pci_stim.write_then_read_all
             (Pci_stim.random ~seed ~count ~base:0 ~size_bytes:256 ())
         in
         let target =
           { Pci_target.default_config with
             devsel_latency;
             wait_states;
             retry_every = (if seed mod 3 = 0 then Some 4 else None);
             disconnect_after = (if seed mod 2 = 0 then Some 2 else None);
           }
         in
         let rig, outcomes = run_script ~target ~mem_bytes:256 script in
         if Pci_monitor.violations rig.rig_monitor <> [] then false
         else begin
           (* replay the script on a golden memory, checking each read
              against the state at that point in the sequence *)
           let golden = Pci_memory.create ~size_bytes:256 in
           List.for_all2
             (fun (req : Pci_types.request) (o : Pci_master.outcome) ->
               if Pci_types.command_is_write req.Pci_types.rq_command then begin
                 List.iteri
                   (fun i w -> Pci_memory.write32 golden (req.rq_address + (4 * i)) w)
                   req.rq_data;
                 not o.Pci_master.out_aborted
               end
               else
                 o.Pci_master.out_data
                 = List.init req.rq_length (fun i ->
                       Pci_memory.read32 golden (req.rq_address + (4 * i))))
             script outcomes
         end))

let tests =
  [
    ( "pci",
      [
        Alcotest.test_case "memory model" `Quick check_memory_tests;
        Alcotest.test_case "command codes" `Quick check_command_codes;
        Alcotest.test_case "parity function" `Quick check_parity_function;
        Alcotest.test_case "single write/read" `Quick check_single_write_read;
        Alcotest.test_case "burst transfers" `Quick check_burst;
        Alcotest.test_case "wait states" `Quick check_wait_states_and_latency;
        Alcotest.test_case "retry absorbed" `Quick check_retry;
        Alcotest.test_case "disconnect resume" `Quick check_disconnect;
        Alcotest.test_case "master abort" `Quick check_master_abort;
        Alcotest.test_case "config commands unclaimed" `Quick check_config_ignored;
        Alcotest.test_case "monitor catches rogue master" `Quick check_monitor_catches_bad_master;
        Alcotest.test_case "two masters arbitrated" `Quick check_two_masters_share_bus;
        Alcotest.test_case "golden memory replay" `Quick check_expected_memory_model;
        random_read_after_write;
        Alcotest.test_case "monitor checks parity one edge late" `Quick
          check_monitor_catches_parity_error;
      ] );
  ]
