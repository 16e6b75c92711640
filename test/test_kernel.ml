(* The discrete-event kernel: delta-cycle semantics, event notification
   kinds, signals, resolved nets, clocks and the priority queue. *)

module K = Hlcs_engine.Kernel
module S = Hlcs_engine.Signal
module R = Hlcs_engine.Resolved
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time
module Pq = Hlcs_engine.Pq
module Logic = Hlcs_logic.Logic
module Lvec = Hlcs_logic.Lvec
module Obs = Hlcs_obs.Obs
module System = Hlcs_interface.System
module Run_config = Hlcs_interface.Run_config
module Sram_device = Hlcs_interface.Sram_device
module Sram_master_design = Hlcs_interface.Sram_master_design
module Uud = Hlcs_verify.Uud
module Pci_stim = Hlcs_pci.Pci_stim

let check_pq_ordering () =
  let q = Pq.create () in
  List.iter (fun (k, v) -> Pq.add q k v) [ (5, "a"); (1, "b"); (3, "c"); (1, "d"); (0, "e") ];
  let popped = List.init 5 (fun _ -> Pq.pop q) in
  Alcotest.(check (list (pair int string)))
    "sorted and stable"
    [ (0, "e"); (1, "b"); (1, "d"); (3, "c"); (5, "a") ]
    popped;
  Alcotest.(check bool) "empty" true (Pq.is_empty q)

let check_pq_bulk () =
  let q = Pq.create () in
  let n = 1000 in
  for i = n downto 1 do
    Pq.add q (i * 7 mod 101) i
  done;
  Alcotest.(check int) "length" n (Pq.length q);
  let prev = ref (-1) in
  for _ = 1 to n do
    let k, _ = Pq.pop q in
    Alcotest.(check bool) "monotone" true (k >= !prev);
    prev := k
  done

let check_delta_semantics () =
  (* a signal write is invisible until the next delta *)
  let k = K.create () in
  let s = S.create k ~name:"s" 0 in
  let seen = ref [] in
  let _ =
    K.spawn k ~name:"w" (fun () ->
        S.write s 1;
        seen := ("w-after-write", S.read s) :: !seen;
        K.yield k;
        seen := ("w-next-delta", S.read s) :: !seen)
  in
  K.run k;
  Alcotest.(check (list (pair string int)))
    "update phase ordering"
    [ ("w-after-write", 0); ("w-next-delta", 1) ]
    (List.rev !seen)

let check_last_write_wins () =
  let k = K.create () in
  let s = S.create k ~name:"s" 0 in
  let commits = ref [] in
  S.on_commit s (fun _ v -> commits := v :: !commits);
  let _ =
    K.spawn k (fun () ->
        S.write s 1;
        S.write s 2;
        S.write s 3)
  in
  K.run k;
  Alcotest.(check (list int)) "single commit, last value" [ 3 ] (List.rev !commits)

let check_no_commit_on_equal () =
  let k = K.create () in
  let s = S.create k ~name:"s" 7 in
  let commits = ref 0 in
  S.on_commit s (fun _ _ -> incr commits);
  let _ = K.spawn k (fun () -> S.write s 7) in
  K.run k;
  Alcotest.(check int) "no change, no event" 0 !commits

let check_notification_kinds () =
  let k = K.create () in
  let ev = K.make_event k "ev" in
  let log = ref [] in
  let waiter tag =
    ignore
      (K.spawn k ~name:tag (fun () ->
           K.wait ev;
           log := (tag, T.to_ps (K.now k)) :: !log))
  in
  waiter "delta";
  let _ =
    K.spawn k ~name:"notifier" (fun () ->
        K.notify_delta ev;
        K.delay k (T.ns 5);
        K.notify_after ev (T.ns 10))
  in
  (* second waiter arrives after the delta notification fired *)
  let _ =
    K.spawn k ~name:"spawn-later" (fun () ->
        K.delay k (T.ns 1);
        waiter "timed")
  in
  K.run k;
  Alcotest.(check (list (pair string int)))
    "delta then timed"
    [ ("delta", 0); ("timed", 15_000) ]
    (List.rev !log)

let check_immediate_notification () =
  let k = K.create () in
  let ev = K.make_event k "ev" in
  let woke = ref false in
  let _ = K.spawn k (fun () -> K.wait ev; woke := true) in
  let _ =
    K.spawn k (fun () ->
        K.yield k;
        (* waiter is now parked *)
        K.notify_immediate ev)
  in
  K.run k;
  Alcotest.(check bool) "woken in same evaluate phase" true !woke

let check_wait_any_single_resume () =
  let k = K.create () in
  let a = K.make_event k "a" and b = K.make_event k "b" in
  let count = ref 0 in
  let _ =
    K.spawn k (fun () ->
        K.wait_any [ a; b ];
        incr count)
  in
  let _ =
    K.spawn k (fun () ->
        K.yield k;
        K.notify_immediate a;
        K.notify_immediate b)
  in
  K.run k;
  Alcotest.(check int) "resumed exactly once" 1 !count

let check_delay_ordering () =
  let k = K.create () in
  let log = ref [] in
  let proc tag d =
    ignore
      (K.spawn k ~name:tag (fun () ->
           K.delay k d;
           log := tag :: !log))
  in
  proc "c" (T.ns 30);
  proc "a" (T.ns 10);
  proc "b" (T.ns 20);
  K.run k;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 30_000 (T.to_ps (K.now k))

let check_max_time_resume () =
  let k = K.create () in
  let hits = ref 0 in
  let _ =
    K.spawn k (fun () ->
        let rec loop () =
          K.delay k (T.ns 10);
          incr hits;
          loop ()
        in
        loop ())
  in
  K.run ~max_time:(T.ns 55) k;
  Alcotest.(check int) "paused at horizon" 5 !hits;
  K.run ~max_time:(T.ns 100) k;
  Alcotest.(check int) "resumed to new horizon" 10 !hits

let check_process_failure () =
  let k = K.create () in
  let _ = K.spawn k ~name:"boom" (fun () -> failwith "exploded") in
  Alcotest.(check bool) "propagates" true
    (match K.run k with
    | () -> false
    | exception K.Process_failure (name, Failure msg) -> name = "boom" && msg = "exploded"
    | exception K.Process_failure _ -> false)

let check_starvation_counter () =
  let k = K.create () in
  let ev = K.make_event k "never" in
  let _ = K.spawn k (fun () -> K.wait ev) in
  let _ = K.spawn k (fun () -> ()) in
  K.run k;
  Alcotest.(check int) "one process starved" 1 (K.suspended_processes k)

let check_spawn_method () =
  let k = K.create () in
  let ev = K.make_event k "tick" in
  let runs = ref 0 in
  let _ = K.spawn_method k ~sensitive:[ ev ] (fun () -> incr runs) in
  let _ =
    K.spawn k (fun () ->
        for _ = 1 to 3 do
          K.delay k (T.ns 10);
          K.notify_immediate ev
        done)
  in
  K.run k;
  (* one initial invocation plus one per notification *)
  Alcotest.(check int) "initial run + 3 triggers" 4 !runs;
  Alcotest.(check bool) "empty sensitivity rejected" true
    (match K.spawn_method k ~sensitive:[] (fun () -> ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let check_clock () =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let samples = ref [] in
  let _ =
    K.spawn k (fun () ->
        for _ = 1 to 3 do
          C.wait_rising clk;
          samples := (T.to_ps (K.now k), C.cycles clk) :: !samples
        done;
        C.wait_falling clk;
        samples := (T.to_ps (K.now k), -1) :: !samples)
  in
  K.run ~max_time:(T.ns 100) k;
  Alcotest.(check (list (pair int int)))
    "edges at period boundaries"
    [ (0, 1); (10_000, 2); (20_000, 3); (25_000, -1) ]
    (List.rev !samples)

let check_resolved_net () =
  let k = K.create () in
  let net = R.create k ~name:"net" ~width:1 ~pull:`Up () in
  let d1 = R.make_driver net "d1" and d2 = R.make_driver net "d2" in
  let lv s = Lvec.of_string s in
  let log = ref [] in
  let _ =
    K.spawn k (fun () ->
        log := ("init", Lvec.to_string (R.read net)) :: !log;
        R.drive d1 (lv "0");
        K.yield k;
        log := ("d1 low", Lvec.to_string (R.read net)) :: !log;
        R.drive d2 (lv "1");
        K.yield k;
        log := ("conflict", Lvec.to_string (R.read net)) :: !log;
        R.release d1;
        K.yield k;
        log := ("d2 only", Lvec.to_string (R.read net)) :: !log;
        R.release d2;
        K.yield k;
        log := ("pulled", Lvec.to_string (R.read net)) :: !log;
        log := ("raw", Lvec.to_string (R.read_raw net)) :: !log)
  in
  K.run k;
  Alcotest.(check (list (pair string string)))
    "resolution sequence"
    [
      ("init", "1"); ("d1 low", "0"); ("conflict", "x"); ("d2 only", "1");
      ("pulled", "1"); ("raw", "z");
    ]
    (List.rev !log)

let check_vcd_output () =
  let k = K.create () in
  let path = Filename.temp_file "hlcs" ".vcd" in
  let vcd = Hlcs_engine.Vcd.create k ~path in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let data = S.create k ~name:"data" ~eq:Hlcs_logic.Bitvec.equal (Hlcs_logic.Bitvec.zero 8) in
  Hlcs_engine.Vcd.add_bool vcd (C.signal clk);
  Hlcs_engine.Vcd.add_bitvec vcd data;
  let _ =
    K.spawn k (fun () ->
        C.wait_rising clk;
        S.write data (Hlcs_logic.Bitvec.of_int ~width:8 0xA5))
  in
  K.run ~max_time:(T.ns 40) k;
  Hlcs_engine.Vcd.close vcd;
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains contents "$enddefinitions");
  Alcotest.(check bool) "var defs" true (contains contents "$var wire 8");
  Alcotest.(check bool) "value change" true (contains contents "b10100101");
  Alcotest.(check bool) "timestamps" true (contains contents "#10000")

(* a bare clock's cycle allocates nothing: the timed queue moves array
   slots, a firing builds no closure, an activation reuses its process's
   option and the update loop applies each commit directly *)
let check_clock_allocation () =
  let k = K.create () in
  let _clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let cycles = 10_000 in
  let before = Gc.minor_words () in
  K.run ~max_time:(T.ns (10 * cycles)) k;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per cycle, at most 20" per_cycle)
    true (per_cycle <= 20.)

(* The fig3 application's RT model against the SRAM device (bench's
   fig3/sram_rtl rig), run through [System.timed_run] with profiling off
   in the config.  [clock], when given, is installed as the kernel's
   phase clock first. *)
let fig3_rt_run ?clock () =
  let config = Run_config.(default |> with_mem_bytes 256) in
  let design = Sram_master_design.design ~app:(Pci_stim.directed_smoke ~base:0) () in
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:System.clock_period () in
  let uud = Uud.elaborate k ~clock:clk (Uud.Rtl (Run_config.synthesize config design)) in
  let output = Uud.out_port uud and input = Uud.in_port uud in
  let (_ : Sram_device.t) =
    Sram_device.create k ~clock:clk ~memory:(System.memory config) ~addr:(output "addr")
      ~wdata:(output "wdata") ~we:(output "we") ~re:(output "re") ~rdata:(input "rdata")
      ~ready:(input "ready") ()
  in
  let (_ : unit -> (int * int) list) = System.observe_app k clk ~drain:16 uud in
  Option.iter (fun clock -> K.enable_profiling k ~clock) clock;
  let (_ : float * Obs.snapshot option) = System.timed_run config ~label:"fig3" k in
  k

(* one run loop serves both modes: profiling changes no counter, and a
   profiled run charges every phase.  The injected clock ticks by one per
   read, so every bracketed phase spans at least one tick and the sums
   are exact. *)
let check_profiled_loop () =
  let plain = fig3_rt_run () in
  let ticks = ref 0. in
  let profiled = fig3_rt_run ~clock:(fun () -> ticks := !ticks +. 1.; !ticks) () in
  Alcotest.(check bool) "unprofiled: no phase times" true (K.phase_times plain = None);
  let counters k = Obs.render_text ~wall:false (Obs.snapshot k) in
  Alcotest.(check string) "counters table" (counters plain) (counters profiled);
  Alcotest.(check bool) "all 13 counters identical" true
    (K.counters_snapshot plain = K.counters_snapshot profiled);
  match K.phase_times profiled with
  | None -> Alcotest.fail "profiled run: no phase times"
  | Some pt ->
      Alcotest.(check bool) "evaluate charged" true (pt.K.pt_evaluate > 0.);
      Alcotest.(check bool) "update charged" true (pt.K.pt_update > 0.);
      Alcotest.(check bool) "notify charged" true (pt.K.pt_notify > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "phases %.0f + %.0f + %.0f within run %.0f" pt.K.pt_evaluate
           pt.K.pt_update pt.K.pt_notify pt.K.pt_run)
        true
        (pt.K.pt_evaluate +. pt.K.pt_update +. pt.K.pt_notify <= pt.K.pt_run)

let tests =
  [
    ( "kernel",
      [
        Alcotest.test_case "priority queue ordering" `Quick check_pq_ordering;
        Alcotest.test_case "priority queue bulk" `Quick check_pq_bulk;
        Alcotest.test_case "signal delta semantics" `Quick check_delta_semantics;
        Alcotest.test_case "last write wins" `Quick check_last_write_wins;
        Alcotest.test_case "no commit on equal value" `Quick check_no_commit_on_equal;
        Alcotest.test_case "delta and timed notification" `Quick check_notification_kinds;
        Alcotest.test_case "immediate notification" `Quick check_immediate_notification;
        Alcotest.test_case "wait_any resumes once" `Quick check_wait_any_single_resume;
        Alcotest.test_case "timer ordering" `Quick check_delay_ordering;
        Alcotest.test_case "run horizon and resume" `Quick check_max_time_resume;
        Alcotest.test_case "process failure propagates" `Quick check_process_failure;
        Alcotest.test_case "starvation counter" `Quick check_starvation_counter;
        Alcotest.test_case "method-style processes" `Quick check_spawn_method;
        Alcotest.test_case "clock edges and cycles" `Quick check_clock;
        Alcotest.test_case "resolved net with pull-up" `Quick check_resolved_net;
        Alcotest.test_case "vcd writer" `Quick check_vcd_output;
        Alcotest.test_case "bare clock allocation per cycle" `Quick check_clock_allocation;
        Alcotest.test_case "one loop, profiled or not" `Quick check_profiled_loop;
      ] );
  ]
