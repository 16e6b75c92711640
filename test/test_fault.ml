(* Fault-injection campaign regressions.

   Three claims carry the whole subsystem:

   - an {e empty} fault plan is a no-op down to the byte: the fault
     machinery must not perturb the schedule, the waveforms or the
     observations of a fault-free run;
   - every injection is a deterministic function of the plan, so a
     campaign produces identical verdicts at any worker count;
   - a dead interface under a guard policy surfaces a {e structured}
     timeout verdict (and recovers when the interface comes back)
     instead of hanging the simulation.

   Plus the sweep-exit regression: a job that crashes must leave a
   failure record that fails the sweep even though the report still
   renders. *)

module K = Hlcs_engine.Kernel
module T = Hlcs_engine.Time
module Fault = Hlcs_fault.Fault
module Run_config = Hlcs_interface.Run_config
module System = Hlcs_interface.System
module Interface_object = Hlcs_interface.Interface_object
module Pci_stim = Hlcs_pci.Pci_stim
module Flow = Hlcs.Flow
module Sweep = Hlcs.Sweep

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_temp_dir f =
  let dir = Filename.temp_file "hlcs_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* --- empty plan is byte-identical to no fault machinery at all -------- *)

let prop_empty_plan_is_baseline =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"empty fault plan reproduces the baseline"
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
       (fun (seed, count) ->
         with_temp_dir (fun dir ->
             let script =
               Pci_stim.write_then_read_all
                 (Pci_stim.random ~seed ~count ~base:0 ~size_bytes:256 ())
             in
             let vcd name = Filename.concat dir name in
             (* a config that never mentions faults, against one that
                sets the empty plan explicitly *)
             let base =
               System.pin (Run_config.make ~mem_bytes:256 ~vcd_prefix:(vcd "base") ()) ~script
             in
             let config =
               Run_config.make ~mem_bytes:256
                 ~vcd_prefix:(vcd "faulty") ~faults:Fault.empty ()
             in
             let faulty = System.pin config ~script in
             if faulty.System.rr_fault <> None then
               QCheck2.Test.fail_report "empty plan allocated fault state";
             if System.compare_runs base faulty <> [] then
               QCheck2.Test.fail_report "observations drifted under empty plan";
             if System.compare_bus_traces base faulty <> [] then
               QCheck2.Test.fail_report "bus trace drifted under empty plan";
             read_file (vcd "base_behavioural.vcd") = read_file (vcd "faulty_behavioural.vcd"))))

(* --- campaign verdicts are identical at any worker count -------------- *)

let prop_campaign_jobs_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3 ~name:"fault campaign: verdicts independent of --jobs"
       QCheck2.Gen.(int_range 0 1000)
       (fun fault_seed ->
         let config = Run_config.(with_mem_bytes 256 default) in
         let scenarios = Sweep.fault_scenarios config ~seed:2004 ~fault_seed ~n:5 in
         let render jobs =
           Sweep.render_text ~wall:false (Sweep.run ~jobs config ~count:3 ~scenarios)
         in
         render 1 = render 4))

(* --- exhaustion yields a structured timeout, not a hang --------------- *)

let check_bounded_call_exhaustion () =
  let k = K.create () in
  let ifc = Interface_object.Native.create k ~name:"ifc" () in
  let result = ref None in
  let timeouts = ref [] in
  (* no engine process at all: the guard must cut every attempt short *)
  let _ =
    K.spawn k ~name:"app" (fun () ->
        result :=
          Some
            (Interface_object.Native.app_data_get_bounded ifc ~timeout:(T.ns 100)
               ~retries:2 ~backoff:(T.ns 50)
               ~on_timeout:(fun attempt -> timeouts := attempt :: !timeouts)
               ()))
  in
  K.run ~max_time:(T.us 100) k;
  match !result with
  | None -> Alcotest.fail "bounded call never returned (hang)"
  | Some (Ok _) -> Alcotest.fail "bounded call succeeded with no engine"
  | Some (Error ti) ->
      Alcotest.(check string)
        "timed-out object" "ifc" ti.Hlcs_osss.Global_object.ti_object;
      Alcotest.(check string)
        "timed-out method" "app_data_get" ti.Hlcs_osss.Global_object.ti_method;
      Alcotest.(check int)
        "attempts = 1 + retries" 3 ti.Hlcs_osss.Global_object.ti_attempts;
      Alcotest.(check (list int))
        "every attempt reported" [ 0; 1; 2 ] (List.rev !timeouts);
      (* 100 + (50 + 100) + (100 + 100) ns of waiting, no livelock *)
      Alcotest.(check bool)
        "bounded wait accounted" true
        (T.compare ti.Hlcs_osss.Global_object.ti_waited (T.ns 100) >= 0)

(* --- the paper's abort scenario: timeout, retry, recovery ------------- *)

let abort_recovery_plan =
  {
    Fault.empty with
    fp_target = { Fault.no_target_faults with tf_abort_every = Some 3 };
    fp_stall = Some { Fault.st_command = 1; st_cycles = 80 };
    fp_guard = Some Fault.default_guard;
  }

let check_abort_recovery_flow () =
  let script =
    Pci_stim.write_then_read_all
      (Pci_stim.random ~seed:2004 ~count:4 ~base:0 ~size_bytes:512 ())
  in
  let config = Run_config.make ~mem_bytes:512 ~faults:abort_recovery_plan () in
  let report = Flow.execute config ~script in
  (match report.Flow.fl_verdict with
  | None -> Alcotest.fail "faulty flow produced no verdict"
  | Some v ->
      (* survivable: equivalence invariant (pin-level vs RTL) holds even
         though the master-abort floods the TLM-divergent all-ones read *)
      Alcotest.(check bool)
        ("verdict survivable: " ^ Fault.verdict_label v)
        true (Fault.verdict_ok v);
      (match v with
      | Fault.Inconsistent _ -> Alcotest.fail "equivalence invariant broken"
      | _ -> ()));
  Alcotest.(check bool) "flow ok under survivable fault" true report.Flow.fl_ok;
  match report.Flow.fl_fault with
  | None -> Alcotest.fail "faulty flow carried no statistics"
  | Some st ->
      Alcotest.(check bool)
        "guard timed out at least once" true (st.Fault.fs_timeouts > 0);
      Alcotest.(check bool)
        "a timed-out call recovered" true (st.Fault.fs_recoveries > 0);
      Alcotest.(check bool)
        "no exhaustion in the survivable scenario" true
        (st.Fault.fs_exhaustions = 0);
      Alcotest.(check bool)
        "engine stall recorded" true (st.Fault.fs_stalled_cycles > 0)

(* --- baseline scenario carries no verdict ----------------------------- *)

let check_campaign_shape () =
  let config = Run_config.(with_mem_bytes 256 default) in
  let scenarios = Sweep.fault_scenarios config ~seed:2004 ~fault_seed:1 ~n:3 in
  let report = Sweep.run ~jobs:2 config ~count:3 ~scenarios in
  Alcotest.(check int) "job count" 3 (List.length report.Sweep.sw_jobs);
  match report.Sweep.sw_jobs with
  | baseline :: faulty ->
      Alcotest.(check bool)
        "control run has no verdict" true (baseline.Sweep.jb_verdict = None);
      Alcotest.(check bool)
        "control run has no plan" true
        (Fault.is_empty baseline.Sweep.jb_scenario.Sweep.sc_faults);
      List.iter
        (fun jb ->
          Alcotest.(check bool)
            (jb.Sweep.jb_scenario.Sweep.sc_name ^ " has a verdict")
            true
            (jb.Sweep.jb_verdict <> None))
        faulty
  | [] -> Alcotest.fail "empty campaign"

(* --- a crashing job fails the sweep even though the report renders ---- *)

let check_failure_record_fails_sweep () =
  let config = Run_config.(with_mem_bytes 256 default) in
  (* a call guard with a zero timeout crashes the TLM application process *)
  let crashing =
    {
      Fault.empty with
      Fault.fp_guard = Some { Fault.default_guard with Fault.gp_timeout = T.ps 0 };
    }
  in
  let good, bad =
    match Sweep.scenarios config ~seed:2004 ~n:2 with
    | [ g; b ] -> (g, { b with Sweep.sc_faults = crashing })
    | _ -> Alcotest.fail "scenario generator changed arity"
  in
  let report = Sweep.run ~jobs:2 config ~count:2 ~scenarios:[ good; bad ] in
  Alcotest.(check bool) "sweep verdict false" false report.Sweep.sw_ok;
  (match Sweep.failed_jobs report with
  | [ jb ] ->
      Alcotest.(check bool) "failure record present" true (jb.Sweep.jb_failure <> None);
      Alcotest.(check bool) "crashed job not ok" false jb.Sweep.jb_ok
  | l -> Alcotest.fail (Printf.sprintf "expected 1 failed job, got %d" (List.length l)));
  (* the snapshot still renders — the exit decision must not rely on it *)
  let text = Sweep.render_text ~wall:false report in
  Alcotest.(check bool) "report renders" true (String.length text > 0);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions the crash" true (contains text "crashed")

let tests =
  [
    ( "fault",
      [
        prop_empty_plan_is_baseline;
        prop_campaign_jobs_invariant;
        Alcotest.test_case "bounded guarded call exhausts into a structured timeout"
          `Quick check_bounded_call_exhaustion;
        Alcotest.test_case "abort + stall: guard timeout, retry and recovery"
          `Quick check_abort_recovery_flow;
        Alcotest.test_case "campaign shape: control run clean, fault runs judged"
          `Quick check_campaign_shape;
        Alcotest.test_case "crashing job leaves a failure record and fails the sweep"
          `Quick check_failure_record_fails_sweep;
      ] );
  ]
