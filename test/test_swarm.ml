(* Coverage-guided swarm scheduling: synthetic-scheduler properties (the
   policy layer alone, with scripted outcome profiles) and the real
   campaign over the figure-3 system (guided beats blind at a fixed
   budget; byte-identical reports at any worker count). *)

module Swarm = Hlcs_verify.Swarm
module Coverage = Hlcs_verify.Coverage
module Sweep = Hlcs.Sweep
module Run_config = Hlcs_interface.Run_config

(* --- synthetic campaigns ------------------------------------------------ *)

(* an outcome whose coverage hits exactly [bins] (declared on the fly;
   the merge union-declares them) *)
let outcome_with_bins label bins =
  let cov = Coverage.create () in
  (match bins with
  | [] -> ()
  | _ ->
      let p = Coverage.point cov ~name:"syn" ~bins in
      List.iter (Coverage.hit p) bins);
  {
    Swarm.oc_label = label;
    Swarm.oc_coverage = cov;
    Swarm.oc_verdict = None;
    Swarm.oc_monitor = [];
    Swarm.oc_failure = None;
  }

(* profile: family index -> draw index -> bins hit *)
let scripted_run_batch profile jobs =
  List.map
    (fun (j : Swarm.job) ->
      outcome_with_bins
        (Printf.sprintf "%d-f%d#%d" j.Swarm.jb_seq j.Swarm.jb_family j.Swarm.jb_index)
        (profile j.Swarm.jb_family j.Swarm.jb_index))
    jobs

let fams n = List.init n (fun i -> { Swarm.fam_name = Printf.sprintf "f%d" i; Swarm.fam_tags = [] })

let config ?(seed = 1) ?(budget = 16) ?(batch = 4) ?(epsilon = 0.1) ?(guided = true) () =
  {
    Swarm.sw_seed = seed;
    sw_budget = budget;
    sw_batch = batch;
    sw_epsilon = epsilon;
    sw_guided = guided;
    sw_target_ratio = None;
  }

let check_budget_and_rounds () =
  let r =
    Swarm.run (config ~budget:10 ~batch:4 ()) ~families:(fams 3)
      ~run_batch:(scripted_run_batch (fun _ _ -> [ "only" ]))
  in
  Alcotest.(check int) "whole budget spent" 10 r.Swarm.sr_jobs;
  Alcotest.(check (list int)) "last round truncated to the budget" [ 4; 4; 2 ]
    (List.map (fun rd -> rd.Swarm.rd_jobs) r.Swarm.sr_rounds);
  Alcotest.(check int) "one distinct bin" 1 r.Swarm.sr_bins;
  Alcotest.(check int) "family stats cover the budget" 10
    (List.fold_left (fun a f -> a + f.Swarm.fs_jobs) 0 r.Swarm.sr_families);
  Alcotest.(check bool) "ok without failures" true r.Swarm.sr_ok

let check_untried_first () =
  (* every family is tried before any is repeated, guided or not *)
  List.iter
    (fun guided ->
      let seen = ref [] in
      let record jobs =
        List.iter (fun (j : Swarm.job) -> seen := j.Swarm.jb_family :: !seen) jobs;
        scripted_run_batch (fun _ _ -> []) jobs
      in
      let _ =
        Swarm.run (config ~budget:5 ~batch:5 ~guided ()) ~families:(fams 5)
          ~run_batch:record
      in
      Alcotest.(check (list int))
        (Printf.sprintf "all 5 families tried once (guided=%b)" guided)
        [ 0; 1; 2; 3; 4 ] (List.sort compare !seen))
    [ true; false ]

let check_target_stops_early () =
  (* scripted so the first round closes everything it declares *)
  let r =
    Swarm.run
      { (config ~budget:40 ~batch:4 ()) with Swarm.sw_target_ratio = Some 1.0 }
      ~families:(fams 2)
      ~run_batch:(scripted_run_batch (fun _ _ -> [ "a"; "b" ]))
  in
  Alcotest.(check bool) "target reached" true r.Swarm.sr_reached_target;
  Alcotest.(check int) "stopped after one round" 4 r.Swarm.sr_jobs

let check_failure_fails_swarm () =
  let run_batch jobs =
    List.map
      (fun (j : Swarm.job) ->
        if j.Swarm.jb_seq = 3 then
          { (outcome_with_bins "boom" []) with Swarm.oc_failure = Some "exploded" }
        else outcome_with_bins "ok" [])
      jobs
  in
  let r = Swarm.run (config ~budget:6 ~batch:3 ()) ~families:(fams 2) ~run_batch in
  Alcotest.(check bool) "not ok" false r.Swarm.sr_ok;
  Alcotest.(check (list (pair string string))) "failure recorded"
    [ ("boom", "exploded") ] r.Swarm.sr_failures

let check_validation () =
  Alcotest.(check bool) "empty family list rejected" true
    (match Swarm.run (config ()) ~families:[] ~run_batch:(scripted_run_batch (fun _ _ -> [])) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "short batch return rejected" true
    (match Swarm.run (config ()) ~families:(fams 2) ~run_batch:(fun _ -> []) with
    | _ -> false
    | exception _ -> true);
  List.iter
    (fun (what, cfg) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (match
           Swarm.run cfg ~families:(fams 2) ~run_batch:(scripted_run_batch (fun _ _ -> []))
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("epsilon nan", { (config ()) with Swarm.sw_epsilon = Float.nan });
      ("target ratio nan", { (config ()) with Swarm.sw_target_ratio = Some Float.nan });
      ("target ratio -1", { (config ()) with Swarm.sw_target_ratio = Some (-1.0) });
      ("target ratio 7", { (config ()) with Swarm.sw_target_ratio = Some 7.0 });
    ]

let check_guided_exploits () =
  (* 4 families; only family 2 keeps yielding fresh bins.  Blind spreads
     the budget evenly; guided concentrates once the novelty signal is in,
     and must close strictly more bins on the same budget and seed. *)
  let profile fam i = if fam = 2 then [ Printf.sprintf "fresh-%d" i ] else [] in
  let run guided =
    Swarm.run (config ~seed:5 ~budget:32 ~batch:4 ~guided ()) ~families:(fams 4)
      ~run_batch:(scripted_run_batch profile)
  in
  let g = run true and b = run false in
  Alcotest.(check int) "blind closes budget/4 bins" 8 b.Swarm.sr_bins;
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d) strictly beats blind (%d)" g.Swarm.sr_bins b.Swarm.sr_bins)
    true
    (g.Swarm.sr_bins > b.Swarm.sr_bins)

let qcheck_guided_never_worse =
  (* one productive family among dead ones: guided must never close fewer
     distinct bins than blind round-robin on the same budget and seed.
     Only from budget 13 on: below that, untried-first spends up to half
     the budget exactly like round-robin, and one early epsilon draw on a
     dead family can leave guided a bin behind with no rounds left to
     recover.  An exhaustive sweep of families 3-6, every productive
     index, batch 1-5 and seeds 0-999 finds 1,310 of 630,000 cases
     failing at budget 6-12 and none of 2,520,000 at budget 13-40. *)
  let gen =
    QCheck.Gen.(
      pair
        (pair (int_range 3 6) (int_range 0 5))
        (pair (pair (int_range 13 40) (int_range 1 5)) (int_range 0 999)))
  in
  let arb =
    QCheck.make
      ~print:(fun ((n, p), ((budget, batch), seed)) ->
        Printf.sprintf "families=%d productive=%d budget=%d batch=%d seed=%d" n
          (p mod n) budget batch seed)
      gen
  in
  QCheck.Test.make ~count:200 ~name:"swarm: guided >= blind distinct bins" arb
    (fun ((n, p), ((budget, batch), seed)) ->
      let productive = p mod n in
      let profile fam i =
        if fam = productive then [ Printf.sprintf "p%d" i ] else []
      in
      let run guided =
        Swarm.run
          (config ~seed ~budget ~batch ~epsilon:0.1 ~guided ())
          ~families:(fams n)
          ~run_batch:(scripted_run_batch profile)
      in
      (run true).Swarm.sr_bins >= (run false).Swarm.sr_bins)

let qcheck_deterministic =
  (* the scheduler is a pure function of its config: re-running the same
     campaign renders byte-identical reports *)
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 999) in
  QCheck.Test.make ~count:50 ~name:"swarm: campaign is seed-deterministic" arb
    (fun seed ->
      let profile fam i = if fam = 0 then [ Printf.sprintf "x%d-%d" fam i ] else [] in
      let run () =
        Swarm.run (config ~seed ~budget:20 ~batch:3 ()) ~families:(fams 3)
          ~run_batch:(scripted_run_batch profile)
      in
      Swarm.render_json (run ()) = Swarm.render_json (run ()))

(* --- the real campaign over the figure-3 system ------------------------- *)

let check_guided_beats_blind_at_64 () =
  (* the acceptance experiment (EXPERIMENTS.md): budget 64 over the seeded
     PCI fault families, short scripts so the hostile cross bins are rare
     — guided closes strictly more bins than the blind baseline *)
  let run guided =
    Sweep.swarm ~mode:`Pin Run_config.(with_mem_bytes 256 default) ~count:3 ~fault_seed:8
      { Swarm.default_config with
        Swarm.sw_seed = 2004; sw_budget = 64; sw_batch = 4; sw_guided = guided }
  in
  let g = run true and b = run false in
  Alcotest.(check bool) "both campaigns clean" true (g.Swarm.sr_ok && b.Swarm.sr_ok);
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d bins) > blind (%d bins)" g.Swarm.sr_bins b.Swarm.sr_bins)
    true
    (g.Swarm.sr_bins > b.Swarm.sr_bins)

let check_jobs_independence () =
  (* submission-order outcome consumption + single-threaded scheduling:
     the whole campaign renders byte-identically at any worker count *)
  let run jobs =
    Swarm.render_json
      (Sweep.swarm ~jobs ~mode:`Pin Run_config.(with_mem_bytes 256 default) ~count:3
         ~fault_seed:1
         { Swarm.default_config with Swarm.sw_seed = 2004; sw_budget = 16 })
  in
  Alcotest.(check string) "jobs 1 == jobs 4" (run 1) (run 4)

let check_pin_swarm_vcd_dir () =
  (* a swarm runs its jobs under the job's config: a VCD directory
     receives one behavioural dump per pin-mode job, named by its label *)
  let dir = Filename.temp_file "hlcs_swarm_vcd" "" in
  Sys.remove dir;
  let files () =
    if Sys.file_exists dir then List.sort compare (Array.to_list (Sys.readdir dir)) else []
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun e -> Sys.remove (Filename.concat dir e)) (files ());
      if Sys.file_exists dir then Unix.rmdir dir)
    (fun () ->
      let job =
        {
          Hlcs.Job.default with
          Hlcs.Job.j_kind =
            Hlcs.Job.Swarm
              {
                budget = 4;
                batch = 4;
                epsilon = 0.2;
                guided = false;
                target_ratio = None;
                mode = `Pin;
                fault_seed = 1;
              };
          j_config = Run_config.(default |> with_mem_bytes 256 |> with_vcd_prefix dir);
          j_count = 3;
          j_jobs = Some 2;
        }
      in
      match Hlcs.Job.run job with
      | Ok (Hlcs.Job.Swarm_result (r, _)) ->
          Alcotest.(check int) "jobs run" 4 r.Swarm.sr_jobs;
          Alcotest.(check (list string)) "one behavioural dump per job"
            [
              "00-baseline#0_behavioural.vcd";
              "01-wait-stretch#0_behavioural.vcd";
              "02-retry#0_behavioural.vcd";
              "03-disconnect#0_behavioural.vcd";
            ]
            (files ())
      | _ -> Alcotest.fail "swarm job produced no swarm report")

let tests =
  [
    ( "swarm",
      [
        Alcotest.test_case "budget, rounds and family accounting" `Quick
          check_budget_and_rounds;
        Alcotest.test_case "untried families run first" `Quick check_untried_first;
        Alcotest.test_case "coverage target stops the campaign" `Quick
          check_target_stops_early;
        Alcotest.test_case "job failure fails the swarm" `Quick
          check_failure_fails_swarm;
        Alcotest.test_case "config validation" `Quick check_validation;
        Alcotest.test_case "guided exploits the productive family" `Quick
          check_guided_exploits;
        QCheck_alcotest.to_alcotest ~long:false qcheck_guided_never_worse;
        QCheck_alcotest.to_alcotest ~long:false qcheck_deterministic;
        Alcotest.test_case "budget 64: guided > blind on the PCI families" `Slow
          check_guided_beats_blind_at_64;
        Alcotest.test_case "campaign independent of --jobs" `Slow
          check_jobs_independence;
        Alcotest.test_case "pin swarm dumps one VCD per job" `Quick
          check_pin_swarm_vcd_dir;
      ] );
  ]
