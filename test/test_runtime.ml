(* The multicore batch runtime: domain-pool work distribution, the
   content-hashed synthesis cache, snapshot merging and the headline
   sweep guarantee — a 4-domain sweep is byte-identical (rendered output
   and VCD waveforms) to the same sweep run sequentially. *)

open Hlcs_hlir.Builder
module Pool = Hlcs_runtime.Pool
module Synth_cache = Hlcs_synth.Synth_cache
module Synthesize = Hlcs_synth.Synthesize
module Obs = Hlcs_obs.Obs
module K = Hlcs_engine.Kernel
module T = Hlcs_engine.Time
module Sweep = Hlcs.Sweep
module Run_config = Hlcs.Run_config
open QCheck2

(* --- domain pool ------------------------------------------------------ *)

(* exactly-once + submission order: items are their own indices, an atomic
   per-index execution counter catches double or dropped claims at any
   pool width *)
let pool_exactly_once =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"pool: exactly-once, submission order"
       Gen.(pair (int_range 0 50) (int_range 1 6))
       (fun (n, jobs) ->
         let runs = Array.init n (fun _ -> Atomic.make 0) in
         let items = Array.init n Fun.id in
         let out =
           Pool.map ~jobs
             (fun i ->
               Atomic.incr runs.(i);
               (i * 3) + 1)
             items
         in
         Array.length out = n
         && Array.for_all (fun c -> Atomic.get c = 1) runs
         && Array.for_all Fun.id
              (Array.mapi (fun i o -> o = Pool.Done ((i * 3) + 1)) out)))

exception Boom of int

(* a crashing job must fill its own slot with a structured failure and
   leave every other job untouched *)
let pool_fault_isolation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"pool: per-job fault isolation"
       Gen.(pair (list_size (int_range 1 30) bool) (int_range 1 6))
       (fun (mask, jobs) ->
         let mask = Array.of_list mask in
         let items = Array.init (Array.length mask) Fun.id in
         let out =
           Pool.map ~jobs (fun i -> if mask.(i) then raise (Boom i) else i) items
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun i -> function
                | Pool.Done v -> (not mask.(i)) && v = i
                | Pool.Failed f ->
                    mask.(i) && f.Pool.f_index = i
                    && f.Pool.f_exn = Printexc.to_string (Boom i))
              out)))

let check_pool_basics () =
  Alcotest.(check bool) "recommended_jobs >= 1" true (Pool.recommended_jobs () >= 1);
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 Fun.id [| 1 |]))

(* spin until [cond ()] holds or 5 s pass; whether it held *)
let await cond =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Domain.cpu_relax (); go ()))
  in
  go ()

(* the caller is one of the pool's [jobs] domains, not a parked joiner:
   every job waits until two distinct domains have started one, so both
   of a width-2 pool's domains are known, and the caller must be one *)
let check_pool_caller_runs_jobs () =
  let lock = Mutex.create () in
  let starters = ref [] in
  let distinct () = Mutex.protect lock (fun () -> List.length !starters) in
  let out =
    Pool.map ~jobs:2
      (fun i ->
        let self = (Domain.self () :> int) in
        Mutex.protect lock (fun () ->
            if not (List.mem self !starters) then starters := self :: !starters);
        ignore (await (fun () -> distinct () >= 2));
        i)
      [| 0; 1; 2; 3 |]
  in
  Alcotest.(check bool) "every job done" true
    (out = Array.init 4 (fun i -> Pool.Done i));
  Alcotest.(check int) "two domains ran jobs" 2 (distinct ());
  Alcotest.(check bool) "the caller is one of them" true
    (List.mem (Domain.self () :> int) !starters)

(* [on_result] sees each outcome once, in index order, as [map] returns
   them, and outcome 0 while the last job is still running: the last job
   waits for delivery 0 and records whether it came *)
let check_pool_streams_in_order () =
  List.iter
    (fun jobs ->
      let n = 6 in
      let lock = Mutex.create () in
      let deliveries = ref [] in
      let first_delivered = Atomic.make false in
      let early = Atomic.make false in
      let out =
        Pool.map ~jobs
          ~on_result:(fun i o ->
            Mutex.protect lock (fun () -> deliveries := (i, o) :: !deliveries);
            if i = 0 then Atomic.set first_delivered true)
          (fun i ->
            if i = 2 then raise (Boom i);
            if i = n - 1 then Atomic.set early (await (fun () -> Atomic.get first_delivered));
            i)
          (Array.init n Fun.id)
      in
      let label s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check bool) (label "one delivery per index, in order, as returned") true
        (List.rev !deliveries = List.mapi (fun i o -> (i, o)) (Array.to_list out));
      Alcotest.(check bool) (label "the failed job is delivered as a failure") true
        (match out.(2) with Pool.Failed f -> f.Pool.f_index = 2 | Pool.Done _ -> false);
      Alcotest.(check bool) (label "result 0 arrives before the last job returns") true
        (Atomic.get early))
    [ 1; 2; 4 ]

exception Stop_delivery

(* an exception from [on_result] ends the batch and comes out of [map];
   nothing after it is delivered, and the next [map] runs normally *)
let check_pool_on_result_raises () =
  List.iter
    (fun jobs ->
      let items = Array.init 8 Fun.id in
      let delivered = ref [] in
      Alcotest.check_raises (Printf.sprintf "jobs=%d: raised out of map" jobs)
        Stop_delivery (fun () ->
          ignore
            (Pool.map ~jobs
               ~on_result:(fun i _ ->
                 delivered := i :: !delivered;
                 if i = 1 then raise Stop_delivery)
               succ items));
      Alcotest.(check (list int)) (Printf.sprintf "jobs=%d: no delivery after it" jobs)
        [ 1; 0 ] !delivered;
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: the next map succeeds" jobs) true
        (Pool.map ~jobs succ items = Array.map (fun i -> Pool.Done (i + 1)) items))
    [ 1; 2; 4 ]

(* --- synthesis cache -------------------------------------------------- *)

let pc_design () =
  let producer =
    process "producer" ~locals:[ local "i" 8 ]
      [
        while_
          (var "i" <: cst ~width:8 4)
          [ emit "o" (var "i" *: cst ~width:8 7); set "i" (var "i" +: cst ~width:8 1); wait 1 ];
        halt;
      ]
  in
  design "cachetest" ~ports:[ out_port "o" 8 ] ~objects:[] ~processes:[ producer ]

let check_cache_stats () =
  let c = Synth_cache.create () in
  let d = pc_design () in
  let r1 = Synth_cache.synthesize c d in
  let r2 = Synth_cache.synthesize c d in
  Alcotest.(check bool) "hit returns the same report" true (r1 == r2);
  Alcotest.(check (pair int int)) "one miss then one hit" (1, 1)
    (let s = Synth_cache.stats c in
     (s.Synth_cache.hits, s.Synth_cache.misses));
  Alcotest.(check int) "one entry" 1 (Synth_cache.size c);
  (* the key covers the synthesis options, not just the design *)
  let options = { Synthesize.default_options with Synthesize.chaining = false } in
  ignore (Synth_cache.synthesize c ~options d);
  Alcotest.(check (pair int int)) "distinct options miss separately" (1, 2)
    (let s = Synth_cache.stats c in
     (s.Synth_cache.hits, s.Synth_cache.misses));
  Alcotest.(check bool) "keys differ with options" true
    (Synth_cache.key d <> Synth_cache.key ~options d);
  (* structural equality is what is hashed: a rebuilt design hits *)
  ignore (Synth_cache.synthesize c (pc_design ()));
  Alcotest.(check int) "structurally equal design hits" 2
    (Synth_cache.stats c).Synth_cache.hits

let check_cache_replays_failure () =
  (* one output port driven by two processes is outside the synthesisable
     subset: the failure must be cached and replayed, not recomputed *)
  let bad =
    design "bad" ~ports:[ out_port "o" 8 ] ~objects:[]
      ~processes:
        [
          process "a" [ emit "o" (cst ~width:8 1); halt ];
          process "b" [ emit "o" (cst ~width:8 2); halt ];
        ]
  in
  let c = Synth_cache.create () in
  let attempt () =
    match Synth_cache.synthesize c bad with
    | _ -> Alcotest.fail "bad design synthesised"
    | exception Synthesize.Synthesis_error e -> e
  in
  let e1 = attempt () in
  let e2 = attempt () in
  Alcotest.(check string) "replayed failure is identical" e1 e2;
  Alcotest.(check (pair int int)) "failure cached as one miss, one hit" (1, 1)
    (let s = Synth_cache.stats c in
     (s.Synth_cache.hits, s.Synth_cache.misses))

(* a cache hit must be indistinguishable from a fresh synthesis — checked
   over the same random design space as the synthesiser's equivalence
   property *)
let cache_transparent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"cache: hit == fresh synthesis"
       Test_synth.gen_design (fun d ->
         match Hlcs_hlir.Typecheck.check d with
         | Error _ -> QCheck2.assume_fail ()
         | Ok () -> (
             match Synthesize.synthesize d with
             | exception _ -> QCheck2.assume_fail ()
             | fresh ->
                 let c = Synth_cache.create () in
                 let miss = Synth_cache.synthesize c d in
                 let hit = Synth_cache.synthesize c d in
                 hit == miss
                 && hit.Synthesize.rp_rtl = fresh.Synthesize.rp_rtl
                 && hit.Synthesize.rp_process_states
                    = fresh.Synthesize.rp_process_states
                 && hit.Synthesize.rp_stats = fresh.Synthesize.rp_stats)))

(* --- snapshot merging ------------------------------------------------- *)

let counters ~deltas ~peak_runnable () =
  let c = K.Counters.create () in
  c.K.Counters.deltas <- deltas;
  c.K.Counters.activations <- deltas * 2;
  c.K.Counters.signal_writes <- deltas + 3;
  c.K.Counters.peak_runnable <- peak_runnable;
  c.K.Counters.peak_timed <- peak_runnable + 1;
  c

let snap ?(label = "s") ?(sim = T.ns 5) ?wall ?phases ?(extras = []) c =
  {
    Obs.sn_label = label;
    sn_sim_time = sim;
    sn_wall_seconds = wall;
    sn_counters = c;
    sn_phases = phases;
    sn_extras = extras;
  }

let phases a =
  { K.pt_evaluate = a; pt_update = a *. 2.; pt_notify = a *. 3.; pt_run = a *. 4. }

let check_merge () =
  let a =
    snap ~label:"left" ~sim:(T.ns 5) ~wall:0.5 ~phases:(phases 0.25)
      ~extras:[ ("hits", 3); ("misses", 1) ]
      (counters ~deltas:10 ~peak_runnable:4 ())
  in
  let b =
    snap ~label:"right" ~sim:(T.ns 7) ~wall:0.25 ~phases:(phases 0.5)
      ~extras:[ ("misses", 2); ("evictions", 9) ]
      (counters ~deltas:3 ~peak_runnable:6 ())
  in
  let m = Obs.merge a b in
  Alcotest.(check string) "left label wins" "left" m.Obs.sn_label;
  Alcotest.(check int) "sim time sums" (T.ns 12) m.Obs.sn_sim_time;
  Alcotest.(check (option (float 1e-9))) "wall sums" (Some 0.75) m.Obs.sn_wall_seconds;
  Alcotest.(check int) "counters sum" 13 m.Obs.sn_counters.K.Counters.deltas;
  Alcotest.(check int) "derived counters sum" 26
    m.Obs.sn_counters.K.Counters.activations;
  Alcotest.(check int) "peaks take the max" 6
    m.Obs.sn_counters.K.Counters.peak_runnable;
  Alcotest.(check int) "both peak fields max" 7
    m.Obs.sn_counters.K.Counters.peak_timed;
  (match m.Obs.sn_phases with
  | None -> Alcotest.fail "phases lost"
  | Some p ->
      Alcotest.(check (float 1e-9)) "phase evaluate sums" 0.75 p.K.pt_evaluate;
      Alcotest.(check (float 1e-9)) "phase run sums" 3.0 p.K.pt_run);
  Alcotest.(check (list (pair string int)))
    "extras sum per name, first-appearance order"
    [ ("hits", 3); ("misses", 3); ("evictions", 9) ]
    m.Obs.sn_extras;
  (* the RTL engine's per-design gauges take the max, its work counters
     still sum *)
  let rtl ~nodes ~settles =
    snap
      ~extras:
        [ ("rtl_levels", 5); ("rtl_nodes", nodes); ("rtl_settles", settles);
          ("rtl_cone_max", nodes - 38) ]
      (counters ~deltas:1 ~peak_runnable:1 ())
  in
  Alcotest.(check (list (pair string int)))
    "rtl gauges merge by max"
    [ ("rtl_levels", 5); ("rtl_nodes", 145); ("rtl_settles", 7); ("rtl_cone_max", 107) ]
    (Obs.merge (rtl ~nodes:145 ~settles:3) (rtl ~nodes:120 ~settles:4)).Obs.sn_extras;
  (* an absent optional keeps the other side's figure *)
  let bare = snap (counters ~deltas:1 ~peak_runnable:1 ()) in
  Alcotest.(check (option (float 1e-9))) "missing wall keeps present side"
    (Some 0.5)
    (Obs.merge bare a).Obs.sn_wall_seconds;
  Alcotest.(check bool) "missing phases keep present side" true
    ((Obs.merge bare a).Obs.sn_phases <> None);
  (* merging must not alias the operands' mutable counter records *)
  m.Obs.sn_counters.K.Counters.deltas <- 999;
  Alcotest.(check int) "merge copies counters" 10
    a.Obs.sn_counters.K.Counters.deltas

let check_merge_all () =
  let mk d = snap ~wall:0.125 (counters ~deltas:d ~peak_runnable:d ()) in
  Alcotest.(check bool) "merge_all [] = None" true
    (Obs.merge_all ~label:"agg" [] = None);
  (match Obs.merge_all ~label:"agg" [ mk 1; mk 2; mk 4 ] with
  | None -> Alcotest.fail "merge_all dropped snapshots"
  | Some m ->
      Alcotest.(check string) "relabelled" "agg" m.Obs.sn_label;
      Alcotest.(check int) "fold sums" 7 m.Obs.sn_counters.K.Counters.deltas;
      Alcotest.(check int) "fold maxes peaks" 4
        m.Obs.sn_counters.K.Counters.peak_runnable);
  (* associativity: the sweep folds in arbitrary grouping *)
  let a, b, c = (mk 1, mk 2, mk 4) in
  Alcotest.(check bool) "merge is associative" true
    (Obs.merge a (Obs.merge b c) = Obs.merge (Obs.merge a b) c)

(* --- sweep determinism ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp_dirs f =
  let root = Filename.temp_file "hlcs_sweep" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  let sub n =
    let d = Filename.concat root n in
    Unix.mkdir d 0o755;
    d
  in
  let a = sub "par" and b = sub "seq" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
          Unix.rmdir d)
        [ a; b ];
      Unix.rmdir root)
    (fun () -> f a b)

let check_sweep_deterministic () =
  with_temp_dirs (fun dir_par dir_seq ->
      let config dir =
        Run_config.(default |> with_mem_bytes 256 |> with_profile true |> with_vcd_prefix dir)
      in
      let scenarios = Sweep.scenarios (config dir_par) ~seed:2004 ~n:4 in
      let par = Sweep.run ~jobs:4 (config dir_par) ~count:4 ~scenarios in
      let seq = Sweep.run ~jobs:1 (config dir_seq) ~count:4 ~scenarios in
      Alcotest.(check bool) "parallel sweep passes" true par.Sweep.sw_ok;
      Alcotest.(check int) "parallel sweep used 4 domains" 4 par.Sweep.sw_domains;
      Alcotest.(check int) "sequential baseline spawned nothing" 1
        seq.Sweep.sw_domains;
      (* the strongest claim: rendered verdicts and every waveform are
         byte-identical across domain counts *)
      Alcotest.(check string) "deterministic text identical"
        (Sweep.render_text ~wall:false seq)
        (Sweep.render_text ~wall:false par);
      Alcotest.(check string) "deterministic json identical"
        (Hlcs_json.Json.to_string (Sweep.to_json ~wall:false seq))
        (Hlcs_json.Json.to_string (Sweep.to_json ~wall:false par));
      let files d = List.sort compare (Array.to_list (Sys.readdir d)) in
      let names = files dir_par in
      Alcotest.(check (list string)) "same vcd file set" names (files dir_seq);
      Alcotest.(check bool) "vcds written" true
        (List.length names = 2 * List.length scenarios);
      List.iter
        (fun n ->
          Alcotest.(check bool) ("byte-identical vcd: " ^ n) true
            (read_file (Filename.concat dir_par n)
            = read_file (Filename.concat dir_seq n)))
        names;
      (* one design across the [`Environment] axis: the whole sweep costs a
         single synthesis, and the merged snapshot carries the evidence *)
      (match par.Sweep.sw_cache with
      | None -> Alcotest.fail "cache stats missing"
      | Some st ->
          Alcotest.(check (pair int int)) "single-synthesis amortisation" (3, 1)
            (st.Synth_cache.hits, st.Synth_cache.misses));
      match par.Sweep.sw_profile with
      | None -> Alcotest.fail "merged profile missing"
      | Some sn ->
          Alcotest.(check (option int)) "cache hits surfaced as extras" (Some 3)
            (List.assoc_opt "synth_cache_hits" sn.Obs.sn_extras))

(* a one-process edit between sweeps: varying the stimulus seed changes
   only the application process (the script compiles into its body), so a
   warm shared cache rebuilds exactly that unit and relinks the rest *)
let check_sweep_incremental_units () =
  let cache = Synth_cache.create ~disk:`Memory () in
  let sweep seed =
    let config = Run_config.(with_mem_bytes 256 default) in
    Sweep.run ~jobs:1 ~cache_handle:cache config ~count:4
      ~scenarios:(Sweep.scenarios config ~seed ~n:2)
  in
  let r1 = sweep 2004 in
  Alcotest.(check bool) "first sweep passes" true r1.Sweep.sw_ok;
  let cold = Synth_cache.stats cache in
  Alcotest.(check int) "cold sweep rebuilds every unit"
    cold.Synth_cache.units_total cold.Synth_cache.units_rebuilt;
  Alcotest.(check bool) "the design has several units" true
    (cold.Synth_cache.units_total > 1);
  let r2 = sweep 2005 in
  Alcotest.(check bool) "second sweep passes" true r2.Sweep.sw_ok;
  let warm = Synth_cache.stats cache in
  Alcotest.(check int) "env-axis sweep after a one-process edit: 1 rebuilt" 1
    (warm.Synth_cache.units_rebuilt - cold.Synth_cache.units_rebuilt);
  Alcotest.(check int) "every other unit relinked from cache"
    (cold.Synth_cache.units_total - 1)
    (warm.Synth_cache.units_reused - cold.Synth_cache.units_reused);
  match r2.Sweep.sw_cache with
  | None -> Alcotest.fail "cache stats missing"
  | Some st ->
      Alcotest.(check int) "unit counters surfaced in the sweep report"
        warm.Synth_cache.units_rebuilt st.Synth_cache.units_rebuilt

(* the batch's config reaches every job: memory seeds count up from the
   config's on the environment axis and stay at it on the stimuli and
   fault axes *)
let check_sweep_mem_seeds () =
  let mem_seeds kind =
    let job =
      {
        Hlcs.Job.default with
        Hlcs.Job.j_kind = kind;
        j_config = Run_config.(default |> with_mem_bytes 256 |> with_mem_seed 7);
        j_count = 2;
        j_jobs = Some 1;
      }
    in
    match Hlcs.Job.run job with
    | Ok (Hlcs.Job.Sweep_result r) ->
        List.iter
          (fun jb ->
            Alcotest.(check (option string)) "job ran" None jb.Sweep.jb_failure)
          r.Sweep.sw_jobs;
        List.map (fun jb -> jb.Sweep.jb_scenario.Sweep.sc_mem_seed) r.Sweep.sw_jobs
    | _ -> Alcotest.fail "batch job produced no sweep report"
  in
  Alcotest.(check (list int)) "environment axis" [ 7; 8; 9 ]
    (mem_seeds (Hlcs.Job.Sweep { n = 3; vary = `Environment }));
  Alcotest.(check (list int)) "stimuli axis" [ 7; 7; 7 ]
    (mem_seeds (Hlcs.Job.Sweep { n = 3; vary = `Stimuli }));
  Alcotest.(check (list int)) "fault axis" [ 7; 7 ]
    (mem_seeds (Hlcs.Job.Fault { n = 2; fault_seed = 7 }))

(* --- synthesis cache: the disk tier ----------------------------------- *)

(* fig3: several synthesis units, so the fragment tier has blobs to lose *)
let fig3_design () =
  Hlcs_interface.Pci_master_design.design
    ~app:(Hlcs_pci.Pci_stim.directed_smoke ~base:0) ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_cache_dir f =
  let dir = Filename.temp_file "hlcs_synth_disk" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let blobs dir prefix =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (String.starts_with ~prefix)
  |> List.map (Filename.concat dir)

let check_disk_second_cache () =
  with_cache_dir (fun dir ->
      let d = fig3_design () in
      let first = Synth_cache.create ~disk:(`Dir dir) () in
      Alcotest.(check (option string)) "disk tier armed" (Some dir)
        (Synth_cache.disk_dir first);
      let r1 = Synth_cache.synthesize first d in
      let second = Synth_cache.create ~disk:(`Dir dir) () in
      let r2 = Synth_cache.synthesize second d in
      let s = Synth_cache.stats second in
      Alcotest.(check (triple int int int)) "hits, misses, disk_hits" (0, 0, 1)
        (s.Synth_cache.hits, s.Synth_cache.misses, s.Synth_cache.disk_hits);
      Alcotest.(check bool) "the persisted report is equal" true (r1 = r2))

let check_disk_corrupt_rebuilt () =
  with_cache_dir (fun dir ->
      let d = fig3_design () in
      let first = Synth_cache.create ~disk:(`Dir dir) () in
      let r1 = Synth_cache.synthesize first d in
      let units = (Synth_cache.stats first).Synth_cache.units_total in
      (match blobs dir "hlcs_sy_" with
      | [ p ] ->
          let s = read_file p in
          write_file p (String.sub s 0 (String.length s / 2))
      | l -> Alcotest.failf "expected one report blob, found %d" (List.length l));
      (match blobs dir "hlcs_syu_" with
      | p :: _ ->
          let b = Bytes.of_string (read_file p) in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          write_file p (Bytes.to_string b)
      | [] -> Alcotest.fail "no fragment blobs written");
      let second = Synth_cache.create ~disk:(`Dir dir) () in
      let r2 = Synth_cache.synthesize second d in
      let s = Synth_cache.stats second in
      Alcotest.(check (pair int int)) "truncated report rebuilt: misses, disk_hits"
        (1, 0) (s.Synth_cache.misses, s.Synth_cache.disk_hits);
      Alcotest.(check (pair int int)) "flipped fragment rebuilt, the rest loaded"
        (1, units - 1)
        (s.Synth_cache.units_rebuilt, s.Synth_cache.units_reused);
      Alcotest.(check bool) "the rebuilt report is equal" true (r1 = r2);
      let third = Synth_cache.create ~disk:(`Dir dir) () in
      ignore (Synth_cache.synthesize third d);
      Alcotest.(check int) "the rewritten report blob loads" 1
        (Synth_cache.stats third).Synth_cache.disk_hits)

let check_disk_foreign_pruned () =
  with_cache_dir (fun dir ->
      let stale =
        Filename.concat dir
          (Printf.sprintf "hlcs_sy_%s-00000000.bin" (Synth_cache.key (fig3_design ())))
      in
      write_file stale "stale";
      ignore (Synth_cache.create ~disk:(`Dir dir) ());
      Alcotest.(check bool) "foreign fingerprint deleted" false
        (Sys.file_exists stale))

let check_disk_unusable () =
  let d = fig3_design () in
  let c = Synth_cache.create ~disk:(`Dir "/dev/null/x") () in
  Alcotest.(check (option string)) "memory-only" None (Synth_cache.disk_dir c);
  Alcotest.(check bool) "the same report" true
    (Synth_cache.synthesize c d = Synthesize.synthesize d)

let tests =
  [
    ( "runtime",
      [
        pool_exactly_once;
        pool_fault_isolation;
        Alcotest.test_case "pool basics" `Quick check_pool_basics;
        Alcotest.test_case "cache: stats and keying" `Quick check_cache_stats;
        Alcotest.test_case "cache: failures replay" `Quick check_cache_replays_failure;
        cache_transparent;
        Alcotest.test_case "obs: merge" `Quick check_merge;
        Alcotest.test_case "obs: merge_all" `Quick check_merge_all;
        Alcotest.test_case "sweep: 4 domains == sequential" `Quick
          check_sweep_deterministic;
        Alcotest.test_case "sweep: one-process edit rebuilds one unit" `Quick
          check_sweep_incremental_units;
        Alcotest.test_case "sweep: memory seeds follow the config" `Quick
          check_sweep_mem_seeds;
        Alcotest.test_case "cache disk: a second cache loads the report" `Quick
          check_disk_second_cache;
        Alcotest.test_case "cache disk: corrupt blobs deleted and rebuilt" `Quick
          check_disk_corrupt_rebuilt;
        Alcotest.test_case "cache disk: foreign fingerprint pruned" `Quick
          check_disk_foreign_pruned;
        Alcotest.test_case "cache disk: unusable directory is memory-only" `Quick
          check_disk_unusable;
        Alcotest.test_case "pool: the caller runs jobs" `Quick check_pool_caller_runs_jobs;
        Alcotest.test_case "pool: results stream in order as they finish" `Quick
          check_pool_streams_in_order;
        Alcotest.test_case "pool: an on_result exception propagates" `Quick
          check_pool_on_result_raises;
      ] );
  ]
