(* Benchmark and experiment harness.

   For every figure/experiment of the paper (see DESIGN.md's experiment
   index) this executable prints the experiment's table (the
   EXPERIMENTS.md numbers).  Its min-of-N wall-clock series (--json,
   --smoke) time what the repo benchmark (perfbench/, BENCHMARK.json)
   does not see: the kernel's bare clock, the bistable, the SRAM
   element, the equivalence checks, FW1, batch sweeps, the raw netlist,
   disk-tier synthesis and a flow's static passes on their own.  The
   flow's stages, synthesis units, the daemon and swarm campaigns are
   perfbench's layers.

   FIG1  shared-bistable global object (Figure 1)
   FIG3  TLM vs pin-accurate vs post-synthesis simulation speed (Figure 3)
   FIG4  waveform dump of the PCI handler (Figure 4)
   EXP1-3 the three-step validation flow (Section 3)
   FW1   method-call latency vs concurrent callers (the paper's future work) *)

module K = Hlcs_engine.Kernel
module C = Hlcs_engine.Clock
module T = Hlcs_engine.Time
module BV = Hlcs_logic.Bitvec
module Go = Hlcs_osss.Global_object
module Policy = Hlcs_osss.Policy
module Bistable = Hlcs_osss.Bistable
open Hlcs_interface
module Synthesize = Hlcs_synth.Synthesize
module Equiv = Hlcs_verify.Equiv
module Pci_stim = Hlcs_pci.Pci_stim
module Pci_types = Hlcs_pci.Pci_types
module Flow = Hlcs.Flow
module Sweep = Hlcs.Sweep
module Synth_cache = Hlcs_synth.Synth_cache
module Pool = Hlcs_runtime.Pool
module Json = Hlcs_json.Json
module Analyze = Hlcs_analysis.Analyze

let script = Pci_stim.directed_smoke ~base:0
let mem_bytes = 512
let config = Run_config.(default |> with_mem_bytes mem_bytes)

let random_script =
  Pci_stim.write_then_read_all (Pci_stim.random ~seed:7 ~count:10 ~base:0 ~size_bytes:mem_bytes ())

(* ------------------------------------------------------------------ *)
(* FIG1: the shared bistable                                           *)

let fig1_roundtrips = 200

let run_fig1 () =
  let k = K.create () in
  let b1 = Bistable.create k ~name:"m1.b" and b2 = Bistable.create k ~name:"m2.b" in
  Bistable.connect b1 b2;
  let observed = ref 0 in
  let _ =
    K.spawn k ~name:"m1" (fun () ->
        for _ = 1 to fig1_roundtrips do
          Bistable.set b1;
          Bistable.reset b1
        done)
  in
  let _ =
    K.spawn k ~name:"m2" (fun () ->
        for _ = 1 to fig1_roundtrips do
          Bistable.wait_until_set b2;
          incr observed;
          while Bistable.get_state b2 do
            ()
          done
        done)
  in
  K.run ~max_time:(T.us 1000) k;
  !observed

(* ------------------------------------------------------------------ *)
(* FW1: method-call completion latency vs number of concurrent callers *)

(* behavioural-level wait statistics for Contention_design's workload *)
let fw1_behavioural_wait ~policy ~nprocs ~rounds =
  let k = K.create () in
  let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
  let o = Go.create k ~name:"ctr" ~policy 0 in
  for i = 1 to nprocs do
    ignore
      (K.spawn k
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           for _ = 1 to rounds do
             Go.call o ~meth:"bump" ~priority:i ~guard:(fun _ -> true) (fun st ->
                 (st + 1, ()));
             C.wait_rising clk
           done))
  done;
  K.run ~max_time:(T.us 10_000) k;
  let calls = max 1 (Go.calls_granted o) in
  (T.to_ps (Go.total_wait o) / calls / 10_000, T.to_ps (Go.max_wait o) / 10_000)

(* ------------------------------------------------------------------ *)
(* EXT3: batch validation throughput (domain pool + synthesis cache)   *)

(* 16 independent end-to-end validations of one design over the
   environment axis (varying target-memory fill), the workload of
   `hlcs_cli sweep`.  Uncached sequential execution is the pre-batch
   baseline: it pays one synthesis per job where the shared cache pays
   one for the whole sweep. *)
let sweep_n = 16

let run_sweep ~jobs ~cache () =
  let config = Run_config.(with_mem_bytes 512 default) in
  let config = if cache then config else Run_config.without_cache config in
  let scenarios = Sweep.scenarios config ~seed:2004 ~n:sweep_n in
  let r = Sweep.run ~jobs config ~count:12 ~scenarios in
  if not r.Sweep.sw_ok then failwith "batch sweep failed";
  r

let batch_configs =
  [
    ("seq_uncached", 1, false);
    ("seq_cached", 1, true);
    ("par2_cached", 2, true);
    ("par4_cached", 4, true);
  ]

(* ------------------------------------------------------------------ *)
(* Experiment tables                                                   *)

let heading title = Printf.printf "\n=== %s ===\n" title

let table_fig1 () =
  heading "FIG1 - Figure 1: shared bistable global object";
  let observed = run_fig1 () in
  Printf.printf
    "two connected bistables, %d set/reset rounds: %d observations via the shared state space -> %s\n"
    fig1_roundtrips observed
    (if observed = fig1_roundtrips then "OK" else "MISMATCH")

let table_fig3 () =
  heading "FIG3 - Figure 3: communication refinement (same application, three interfaces)";
  let a = System.tlm config ~script:random_script in
  let b = System.pin config ~script:random_script in
  let c = System.rtl config ~script:random_script in
  let d = Sram_system.pin config ~script:random_script in
  let e = Sram_system.rtl config ~script:random_script in
  Printf.printf "%-22s %12s %12s %14s %10s\n" "configuration" "cycles" "deltas" "wall (s)"
    "speedup";
  let row (r : System.run_report) =
    Printf.printf "%-22s %12d %12d %14.5f %9.1fx\n" r.System.rr_label r.System.rr_cycles
      r.System.rr_deltas r.System.rr_wall_seconds
      (c.System.rr_wall_seconds /. r.System.rr_wall_seconds)
  in
  List.iter row [ a; b; c; d; e ];
  let consistent =
    System.compare_runs a b = [] && System.compare_runs b c = []
    && System.compare_bus_traces b c = []
    && System.compare_runs a d = [] && System.compare_runs d e = []
  in
  Printf.printf
    "application-level observations consistent across all five configurations: %b\n"
    consistent

let table_fig4 () =
  heading "FIG4 - Figure 4: simulation waveforms of the PCI handler";
  let waves = Run_config.with_vcd_prefix "pci" config in
  let b = System.pin waves ~script in
  let c = System.rtl waves ~script in
  Printf.printf "VCD written: pci_behavioural.vcd (%d bytes), pci_rtl.vcd (%d bytes)\n"
    (Unix.stat "pci_behavioural.vcd").Unix.st_size
    (Unix.stat "pci_rtl.vcd").Unix.st_size;
  Printf.printf "bus transactions (behavioural run):\n";
  List.iter
    (fun tx -> Format.printf "  %a@." Pci_types.pp_transaction tx)
    b.System.rr_transactions;
  Printf.printf "post-synthesis transaction trace identical: %b\n"
    (System.compare_bus_traces b c = []);
  (* the paper's waveform comparison, mechanised *)
  let wave = Hlcs_verify.Wave_diff.compare_files "pci_behavioural.vcd" "pci_rtl.vcd" in
  print_endline "per-signal waveform comparison (value sequences, time-abstracted):";
  Format.printf "%a@." Hlcs_verify.Wave_diff.pp_report wave;
  Printf.printf
    "protocol lines consistent (clk/req/ad differ only by abstraction level): %b\n"
    (Hlcs_verify.Wave_diff.consistent ~ignore:[ "clk"; "req_n_0"; "ad" ] wave)

let table_exp123 () =
  heading "EXP1-3 - the paper's three-step validation flow";
  let report = Flow.execute config ~script:random_script in
  Format.printf "%a@." Flow.pp_report report

let table_ext2_dma () =
  heading
    "EXT2 - DMA on the pattern: word-by-word vs burst-buffered (register-file staging)";
  let words = 16 in
  let run label design =
    let config = Run_config.make ~mem_bytes:1024 () in
    let b =
      System.pin ~design (Run_config.with_max_time (T.us 4_000) config) ~script:[]
    in
    let c =
      System.rtl
        ~synthesis:(Run_config.synthesize config design)
        (Run_config.with_max_time (T.us 16_000) config)
        ~script:[]
    in
    let ok = System.compare_runs b c = [] && System.compare_bus_traces b c = [] in
    Printf.printf "%-16s %10d txns %10d cycles (behavioural) %10d cycles (rtl)  consistent=%b\n"
      label
      (List.length b.System.rr_transactions)
      b.System.rr_cycles c.System.rr_cycles ok
  in
  run "word-by-word" (Dma_design.design ~src:0 ~dst:0x100 ~words ());
  run "burst chunk=4" (Dma_design.buffered_design ~src:0 ~dst:0x100 ~words ~chunk:4 ());
  run "burst chunk=8" (Dma_design.buffered_design ~src:0 ~dst:0x100 ~words ~chunk:8 ())

let table_fw1 () =
  heading
    "FW1 - future work: method-call completion time vs concurrent callers (synthesised)";
  let rounds = 16 in
  Printf.printf "%-14s" "callers";
  List.iter (fun n -> Printf.printf "%8d" n) [ 1; 2; 4; 8; 12; 16 ];
  Printf.printf "\n";
  List.iter
    (fun policy ->
      Printf.printf "%-14s" (Policy.to_string policy);
      List.iter
        (fun nprocs ->
          let total = Contention_design.rtl_cycles ~policy ~nprocs ~rounds in
          (* cycles per completed call, across all callers *)
          Printf.printf "%8.1f" (float_of_int total /. float_of_int rounds))
        [ 1; 2; 4; 8; 12; 16 ];
      Printf.printf "   (total cycles / %d rounds)\n" rounds)
    Policy.all;
  Printf.printf "\nbehavioural wait (delta-level, cycles avg/max), fcfs:\n";
  List.iter
    (fun nprocs ->
      let avg, mx = fw1_behavioural_wait ~policy:Policy.Fcfs ~nprocs ~rounds in
      Printf.printf "  %2d callers: avg=%d max=%d\n" nprocs avg mx)
    [ 1; 4; 16 ]

let table_ext3_batch () =
  heading "EXT3 - batch validation throughput (16-job sweep, one design, environment axis)";
  Printf.printf
    "host domains available: %d (with 1, parallel configurations measure pure\nruntime overhead; the determinism suite proves their outputs identical)\n"
    (Pool.recommended_jobs ());
  let base = ref 0. in
  List.iter
    (fun (label, jobs, cache) ->
      let t0 = Unix.gettimeofday () in
      let r = run_sweep ~jobs ~cache () in
      let wall = Unix.gettimeofday () -. t0 in
      if !base = 0. then base := wall;
      Printf.printf "%-14s jobs=%d %9.3f s %7.2fx vs seq_uncached  cache: %s\n" label
        jobs wall (!base /. wall)
        (match r.Sweep.sw_cache with
        | None -> "off"
        | Some st ->
            Printf.sprintf "%d hits / %d misses" st.Synth_cache.hits
              st.Synth_cache.misses))
    batch_configs

let table_exp2_area () =
  heading "EXP2 - synthesis results for the PCI interface (units under design)";
  let d = Pci_master_design.design ~app:script () in
  let chained = Synthesize.synthesize d in
  let unchained =
    Synthesize.synthesize ~options:{ Synthesize.default_options with chaining = false } d
  in
  let raw =
    Synthesize.synthesize ~options:{ Synthesize.default_options with optimize = false } d
  in
  Format.printf "with operator chaining (default):@.%a@." Synthesize.pp_report chained;
  Format.printf "one assignment per state (ablation):@.%a@." Synthesize.pp_report
    unchained;
  Format.printf "netlist clean-up passes disabled (ablation):@.%a@." Synthesize.pp_report
    raw

(* ------------------------------------------------------------------ *)
(* EQUIV: the SAT-based combinational equivalence proofs                *)

module Cec = Hlcs_analysis.Cec

let equiv_pair design =
  lazy
    (let raw =
       Synthesize.synthesize
         ~options:{ Synthesize.default_options with optimize = false }
         design
     in
     (raw.Synthesize.rp_rtl, (Synthesize.synthesize design).Synthesize.rp_rtl))

let pci_equiv_pair = equiv_pair (Pci_master_design.design ~app:script ())
let sram_equiv_pair = equiv_pair (Sram_master_design.design ~app:script ())
let dma_equiv_pair = equiv_pair (Dma_design.design ~src:0 ~dst:64 ~words:8 ())

let run_cec pair =
  let left, right = Lazy.force pair in
  match (Cec.check left right).Cec.rp_verdict with
  | Cec.Equivalent -> ()
  | _ -> failwith "bench: shipped design failed its equivalence proof"

(* a fresh private directory under $TMPDIR, removed with its contents
   when the harness exits *)
let temp_dir prefix =
  let rec remove_tree path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () -> try remove_tree dir with Sys_error _ -> ());
  dir

(* ------------------------------------------------------------------ *)
(* Wall-clock series harness (--json / --smoke)                        *)

(* The experiments' artefacts as plain thunks.  The JSON mode times them
   with min-of-N wall clock: scheduler noise only ever adds time, so the
   minimum is a far more stable basis for before/after comparisons than a
   least-squares estimate on a noisy box.  Each thunk returns the number
   of simulated clock cycles when the series is an RTL simulation
   (deterministic per series), so the JSON can carry a derived
   [cycles_per_sec] axis; [None] for series without a cycle count. *)
let bare_clock_cycles = 200_000

let series : (string * (unit -> int option)) list =
  [
    (* the kernel's per-cycle floor: a lone 10 ns clock that nothing waits
       on, run to the end of its last full cycle *)
    ( "kernel/bare_clock",
      fun () ->
        let k = K.create () in
        let clk = C.create k ~name:"clk" ~period:(T.ns 10) () in
        K.run ~max_time:(T.ns ((10 * bare_clock_cycles) - 5)) k;
        Some (C.cycles clk) );
    ("fig1/bistable_roundtrips", fun () -> ignore (run_fig1 ()); None);
    ( "fig3/sram_pin",
      fun () -> ignore (Sram_system.pin config ~script:random_script); None );
    ( "fig3/sram_rtl",
      fun () ->
        Some (Sram_system.rtl config ~script:random_script).System.rr_cycles );
    ( "exp3/equiv_check",
      fun () ->
        ignore
          (Equiv.check ~max_time:(T.us 50)
             (Contention_design.design ~policy:Policy.Fcfs ~nprocs:3 ~rounds:5));
        None );
    (* the SAT-based combinational proof (raw synthesis vs optimised
       netlist).  The pair is synthesised lazily once, so the first timed
       run pays synthesis and every later one is pure CEC — min-of-N
       therefore reports the proof time alone *)
    ("equiv/cec_pci", fun () -> run_cec pci_equiv_pair; None);
    ("equiv/cec_sram", fun () -> run_cec sram_equiv_pair; None);
    ("equiv/cec_dma", fun () -> run_cec dma_equiv_pair; None);
    ( "fw1/contention_rtl_16",
      fun () ->
        Some (Contention_design.rtl_cycles ~policy:Policy.Round_robin ~nprocs:16 ~rounds:8) );
    (* EXT3: the batch sweep at every configuration, so the committed JSON
       carries the full scaling picture of the host it ran on *)
    ( "batch/sweep16_seq_uncached",
      fun () -> ignore (run_sweep ~jobs:1 ~cache:false ()); None );
    ("batch/sweep16_seq_cached", fun () -> ignore (run_sweep ~jobs:1 ~cache:true ()); None);
    ("batch/sweep16_par2_cached", fun () -> ignore (run_sweep ~jobs:2 ~cache:true ()); None);
    ("batch/sweep16_par4_cached", fun () -> ignore (run_sweep ~jobs:4 ~cache:true ()); None);
  ]

(* ------------------------------------------------------------------ *)
(* Raw netlist throughput                                              *)

module Compile = Hlcs_rtl.Compile

let fig3_rtl =
  lazy
    (Synthesize.synthesize (Pci_master_design.design ~app:random_script ()))
      .Synthesize.rp_rtl

(* Raw engine throughput: drive the synthesized fig3 netlist directly —
   per-cycle input churn, settle, clock edge, settle — with no
   event-driven testbench around it.  An end-to-end RTL run (perfbench's
   rtl.ms) is bounded by the behavioural PCI models, the scheduler and the
   unit's own activation; this axis isolates the evaluator itself. *)
let netlist_cycles = 25_000

let netlist_levelized () =
  let d = Lazy.force fig3_rtl in
  let t = Compile.compile d in
  let inputs = Array.of_list d.Hlcs_rtl.Ir.rd_inputs in
  Compile.full_settle t;
  let s = ref 2004 in
  let next () =
    s := ((!s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    !s
  in
  for _ = 1 to netlist_cycles do
    let k = next () mod Array.length inputs in
    let _, w = inputs.(k) in
    let v = next () land (if w >= 62 then max_int else (1 lsl w) - 1) in
    Compile.set_input t k (BV.of_int ~width:w v);
    Compile.settle t;
    ignore (Compile.step_registers t : bool);
    Compile.settle t
  done;
  Some netlist_cycles

(* ------------------------------------------------------------------ *)
(* SERVE: the job daemon's restart story                               *)

(* the restart story: a fresh process (modelled as a fresh cache over a
   pre-populated disk directory) answering the fig3 synthesis from the
   disk tier instead of re-synthesising.  The cold population runs once,
   un-timed; every timed iteration is the warm load — compare against
   batch/sweep16_seq_uncached for the cold synthesis cost it replaces. *)
let serve_synth_disk =
  lazy
    (let dir = temp_dir "hlcs_bench_synth" in
     let cold = Synth_cache.create ~disk:(`Dir dir) () in
     ignore
       (Synth_cache.synthesize cold
          (Pci_master_design.design ~app:random_script ()));
     if (Synth_cache.stats cold).Synth_cache.misses <> 1 then
       failwith "serve bench: cold synthesis did not populate the disk tier";
     dir)

let serve_warm_vs_cold_synth () =
  let dir = Lazy.force serve_synth_disk in
  let warm = Synth_cache.create ~disk:(`Dir dir) () in
  ignore
    (Synth_cache.synthesize warm (Pci_master_design.design ~app:random_script ()));
  let s = Synth_cache.stats warm in
  if s.Synth_cache.disk_hits <> 1 || s.Synth_cache.misses <> 0 then
    failwith "serve bench: warm synthesis missed the disk tier";
  None

(* ------------------------------------------------------------------ *)
(* STATIC: the whole-design passes of a flow                           *)

(* What a count-400 fig3 flow runs on its design besides simulating it,
   once every synthesis unit is cached: the HLIR checks (typecheck, lint,
   deadlock, starvation), the relink of the cached fragments with its
   synthesis stats, the netlist checks, and the RT engine's plan for the
   freshly linked netlist, which misses the plan memo as every edit-loop
   flow's does.  The units are synthesised once, un-timed. *)
let static_count400 =
  lazy
    (let uud =
       Pci_master_design.design
         ~app:(Sweep.script Run_config.default ~seed:2004 ~count:400)
         ()
     in
     let plan = Synthesize.plan uud in
     let options = plan.Synthesize.pl_options in
     let unit pu = Synthesize.synthesize_unit options pu.Synthesize.u_decl in
     let frags = List.map unit plan.Synthesize.pl_units in
     (uud, plan, frags))

let static_passes () =
  let uud, plan, frags = Lazy.force static_count400 in
  if not (Analyze.clean (Analyze.design uud)) then
    failwith "static bench: the count-400 design does not pass analysis";
  let rtl = (Synthesize.link_plan plan frags).Synthesize.rp_rtl in
  if not (Analyze.clean (Analyze.rtl rtl)) then
    failwith "static bench: the linked netlist does not pass the netlist checks";
  ignore (Compile.compile rtl : Compile.t);
  None

let series =
  series
  @ [
      ("fig3/netlist_levelized", netlist_levelized);
      ("serve/warm_vs_cold_synth", serve_warm_vs_cold_synth);
      ("static/fig3_count400", static_passes);
    ]

(* substring selection, shared by --json and --smoke *)
let filtered ~filter entries =
  if filter = "" then entries
  else
    let has_sub name =
      let n = String.length name and f = String.length filter in
      let rec at i = i + f <= n && (String.sub name i f = filter || at (i + 1)) in
      at 0
    in
    match List.filter (fun (name, _) -> has_sub name) entries with
    | [] -> failwith (Printf.sprintf "--filter %S matches no series" filter)
    | some -> some

let measure ~repeat f =
  let last = f () in
  (* warm-up: fills minor heap, loads code paths.  Compacting afterwards
     gives every series the same heap shape regardless of what ran before
     it in the same process — without it the min of a short series can
     carry another series' major-GC debt. *)
  Gc.compact ();
  let runs =
    Array.init repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  let min_s = Array.fold_left min runs.(0) runs in
  let mean_s = Array.fold_left ( +. ) 0. runs /. float_of_int repeat in
  (min_s, mean_s, runs, last)

let run_json ~path ~label ~repeat ~filter =
  let selected = filtered ~filter series in
  let rows =
    List.map
      (fun (name, f) ->
        let min_s, mean_s, runs, cycles = measure ~repeat f in
        Printf.eprintf "%-28s min %8.3f ms  mean %8.3f ms\n%!" name (min_s *. 1e3)
          (mean_s *. 1e3);
        Json.Obj
          ([ ("name", Json.String name); ("min_s", Json.Float min_s); ("mean_s", Json.Float mean_s) ]
          @ (match cycles with
            | Some c -> [ ("cycles_per_sec", Json.Float (float_of_int c /. min_s)) ]
            | None -> [])
          @ [ ("runs_s", Json.List (Array.to_list (Array.map (fun r -> Json.Float r) runs))) ]))
      selected
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("label", Json.String label); ("repeat", Json.Int repeat); ("series", Json.List rows) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d series, repeat=%d)\n" path (List.length selected) repeat

(* One quick pass over every series plus the cross-configuration trace
   check: cheap enough for CI, still exercises all five interfaces. *)
let run_smoke ~filter =
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Printf.printf "smoke %-28s ok (%.1f ms)\n%!" name
        ((Unix.gettimeofday () -. t0) *. 1e3))
    (filtered ~filter series);
  let a = System.tlm config ~script in
  let b = System.pin config ~script in
  let c = System.rtl config ~script in
  let issues =
    System.compare_runs a b @ System.compare_runs b c @ System.compare_bus_traces b c
  in
  List.iter (fun i -> Printf.printf "smoke MISMATCH: %s\n" i) issues;
  if issues <> [] then exit 1;
  print_endline "smoke: all series ran, tlm/pin/rtl observations consistent"

let () =
  let json_path = ref "" in
  let label = ref "dev" in
  let repeat = ref 9 in
  let smoke = ref false in
  let filter = ref "" in
  Arg.parse
    [
      ("--json", Arg.Set_string json_path, "PATH write min-of-N wall-clock series to PATH");
      ("--label", Arg.Set_string label, "NAME label recorded in the JSON output");
      ("--repeat", Arg.Set_int repeat, "N timed runs per series (default 9)");
      ("--filter", Arg.Set_string filter, "SUB only run series whose name contains SUB");
      ("--smoke", Arg.Set smoke, " single quick pass per series, for CI");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hlcs bench harness";
  if !smoke then run_smoke ~filter:!filter
  else if !json_path <> "" then
    run_json ~path:!json_path ~label:!label ~repeat:!repeat ~filter:!filter
  else begin
    Printf.printf
      "hlcs benchmark & experiment harness - reproduction of Bruschi & Bombana, DATE 2004\n";
    table_fig1 ();
    table_fig3 ();
    table_fig4 ();
    table_exp2_area ();
    table_exp123 ();
    table_fw1 ();
    table_ext2_dma ();
    table_ext3_batch ()
  end
