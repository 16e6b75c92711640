(* Contract checks for the CLI's JSON reports.

   usage: check_report.exe KIND FILE...

   Every file is parsed with Hlcs_json.Json.parse (a syntax error is a
   complaint), then checked against the contract of KIND:

   - json              syntax only.
   - profile [--rtl]   `profile --format json`: a label, a non-negative
                       integer simulated time and the full kernel counter
                       set.  Files named after [--rtl] must also carry the
                       RTL-engine extras, internally consistent: fast + wide
                       evaluations account for every node evaluation, an
                       incremental engine settled at least once, a compiled
                       run reports exactly one of cache_hit/compiled.
   - fault             `fault --format json`: a sweep verdict, a job count
                       equal to the job_reports length, and per job a name,
                       seed pair, stage map of booleans and — whenever a
                       fault plan was injected — a verdict whose label comes
                       from the fault lattice and whose [ok] agrees with it.
   - sweep             `sweep --format json`: the fault contract, plus the
                       profile contract (without [--rtl]) on a merged
                       profile when one is present.
   - swarm             `swarm --format json`: the scheduler configuration
                       echo, a round ledger that spends exactly the jobs run
                       with consistent cumulative bins, per-family spend and
                       credit that add back up, verdict rows from the fault
                       lattice, monitor rows, failures that agree with [ok],
                       and coverage tables that agree with distinct_bins.
   - equiv             `equiv --format json`: an array with one object per
                       design; structural + SAT checks account for every
                       check, a counterexample exactly on inequivalent
                       verdicts, "equiv" diagnostics whose counts match the
                       severity histogram and agree with the verdict.

   Every report but equiv ships inside the versioned envelope
   {"schema_version": N, "kind": K, "payload": ...}, checked and peeled
   first.  All complaints go to stderr, prefixed with the file name; the
   exit status is 1 if there were any. *)

module Json = Hlcs_json.Json

let file = ref ""
let errors = ref []

let complain fmt =
  Printf.ksprintf (fun m -> errors := Printf.sprintf "%s: %s" !file m :: !errors) fmt

(* --- plumbing ------------------------------------------------------------ *)

let as_ conv what ctx name v =
  match conv v with
  | Ok x -> Some x
  | Error _ ->
      complain "%s: %S must be %s" ctx name what;
      None

let as_bool = as_ Json.to_bool "a boolean"
let as_int = as_ Json.to_int "an integer"
let as_num = as_ Json.to_float "a number"
let as_string = as_ Json.to_string_val "a string"

let as_list =
  as_ (function Json.List l -> Ok l | _ -> Error "") "an array"

let as_count ctx name v =
  match as_int ctx name v with
  | Some n when n < 0 ->
      complain "%s: %S must be non-negative" ctx name;
      None
  | r -> r

let as_ratio ctx name v =
  match as_num ctx name v with
  | Some f when f < 0.0 || f > 1.0 ->
      complain "%s: %S = %g outside [0, 1]" ctx name f;
      Some f
  | r -> r

let require ctx obj name check =
  match Json.member name obj with
  | Some v -> check v
  | None -> complain "%s: missing required field %S" ctx name

(* [get as_int ctx obj "x"]: the converted member, complaining when it is
   missing or mistyped *)
let get conv ctx obj name =
  match Json.member name obj with
  | Some v -> conv ctx name v
  | None ->
      complain "%s: missing required field %S" ctx name;
      None

let optional obj name check = Option.iter check (Json.member name obj)
let must_be_object ctx = function Json.Obj _ -> () | _ -> complain "%s: must be an object" ctx

let unwrap_envelope ~kind root =
  (match get as_int "envelope" root "schema_version" with
  | Some v when v < 1 -> complain "envelope: \"schema_version\" must be a positive integer"
  | _ -> ());
  (match get as_string "envelope" root "kind" with
  | Some k when k <> kind -> complain "envelope: kind %S, expected %S" k kind
  | _ -> ());
  match Json.member "payload" root with
  | Some payload -> payload
  | None ->
      complain "envelope: missing \"payload\"";
      Json.Obj []

let verdict_labels = [ "clean"; "survived"; "degraded"; "inconsistent" ]

let check_label ctx name l =
  let label = as_string ctx name l in
  (match label with
  | Some label when not (List.mem label verdict_labels) ->
      complain "%s: verdict label %S outside the fault lattice" ctx label
  | _ -> ());
  label

(* --- profile ------------------------------------------------------------- *)

(* the kernel counter contract; Obs.counter_fields in rendering order *)
let counter_keys =
  [
    "deltas"; "timesteps"; "activations"; "updates"; "immediate_notifies";
    "delta_notifies"; "timed_notifies"; "signal_writes"; "signal_changes";
    "net_drives"; "net_changes"; "peak_runnable"; "peak_timed";
  ]

(* the RTL-engine extras the simulator attaches to the snapshot *)
let rtl_keys =
  [
    "rtl_levels"; "rtl_nodes"; "rtl_settles"; "rtl_nodes_evaluated";
    "rtl_nodes_skipped"; "rtl_cone_max"; "rtl_fast_evals"; "rtl_wide_evals";
    "rtl_update_evals"; "rtl_updates_skipped";
  ]

let int_map ctx name = function
  | Json.Obj members ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (as_int ctx (name ^ "." ^ k) v))
        members
  | _ ->
      complain "%s: %S must be an object" ctx name;
      []

let check_profile ~rtl ctx root =
  must_be_object ctx root;
  ignore (get as_string ctx root "label");
  (match get as_int ctx root "sim_time_ps" with
  | Some t when t < 0 -> complain "%s: negative sim_time_ps" ctx
  | _ -> ());
  require ctx root "counters" (fun v ->
      let got = int_map ctx "counters" v in
      List.iter
        (fun k -> if not (List.mem_assoc k got) then complain "%s: counters missing %S" ctx k)
        counter_keys);
  let extras = Option.map (int_map ctx "extras") (Json.member "extras" root) in
  match extras with
  | _ when not rtl -> ()
  | None -> complain "%s: RTL profile carries no \"extras\"" ctx
  | Some ex ->
      let has k = List.mem_assoc k ex in
      List.iter (fun k -> if not (has k) then complain "%s: extras missing %S" ctx k) rtl_keys;
      let get k = Option.value ~default:0 (List.assoc_opt k ex) in
      if get "rtl_fast_evals" + get "rtl_wide_evals" <> get "rtl_nodes_evaluated" then
        complain "%s: fast (%d) + wide (%d) evals do not sum to %d" ctx (get "rtl_fast_evals")
          (get "rtl_wide_evals") (get "rtl_nodes_evaluated");
      if get "rtl_levels" < 1 then complain "%s: rtl_levels must be >= 1" ctx;
      if get "rtl_nodes" < 1 then complain "%s: rtl_nodes must be >= 1" ctx;
      if get "rtl_settles" < 1 then complain "%s: rtl_settles must be >= 1" ctx

(* --- fault / sweep campaigns --------------------------------------------- *)

let check_verdict ctx v =
  must_be_object (ctx ^ ".verdict") v;
  (match get check_label ctx v "label" with
  | Some label -> (
      match get as_bool ctx v "ok" with
      | Some ok when ok = (label = "inconsistent") ->
          complain "%s: verdict ok=%b disagrees with label %S" ctx ok label
      | _ -> ())
  | None -> ());
  Option.iter
    (List.iteri (fun i d -> ignore (as_string ctx (Printf.sprintf "details[%d]" i) d)))
    (get as_list ctx v "details")

let check_job i job =
  let ctx = Printf.sprintf "job_reports[%d]" i in
  must_be_object ctx job;
  ignore (get as_string ctx job "name");
  ignore (get as_int ctx job "seed");
  ignore (get as_int ctx job "mem_seed");
  ignore (get as_bool ctx job "ok");
  require ctx job "stages" (function
    | Json.Obj stages ->
        if stages = [] then complain "%s: empty stage map" ctx;
        List.iter (fun (name, v) -> ignore (as_bool ctx ("stage " ^ name) v)) stages
    | _ -> complain "%s: \"stages\" must be an object" ctx);
  optional job "faults" (fun v ->
      ignore (as_string ctx "faults" v);
      (* an injected plan must carry a structured verdict, unless the job
         crashed before the flow could classify it *)
      if Json.member "verdict" job = None && Json.member "failure" job = None then
        complain "%s: fault plan present but no verdict" ctx);
  optional job "verdict" (check_verdict ctx);
  optional job "failure" (fun v -> ignore (as_string ctx "failure" v))

let check_campaign root =
  must_be_object "root" root;
  ignore (get as_bool "root" root "ok");
  let declared = get as_int "root" root "jobs" in
  Option.iter
    (fun jobs ->
      (match declared with
      | Some n when n <> List.length jobs ->
          complain "root: \"jobs\" says %d but job_reports has %d" n (List.length jobs)
      | _ -> ());
      List.iteri check_job jobs)
    (get as_list "root" root "job_reports");
  optional root "cache" (fun v ->
      ignore (get as_int "cache" v "hits");
      ignore (get as_int "cache" v "misses"))

(* --- swarm campaigns ----------------------------------------------------- *)

(* hit-bin count of one coverage point: declared bins with hits plus every
   unexpected bin (recorded only when hit) *)
let check_point i pt =
  let ctx = Printf.sprintf "coverage.points[%d]" i in
  ignore (get as_string ctx pt "point");
  let count key =
    let bctx = ctx ^ "." ^ key in
    match get as_list ctx pt key with
    | None -> 0
    | Some bins ->
        List.fold_left
          (fun acc b ->
            ignore (get as_string bctx b "bin");
            match get as_int bctx b "hits" with
            | Some h when h < 0 ->
                complain "%s: negative hit count %d" bctx h;
                acc
            | Some h when h > 0 -> acc + 1
            | Some _ when key = "unexpected" ->
                complain "%s: unexpected bin with zero hits" bctx;
                acc
            | _ -> acc)
          0 bins
  in
  count "bins" + count "unexpected"

let check_swarm root =
  let ctx = "swarm" in
  let sw =
    match Json.member "swarm" root with
    | Some (Json.Obj _ as sw) -> sw
    | Some _ ->
        complain "root: \"swarm\" must be an object";
        Json.Obj []
    | None ->
        complain "root: missing required field \"swarm\"";
        Json.Obj []
  in
  ignore (get as_int ctx sw "seed");
  let budget = get as_int ctx sw "budget" in
  (match get as_int ctx sw "batch" with
  | Some b when b < 1 -> complain "%s: batch %d < 1" ctx b
  | _ -> ());
  ignore (get as_ratio ctx sw "epsilon");
  (match get as_string ctx sw "policy" with
  | Some ("guided" | "blind") | None -> ()
  | Some p -> complain "%s: unknown policy %S" ctx p);
  let target =
    match Json.member "target_ratio" sw with
    | Some Json.Null -> None
    | Some v -> as_ratio ctx "target_ratio" v
    | None ->
        complain "%s: missing required field \"target_ratio\"" ctx;
        None
  in
  let jobs_run = get as_int ctx sw "jobs_run" in
  let bins = get as_int ctx sw "distinct_bins" in
  ignore (get as_bool ctx sw "reached_target");
  let ok = Option.bind (Json.member "ok" sw) (as_bool ctx "ok") in
  (* a total computed from the ledgers must match a reported figure *)
  let agree reported computed fmt =
    match reported with
    | Some r when r <> computed -> complain fmt computed r
    | _ -> ()
  in
  (match (jobs_run, budget) with
  | Some j, Some b ->
      if j > b then complain "%s: jobs_run %d exceeds budget %d" ctx j b;
      (* without an early-stop target the whole budget must be spent *)
      if target = None && j <> b then
        complain "%s: no target_ratio but jobs_run %d <> budget %d" ctx j b
  | _ -> ());
  (* round ledger: 1-based consecutive rounds, cumulative bins consistent *)
  Option.iter
    (fun rounds ->
      let prev_bins = ref 0 and total_jobs = ref 0 in
      List.iteri
        (fun i rd ->
          let rctx = Printf.sprintf "rounds[%d]" i in
          (match get as_int rctx rd "round" with
          | Some r when r <> i + 1 -> complain "%s: round %d out of sequence" rctx r
          | _ -> ());
          (match get as_int rctx rd "jobs" with
          | Some j when j < 1 -> complain "%s: empty round" rctx
          | Some j -> total_jobs := !total_jobs + j
          | None -> ());
          (match (get as_int rctx rd "new_bins", get as_int rctx rd "bins") with
          | Some nb, Some b ->
              if b <> !prev_bins + nb then
                complain "%s: bins %d <> previous %d + new %d" rctx b !prev_bins nb;
              prev_bins := b
          | _ -> ());
          ignore (get as_ratio rctx rd "ratio"))
        rounds;
      agree jobs_run !total_jobs "swarm: rounds spend %d jobs but jobs_run is %d";
      agree bins !prev_bins "swarm: last round ends at %d bins but distinct_bins is %d")
    (get as_list ctx sw "rounds");
  (* per-family budget spend adds back up to the jobs run, and every first
     hit of a bin is credited to exactly one family *)
  (match get as_list ctx sw "families" with
  | Some [] -> complain "%s: empty family table" ctx
  | Some fams ->
      let spent = ref 0 and credited = ref 0 in
      List.iteri
        (fun i fam ->
          let fctx = Printf.sprintf "families[%d]" i in
          ignore (get as_string fctx fam "family");
          Option.iter
            (List.iter (fun t -> ignore (as_string fctx "tag" t)))
            (get as_list fctx fam "tags");
          (match get as_int fctx fam "jobs" with
          | Some j when j < 0 -> complain "%s: negative job count" fctx
          | Some j -> spent := !spent + j
          | None -> ());
          match get as_int fctx fam "new_bins" with
          | Some nb when nb < 0 -> complain "%s: negative new_bins" fctx
          | Some nb -> credited := !credited + nb
          | None -> ())
        fams;
      agree jobs_run !spent "swarm: families spend %d jobs but jobs_run is %d";
      agree bins !credited "swarm: families credited %d new bins but distinct_bins is %d"
  | None -> ());
  (* verdict rows come from the fault lattice *)
  Option.iter
    (fun verdicts ->
      let jobs_with = ref 0 in
      List.iteri
        (fun i v ->
          let vctx = Printf.sprintf "verdicts[%d]" i in
          ignore (get check_label vctx v "verdict");
          match get as_int vctx v "jobs" with
          | Some j when j < 1 -> complain "%s: verdict row with no jobs" vctx
          | Some j -> jobs_with := !jobs_with + j
          | None -> ())
        verdicts;
      match jobs_run with
      | Some j when !jobs_with > j ->
          complain "%s: verdict rows cover %d jobs but only %d ran" ctx !jobs_with j
      | _ -> ())
    (get as_list ctx sw "verdicts");
  Option.iter
    (List.iteri (fun i m ->
         let mctx = Printf.sprintf "monitors[%d]" i in
         ignore (get as_string mctx m "monitor");
         match get as_int mctx m "violations" with
         | Some n when n < 1 -> complain "%s: monitor row with no violations" mctx
         | _ -> ()))
    (get as_list ctx sw "monitors");
  (* failures, and the verdict's agreement with them *)
  Option.iter
    (fun failures ->
      List.iteri
        (fun i f ->
          let fctx = Printf.sprintf "failures[%d]" i in
          ignore (get as_string fctx f "job");
          ignore (get as_string fctx f "error"))
        failures;
      match ok with
      | Some ok when ok <> (failures = []) ->
          complain "%s: ok=%b disagrees with %d failure record(s)" ctx ok
            (List.length failures)
      | _ -> ())
    (get as_list ctx sw "failures");
  (* the merged coverage model: per-point bin tables whose hit bins add
     back up to the reported distinct-bin total *)
  require ctx sw "coverage" (fun cov ->
      ignore (get as_ratio "coverage" cov "ratio");
      Option.iter
        (fun points ->
          let names =
            List.filter_map
              (fun pt -> Result.to_option (Json.string_field "point" pt))
              points
          in
          if List.length (List.sort_uniq compare names) <> List.length names then
            complain "coverage: duplicate point names";
          let hit = List.fold_left ( + ) 0 (List.mapi check_point points) in
          agree bins hit "coverage: point tables show %d hit bins but distinct_bins is %d")
        (get as_list "coverage" cov "points"))

(* --- equivalence reports ------------------------------------------------- *)

let stats_keys =
  [ "vars"; "clauses"; "learned"; "conflicts"; "decisions"; "propagations"; "restarts" ]

let check_pins ctx cx name =
  Option.iter
    (List.iter (fun pin ->
         ignore (get as_string (ctx ^ "." ^ name) pin "name");
         ignore (get as_string (ctx ^ "." ^ name) pin "value")))
    (get as_list ctx cx name)

(* one diagnostic; its severity, for the count and verdict cross-checks *)
let check_diag ctx d =
  let str k = Option.value ~default:"" (get as_string ctx d k) in
  let category = str "category" in
  if category <> "equiv" then complain "%s: diagnostic category %S is not \"equiv\"" ctx category;
  let sev = str "severity" in
  if not (List.mem sev [ "error"; "warning"; "info" ]) then complain "%s: bad severity %S" ctx sev;
  ignore (str "rule");
  ignore (str "message");
  sev

let check_equiv_entry entry =
  let ctx =
    match get as_string "report" entry "design" with
    | Some d when d <> "" -> d
    | _ -> "<unnamed>"
  in
  let verdict = Option.value ~default:"" (get as_string ctx entry "verdict") in
  if not (List.mem verdict [ "equivalent"; "inequivalent"; "incomparable" ]) then
    complain "%s: bad verdict %S" ctx verdict;
  ignore (get as_count ctx entry "aig_nodes");
  require ctx entry "checks" (fun checks ->
      let n k = Option.value ~default:0 (get as_count (ctx ^ ".checks") checks k) in
      let total = n "total" and structural = n "structural" and sat = n "sat" in
      if structural + sat <> total then
        complain "%s: structural (%d) + sat (%d) checks do not sum to %d" ctx structural sat
          total);
  require ctx entry "stats" (fun stats ->
      List.iter (fun k -> ignore (get as_count (ctx ^ ".stats") stats k)) stats_keys);
  (match (Json.member "counterexample" entry, verdict) with
  | Some Json.Null, "inequivalent" ->
      complain "%s: inequivalent verdict without a counterexample" ctx
  | Some cx, "inequivalent" ->
      let cctx = ctx ^ ".counterexample" in
      List.iter (fun k -> ignore (get as_string cctx cx k)) [ "signal"; "left"; "right" ];
      check_pins cctx cx "inputs";
      check_pins cctx cx "regs"
  | Some Json.Null, _ -> ()
  | Some _, _ -> complain "%s: counterexample on a %s verdict" ctx verdict
  | None, _ -> complain "%s: missing required field \"counterexample\"" ctx);
  let sevs =
    match get as_list ctx entry "diagnostics" with
    | Some diags -> List.map (check_diag (ctx ^ ".diagnostics")) diags
    | None -> []
  in
  require ctx entry "counts" (fun counts ->
      List.iter
        (fun (name, sev) ->
          let got = Option.value ~default:0 (get as_count (ctx ^ ".counts") counts name) in
          let want = List.length (List.filter (( = ) sev) sevs) in
          if got <> want then
            complain "%s: counts.%s = %d but %d %s diagnostic(s) present" ctx name got want sev)
        [ ("errors", "error"); ("warnings", "warning"); ("infos", "info") ]);
  (* verdict/diagnostic coherence *)
  match verdict with
  | "equivalent" ->
      if List.mem "error" sevs then complain "%s: equivalent verdict with error diagnostics" ctx
  | "inequivalent" | "incomparable" ->
      if not (List.mem "error" sevs) then
        complain "%s: %s verdict without an error diagnostic" ctx verdict
  | _ -> ()

(* --- main ---------------------------------------------------------------- *)

let kinds =
  [
    ("json", fun ~rtl:_ _ -> ());
    ("profile", fun ~rtl v -> check_profile ~rtl "profile" (unwrap_envelope ~kind:"profile" v));
    ("fault", fun ~rtl:_ v -> check_campaign (unwrap_envelope ~kind:"fault" v));
    ( "sweep",
      fun ~rtl:_ v ->
        let root = unwrap_envelope ~kind:"sweep" v in
        check_campaign root;
        optional root "profile" (check_profile ~rtl:false "profile") );
    ("swarm", fun ~rtl:_ v -> check_swarm (unwrap_envelope ~kind:"swarm" v));
    ( "equiv",
      fun ~rtl:_ -> function
        | Json.List entries -> List.iter check_equiv_entry entries
        | _ -> complain "root must be an array" );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  match Array.to_list Sys.argv with
  | _ :: kind :: files when List.mem_assoc kind kinds ->
      let check = List.assoc kind kinds in
      (* [--rtl] marks every following profile as an RTL profile *)
      let rtl = ref false in
      List.iter
        (fun arg ->
          if arg = "--rtl" && kind = "profile" then rtl := true
          else begin
            file := arg;
            match Json.parse (read_file arg) with
            | Ok v -> check ~rtl:!rtl v
            | Error e -> complain "%s" e
          end)
        files;
      List.iter prerr_endline (List.rev !errors);
      if !errors <> [] then exit 1
  | _ ->
      prerr_endline
        "usage: check_report.exe (json | profile [--rtl] | fault | sweep | swarm | equiv) FILE...";
      exit 2
