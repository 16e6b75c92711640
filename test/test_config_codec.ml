(* The versioned JSON codecs behind job files and the serve wire
   protocol.

   The shipped guarantee is string-level: [to_json ∘ of_json ∘ to_json]
   is the identity, so a job can hop processes (CLI → file → daemon →
   disk) any number of times without drifting.  Structural equality of
   the decoded records is deliberately *not* the contract — two fields
   (the cache, the monitors) decode to fresh live values — so the qcheck
   properties below compare re-rendered strings, exactly what the wire
   carries.  Hand-written cases pin the error paths: version mismatch,
   unknown monitor names, malformed kinds. *)

open QCheck2
module RC = Hlcs_interface.Run_config
module Monitor_specs = Hlcs_interface.Monitor_specs
module Job = Hlcs.Job
module Fault = Hlcs_fault.Fault
module Synth_cache = Hlcs_synth.Synth_cache
module Policy = Hlcs_osss.Policy
module T = Hlcs_engine.Time
module Json = Hlcs_json.Json

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let replace_first s pat repl =
  let sl = String.length s and pl = String.length pat in
  let rec find i =
    if i + pl > sl then None
    else if String.sub s i pl = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ repl ^ String.sub s (i + pl) (sl - i - pl)

(* --- generators ------------------------------------------------------- *)

let gen_policy =
  Gen.oneofl
    [
      None;
      Some Policy.Fcfs;
      Some Policy.Static_priority;
      Some Policy.Round_robin;
    ]

let gen_small_opt = Gen.(oneof [ return None; map Option.some (int_range 1 8) ])

let gen_target =
  Gen.(
    let* base_address = map (fun w -> w * 4) (int_range 0 64) in
    let* devsel_latency = int_range 1 4 in
    let* wait_states = int_range 0 3 in
    let* retry_every = gen_small_opt in
    let* disconnect_after = gen_small_opt in
    let* ignore_every = gen_small_opt in
    return
      {
        Hlcs_pci.Pci_target.base_address;
        devsel_latency;
        wait_states;
        retry_every;
        disconnect_after;
        ignore_every;
      })

let gen_synth_options =
  Gen.(
    oneof
      [
        return None;
        (let* chaining = bool in
         let* age_width = int_range 4 24 in
         let* optimize = bool in
         return (Some { Hlcs_synth.Synthesize.chaining; age_width; optimize }));
      ])

let gen_glitch =
  Gen.(
    let* gl_net = oneofl [ "par"; "devsel_n"; "trdy_n"; "ad_0" ] in
    let* gl_kind = oneofl [ Fault.Stuck_zero; Fault.Stuck_one; Fault.Stuck_x ] in
    let* gl_from_cycle = int_range 0 50 in
    let* gl_cycles = int_range 1 10 in
    return { Fault.gl_net; gl_kind; gl_from_cycle; gl_cycles })

let gen_faults =
  Gen.(
    oneof
      [
        return Fault.empty;
        (let* fp_seed = int_range 0 9999 in
         let* fp_glitches = list_size (int_range 0 3) gen_glitch in
         let* fp_jitter = bool in
         let* tf_extra_wait_states = int_range 0 4 in
         let* tf_retry_every = gen_small_opt in
         let* tf_disconnect_after = gen_small_opt in
         let* tf_abort_every = gen_small_opt in
         let* fp_starvation =
           oneof
             [
               return None;
               (let* sv_from_cycle = int_range 0 40 in
                let* sv_cycles = int_range 1 20 in
                return (Some { Fault.sv_from_cycle; sv_cycles }));
             ]
         in
         let* fp_stall =
           oneof
             [
               return None;
               (let* st_command = int_range 0 5 in
                let* st_cycles = int_range 1 200 in
                return (Some { Fault.st_command; st_cycles }));
             ]
         in
         let* fp_guard =
           oneof
             [
               return None;
               return (Some Fault.default_guard);
               (let* t = int_range 1 1000 in
                let* gp_retries = int_range 0 6 in
                let* b = int_range 0 200 in
                return
                  (Some
                     {
                       Fault.gp_timeout = T.ns t;
                       gp_retries;
                       gp_backoff = T.ns b;
                     }));
             ]
         in
         return
           {
             Fault.fp_seed;
             fp_glitches;
             fp_jitter;
             fp_target =
               {
                 Fault.tf_extra_wait_states;
                 tf_retry_every;
                 tf_disconnect_after;
                 tf_abort_every;
               };
             fp_starvation;
             fp_stall;
             fp_guard;
           });
      ])

(* monitor sub-lists come from the registry — the only decodable form *)
let gen_monitors =
  Gen.(
    let* mask = list_size (return (List.length Monitor_specs.pci)) bool in
    return (List.filteri (fun i _ -> List.nth mask i) Monitor_specs.pci))

(* cache forms representable without touching the filesystem: the
   process-wide shared cache, no cache, or a fresh private memory cache *)
let gen_cache_setter =
  Gen.oneofl
    [
      Fun.id;
      RC.without_cache;
      (fun c -> RC.with_cache (Synth_cache.create ~disk:`Memory ()) c);
    ]

let gen_run_config =
  Gen.(
    let* mem_bytes = map (fun w -> w * 4) (int_range 8 512) in
    let* mem_seed = int_range 0 9999 in
    let* policy = gen_policy in
    let* target = gen_target in
    let* synth_options = gen_synth_options in
    let* vcd_prefix = oneofl [ None; Some "waves/pci"; Some "tmp/x" ] in
    let* max_time = map T.us (int_range 1 500) in
    let* profile = bool in
    let* cache_set = gen_cache_setter in
    let* faults = gen_faults in
    let* equiv = bool in
    let* monitors = gen_monitors in
    let c =
      RC.make ~mem_bytes ~mem_seed ?policy ~target ?synth_options ?vcd_prefix
        ~max_time ~profile ~faults ~equiv ~monitors ()
    in
    return (cache_set c))

let gen_kind =
  Gen.(
    oneof
      [
        return Job.Flow;
        map
          (fun d -> Job.Profile d)
          (oneofl [ `Tlm; `Pin; `Rtl; `Sram_pin; `Sram_rtl ]);
        (let* n = int_range 1 12 in
         let* vary = oneofl [ `Environment; `Stimuli ] in
         return (Job.Sweep { n; vary }));
        (let* n = int_range 1 12 in
         let* fault_seed = int_range 0 9999 in
         return (Job.Fault { n; fault_seed }));
        (let* budget = int_range 1 64 in
         let* batch = int_range 1 8 in
         let* epsilon = oneof [ oneofl [ 0.0; 0.1; 1.0 ]; float_range 0.0 1.0 ] in
         let* guided = bool in
         let* target_ratio = opt (float_range 0.0 1.0) in
         let* mode = oneofl [ `Flow; `Pin ] in
         let* fault_seed = int_range 0 9999 in
         return
           (Job.Swarm
              { budget; batch; epsilon; guided; target_ratio; mode; fault_seed }));
      ])

let gen_job =
  Gen.(
    let* j_kind = gen_kind in
    let* j_config = gen_run_config in
    let* j_seed = int_range 0 99999 in
    let* j_count = int_range 1 64 in
    let* j_jobs = oneofl [ None; Some 1; Some 2; Some 4 ] in
    let* j_deterministic = bool in
    return { Job.j_kind; j_config; j_seed; j_count; j_jobs; j_deterministic })

(* --- round-trip properties -------------------------------------------- *)

let config_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"run_config: to_json ∘ of_json ∘ to_json = to_json"
       ~print:RC.to_json gen_run_config (fun c ->
         let s = RC.to_json c in
         match RC.parse s with
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s@.%s" e s
         | Ok c' ->
             let s' = RC.to_json c' in
             if s <> s' then QCheck2.Test.fail_reportf "drift:@.%s@.%s" s s'
             else true))

let job_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"job: to_json ∘ of_json ∘ to_json = to_json" ~print:Job.to_json
       gen_job (fun j ->
         let s = Job.to_json j in
         match Job.parse s with
         | Error e -> QCheck2.Test.fail_reportf "decode failed: %s@.%s" e s
         | Ok j' ->
             let s' = Job.to_json j' in
             if s <> s' then QCheck2.Test.fail_reportf "drift:@.%s@.%s" s s'
             else true))

(* the parsed JSON value re-renders to the same string: the codec output
   is canonical for the in-repo JSON printer, so any consumer that
   parses and re-emits a job preserves it byte for byte *)
let config_json_canonical =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"run_config: codec output is canonical JSON" gen_run_config
       (fun c ->
         let s = RC.to_json c in
         match Json.parse s with
         | Error e -> QCheck2.Test.fail_reportf "unparsable: %s@.%s" e s
         | Ok v -> Json.to_string v = s))

(* --- error paths ------------------------------------------------------ *)

let config_version_rejected =
  Alcotest.test_case "of_json rejects foreign config_version" `Quick (fun () ->
      let s = RC.to_json RC.default in
      let s' =
        replace_first s
          (Printf.sprintf "\"config_version\": %d" RC.codec_version)
          "\"config_version\": 999"
      in
      match RC.parse s' with
      | Ok _ -> Alcotest.fail "version 999 decoded"
      | Error e ->
          Alcotest.(check bool) "mentions version" true (contains e "version"))

let unknown_monitor_rejected =
  Alcotest.test_case "of_json rejects unknown monitor names" `Quick (fun () ->
      let v = Result.get_ok (Json.parse (RC.to_json RC.default)) in
      let v' =
        match v with
        | Json.Obj fields ->
            Json.Obj
              (List.map
                 (function
                   | "monitors", _ ->
                       ("monitors", Json.List [ Json.String "no_such_property" ])
                   | kv -> kv)
                 fields)
        | _ -> assert false
      in
      match RC.of_json v' with
      | Ok _ -> Alcotest.fail "unknown monitor decoded"
      | Error e ->
          Alcotest.(check bool)
            "names the culprit" true
            (contains e "no_such_property");
          (* the error lists the registry, so a typo is self-serviceable *)
          Alcotest.(check bool)
            "lists the registry" true
            (List.for_all (fun n -> contains e n) Monitor_specs.names))

let out_of_range_rejected =
  Alcotest.test_case "of_json rejects out-of-range values, naming the range" `Quick
    (fun () ->
      (* [j] with every member [field] set to [v] *)
      let rec set field v = function
        | Json.Obj fields ->
            Json.Obj
              (List.map (fun (k, x) -> (k, if k = field then v else set field v x)) fields)
        | x -> x
      in
      let expect decode (field, v, shown, ok) =
        match (decode (set field v), ok) with
        | Ok _, true -> ()
        | Error e, false ->
            Alcotest.(check bool) (field ^ " named") true (contains e field);
            Alcotest.(check bool) (field ^ " value named") true (contains e shown)
        | Ok _, false -> Alcotest.failf "%s %s decoded" field shown
        | Error e, true -> Alcotest.failf "%s %s rejected: %s" field shown e
      in
      let int (field, v, ok) = (field, Json.Int v, string_of_int v, ok) in
      (* with synthesis options and a call guard, so [age_width] and
         [timeout_ps] are there to edit *)
      let config =
        RC.(
          default
          |> with_synth_options Hlcs_synth.Synthesize.default_options
          |> with_faults { Fault.empty with Fault.fp_guard = Some Fault.default_guard })
        |> RC.to_json |> Json.parse |> Result.get_ok
      in
      List.iter
        (expect (fun edit -> RC.of_json (edit config)))
        (List.map int
           [
             ("mem_bytes", 31, false);
             ("mem_bytes", 32, true);
             ("mem_bytes", (1 lsl 30) - 1, true);
             ("mem_bytes", 1 lsl 30, false);
             ("devsel_latency", 0, false);
             ("devsel_latency", 1, true);
             ("age_width", 0, false);
             ("age_width", 1, true);
             ("age_width", 62, true);
             ("age_width", 63, false);
             ("timeout_ps", 0, false);
             ("timeout_ps", 1, true);
             ("max_time_ps", 0, false);
             ("max_time_ps", -5, false);
             ("max_time_ps", 1, true);
           ]);
      (* the PCI target's timing and the fault plan's overrides of it,
         which share two member names: each edited on its own *)
      let within key edit = function
        | Json.Obj fields ->
            Json.Obj (List.map (fun (k, x) -> (k, if k = key then edit x else x)) fields)
        | x -> x
      in
      List.iter
        (fun (key, case) -> expect (fun edit -> RC.of_json (within key edit config)) case)
        (List.concat_map
           (fun (key, cases) -> List.map (fun c -> (key, int c)) cases)
           [
             ( "target",
               [
                 ("wait_states", -1, false);
                 ("wait_states", 0, true);
                 ("retry_every", 0, false);
                 ("retry_every", -2, false);
                 ("retry_every", 1, true);
                 ("disconnect_after", -1, false);
                 ("disconnect_after", 0, true);
                 ("ignore_every", 0, false);
                 ("ignore_every", 1, true);
               ] );
             ( "faults",
               [
                 ("extra_wait_states", -1, false);
                 ("extra_wait_states", 0, true);
                 ("retry_every", 0, false);
                 ("retry_every", 1, true);
                 ("disconnect_after", -1, false);
                 ("disconnect_after", 0, true);
                 ("abort_every", 0, false);
                 ("abort_every", 1, true);
               ] );
           ]);
      (* retired engines are decode errors, not a silent fallback *)
      List.iter
        (fun name ->
          match RC.of_json (set "rtl_engine" (Json.String name) config) with
          | Ok _ -> Alcotest.failf "rtl_engine %s decoded" name
          | Error e ->
              Alcotest.(check string)
                (name ^ " is not an engine")
                (Printf.sprintf "unknown rtl engine %S" name)
                e)
        [ "settle"; "compiled" ];
      (* the job's own numbers, each under a kind that carries it *)
      let job kind =
        Result.get_ok (Json.parse (Job.to_json { Job.default with Job.j_kind = kind }))
      in
      let flow = job Job.Flow in
      let sweep = job (Job.Sweep { n = 2; vary = `Environment }) in
      let fault = job (Job.Fault { n = 2; fault_seed = 7 }) in
      let swarm =
        job
          (Job.Swarm
             {
               budget = 8;
               batch = 2;
               epsilon = 0.2;
               guided = true;
               target_ratio = None;
               mode = `Flow;
               fault_seed = 1;
             })
      in
      List.iter
        (fun (j, case) -> expect (fun edit -> Job.of_json (edit j)) case)
        [
          (flow, int ("count", -1, false));
          (flow, int ("count", 0, true));
          (flow, int ("jobs", 0, false));
          (flow, int ("jobs", 1, true));
          (sweep, int ("n", -1, false));
          (sweep, int ("n", 0, true));
          (fault, int ("n", -1, false));
          (fault, int ("n", 0, true));
          (swarm, int ("budget", 0, false));
          (swarm, int ("budget", 1, true));
          (swarm, int ("batch", 0, false));
          (swarm, int ("batch", 1, true));
          (swarm, ("epsilon", Json.Float 2.0, "2", false));
          (swarm, ("epsilon", Json.Float (-0.5), "-0.5", false));
          (swarm, ("epsilon", Json.Float 0.0, "0", true));
          (swarm, ("epsilon", Json.Float 1.0, "1", true));
          (swarm, ("target_ratio", Json.Float 7.0, "7", false));
          (swarm, ("target_ratio", Json.Float (-1.0), "-1", false));
          (swarm, ("target_ratio", Json.Float 0.0, "0", true));
          (swarm, ("target_ratio", Json.Float 1.0, "1", true));
        ])

let job_version_rejected =
  Alcotest.test_case "job of_json rejects foreign job_version" `Quick (fun () ->
      let s = Job.to_json Job.default in
      let s' =
        replace_first s
          (Printf.sprintf "\"job_version\": %d" Job.codec_version)
          "\"job_version\": 77"
      in
      match Job.parse s' with
      | Ok _ -> Alcotest.fail "version 77 decoded"
      | Error e ->
          Alcotest.(check bool) "mentions version" true (contains e "version"))

let job_bad_kind_rejected =
  Alcotest.test_case "job of_json rejects unknown kind" `Quick (fun () ->
      let s = Job.to_json Job.default in
      let s' =
        replace_first s "{\"name\": \"flow\"}" "{\"name\": \"teleport\"}"
      in
      match Job.parse s' with
      | Ok _ -> Alcotest.fail "kind teleport decoded"
      | Error _ -> ())

(* the decoded job runs the campaign the encoded one described: a float
   printed with too few digits would replay a different epsilon *)
let job_float_roundtrip =
  Alcotest.test_case "job: swarm floats survive the codec exactly" `Quick (fun () ->
      let swarm =
        Job.Swarm
          {
            budget = 32;
            batch = 4;
            epsilon = 0.1234567;
            guided = true;
            target_ratio = Some (2.0 /. 3.0);
            mode = `Flow;
            fault_seed = 1;
          }
      in
      match Job.parse (Job.to_json { Job.default with Job.j_kind = swarm }) with
      | Ok { Job.j_kind = Job.Swarm { epsilon; target_ratio; _ }; _ } ->
          Alcotest.(check (float 0.0)) "epsilon" 0.1234567 epsilon;
          Alcotest.(check (option (float 0.0))) "target_ratio" (Some (2.0 /. 3.0))
            target_ratio
      | Ok _ -> Alcotest.fail "decoded to another kind"
      | Error e -> Alcotest.fail e)

let monitor_names_roundtrip =
  Alcotest.test_case "every stock monitor name resolves to itself" `Quick
    (fun () ->
      List.iter
        (fun (name, spec) ->
          Alcotest.(check string) name name spec.Hlcs_verify.Monitor.sp_name;
          match Monitor_specs.find name with
          | None -> Alcotest.failf "find %S = None" name
          | Some s ->
              Alcotest.(check string)
                "find returns the named spec" name
                s.Hlcs_verify.Monitor.sp_name)
        Monitor_specs.stock)

let tests =
  [
    ( "config_codec",
      [
        config_roundtrip;
        job_roundtrip;
        config_json_canonical;
        config_version_rejected;
        unknown_monitor_rejected;
        out_of_range_rejected;
        job_version_rejected;
        job_bad_kind_rejected;
        job_float_roundtrip;
        monitor_names_roundtrip;
      ] );
    ( "json",
      [
        Alcotest.test_case "parse rejects malformed input" `Quick (fun () ->
            List.iter
              (fun (what, input) ->
                match Json.parse input with
                | Ok v -> Alcotest.failf "%s: %S parsed as %s" what input (Json.to_string v)
                | Error _ -> ())
              [
                ("control character in a string", "\"a\nb\"");
                ("bad escape", {|"\q"|});
                ("short \\u escape", {|"\u12"|});
                ("unterminated string", {|"abc|});
                ("bare minus", "-");
                ("fraction without digits", "1.");
                ("exponent without digits", "1e");
                ("trailing garbage", "{} x");
                ("empty input", "");
              ]);
        Alcotest.test_case "floats print with round-trip precision" `Quick (fun () ->
            List.iter
              (fun f ->
                match Json.parse (Json.to_string (Json.Float f)) with
                | Ok (Json.Float g) -> Alcotest.(check (float 0.0)) (string_of_float f) f g
                | _ -> Alcotest.failf "%h did not read back as a float" f)
              [ 0.1234567; 0.1; 2.0 /. 3.0; 1e-7; 123456.789; 5e-324; 1.5e300; -0.25; 3.0 ]);
      ] );
  ]
