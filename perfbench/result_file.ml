(* Result files and the one-line summary.  Everything is built as
   [Hlcs_json.Json.t] and printed by [Jsonx]. *)

module Json = Hlcs_json.Json

let schema = "hlcs-bench-result/1"

(* The end-to-end metrics: name, unit, which way is better, meaning.
   BENCHMARK.json lists the same names with their regression bounds. *)
let end_to_end =
  [
    ("setup_s", "s", "lower", "median wall time of a cold process's first operation");
    ("op_p50_ms", "ms", "lower", "median operation latency: a flow, a served job, a campaign");
    ("ops_per_s", "1/s", "higher", "operations completed per second of operation time");
    ("peak_rss_mb", "MB", "lower", "VmHWM of the process doing the work (median over the daemons, when serving)");
  ]

let metric_json name (m : Workload.metric) =
  let better, what =
    match List.find_opt (fun (n, _, _, _) -> n = name) end_to_end with
    | Some (_, _, b, w) -> (b, w)
    | None -> ("lower", "")
  in
  let q1, median, q3 = Stats.quartiles m.Workload.samples in
  ( name,
    Json.Obj
      [
        ("value", Json.Float m.Workload.value);
        ("unit", Json.String m.Workload.unit_);
        ("level", Json.String "e2e");
        ("better", Json.String better);
        ("what", Json.String what);
        ("n", Json.Int (List.length m.Workload.samples));
        ("median", Json.Float median);
        ("q1", Json.Float q1);
        ("q3", Json.Float q3);
        ("samples", Jsonx.floats m.Workload.samples);
      ] )

let workload_json (spec : Workload.spec) (o : Workload.outcome) ~trace_file =
  Json.Obj
    ([
       ("name", Json.String spec.Workload.name);
       ("why", Json.String spec.Workload.why);
       ("correct", Json.Bool (o.Workload.failed = 0));
       ("attempted", Json.Int o.Workload.attempted);
       ("failed", Json.Int o.Workload.failed);
       ( "checks",
         Json.List
           (List.map
              (fun (c : Workload.check) ->
                Json.Obj
                  [
                    ("name", Json.String c.Workload.name);
                    ("ok", Json.Bool c.Workload.ok);
                    ("detail", Json.String c.Workload.detail);
                  ])
              o.Workload.checks) );
       ("fingerprint", o.Workload.fingerprint);
       ("metrics", Json.Obj (List.map (fun (n, m) -> metric_json n m) o.Workload.e2e));
       ( "layers",
         Json.Obj
           (List.map
              (fun (n, u, v) ->
                ( n,
                  Json.Obj
                    ([ ("value", Json.Float v); ("unit", Json.String u); ("level", Json.String "layer") ]
                    @
                    match Layers.what n with
                    | Some w -> [ ("what", Json.String w) ]
                    | None -> []) ))
              (o.Workload.layers @ o.Workload.layer_details)) );
       ("notes", Json.Obj o.Workload.notes);
     ]
    @ match trace_file with None -> [] | Some f -> [ ("trace_file", Json.String f) ])

let file_json ~mode ~seed ~seconds ~smoke workloads =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("mode", Json.String mode);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("smoke", Json.Bool smoke);
      ("commit", Json.String (Sysinfo.commit ()));
      ("host", Sysinfo.host ());
      ("workloads", Json.List workloads);
    ]

(* The last line of standard output: the end-to-end metrics, or with
   [trace] the per-layer ones. *)
let summary_line ~trace (o : Workload.outcome) =
  let metrics =
    if trace then
      List.map
        (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
        o.Workload.layers
    else
      List.map
        (fun (n, (m : Workload.metric)) ->
          (n, Json.Obj [ ("value", Json.Float m.Workload.value); ("unit", Json.String m.Workload.unit_) ]))
        o.Workload.e2e
  in
  Jsonx.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.Workload.failed = 0));
         ("attempted", Json.Int o.Workload.attempted);
         ("failed", Json.Int o.Workload.failed);
         ("metrics", Json.Obj metrics);
       ])

let print_table (spec : Workload.spec) (o : Workload.outcome) =
  Printf.printf "== %s: %s\n" spec.Workload.name spec.Workload.why;
  List.iter
    (fun (n, (m : Workload.metric)) ->
      let q1, _, q3 = Stats.quartiles m.Workload.samples in
      Printf.printf "  %-14s %14.4f %-4s  (q1 %.4f, q3 %.4f, n %d)\n" n m.Workload.value
        m.Workload.unit_ q1 q3 (List.length m.Workload.samples))
    o.Workload.e2e;
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-30s %14.4f %s\n" n v u)
    (o.Workload.layers @ o.Workload.layer_details);
  List.iter
    (fun (c : Workload.check) ->
      Printf.printf "  check %-4s %s%s\n"
        (if c.Workload.ok then "ok" else "FAIL")
        c.Workload.name
        (if c.Workload.detail = "" then "" else " (" ^ c.Workload.detail ^ ")"))
    o.Workload.checks;
  Printf.printf "  attempted %d, failed %d, fingerprint %s\n%!" o.Workload.attempted
    o.Workload.failed (Jsonx.to_string o.Workload.fingerprint)
