(* The repository benchmark: the paper's design flow as its users run it
   (an edit loop, a long script, a daemon answering flow jobs, a coverage
   campaign), measured end to end, with a traced run that splits the time
   over the library's layers, and a comparator.  See README.md.

     hlcs_bench.exe run   [--seed N] [--seconds S] [--workload W]... [--out DIR]
     hlcs_bench.exe trace [--seed N] [--seconds S] [--workload W]... [--out DIR]
     hlcs_bench.exe run --smoke
     hlcs_bench.exe compare BASE NEW [--bounds BENCHMARK.json]
     hlcs_bench.exe --workload W --seed N --seconds S --trace 0|1

   The last form measures one workload and ends its standard output with
   one JSON line: the end-to-end metrics, or with [--trace 1] the
   per-layer ones. *)

module Json = Hlcs_json.Json

let default_seed = 2004
let default_seconds = 20.
let default_out = Filename.concat "perfbench" "_out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* --- set-up: a cold process's first operation --------------------------- *)

(* Time from spawning this executable as [__setup] until it reports its
   first operation done. *)
let cold_child (spec : Workload.spec) ~smoke ~seed =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env exe
      [| exe; "__setup"; spec.Workload.name; string_of_int seed; (if smoke then "1" else "0") |]
      (Serve_client.child_env ()) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = Unix.gettimeofday () in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (t1 -. t0, line = "ok" && status = Unix.WEXITED 0)

let setup_child name seed smoke =
  match Workload.find name with
  | Some { Workload.setup = Workload.Cold_child first_op; size; _ } ->
      let ok = first_op (size ~smoke) ~seed in
      print_endline (if ok then "ok" else "failed");
      exit (if ok then 0 else 1)
  | _ -> exit 2

(* The set-ups of one run, spread evenly over its measuring window: set-up
   time is short, and a burst of set-ups would sample the host's speed at
   one moment only.  Each sits in the middle of its share of the window,
   so none runs on the idle machine before the first operation, which is
   faster than the loaded one.  [tick] runs every set-up that is due (call
   it between operations); [finish] runs the rest and returns (seconds,
   ok) each. *)
let setup_schedule (spec : Workload.spec) size ~smoke ~seed ~seconds =
  let n = size.Workload.setups in
  let start = ref nan and taken = ref [] in
  let run k =
    let seed = Workload.op_seed seed "setup" k in
    let r =
      match spec.Workload.setup with
      | Workload.In_process f -> f size ~seed
      | Workload.Cold_child _ -> cold_child spec ~smoke ~seed
    in
    taken := r :: !taken
  in
  let tick () =
    let now = Unix.gettimeofday () in
    if Float.is_nan !start then start := now;
    let k = List.length !taken in
    if k < n && now >= !start +. (seconds *. (float_of_int k +. 0.5) /. float_of_int n) then run k
  in
  let finish () =
    for k = List.length !taken to n - 1 do
      run k
    done;
    List.rev !taken
  in
  (tick, finish)

(* --- one workload ------------------------------------------------------- *)

let result_path ~out ~name ~seed ~trace =
  Filename.concat out (Printf.sprintf "%s-seed%d%s.json" name seed (if trace then "-trace" else ""))

(* Measures one workload in this process, writes its result file (and
   Chrome trace), prints its table; returns the outcome. *)
let measure_one (spec : Workload.spec) ~seed ~seconds ~trace ~smoke ~out =
  let size = spec.Workload.size ~smoke in
  let between, finish =
    if trace && not smoke then (ignore, fun () -> [])
    else setup_schedule spec size ~smoke ~seed ~seconds
  in
  (* a traced run measures twice, untraced then traced, each over half the
     window, so it takes as long as an untraced one *)
  let window = if trace then seconds /. 2. else seconds in
  let o = spec.Workload.measure size ~seed ~seconds:window ~trace ~between in
  let setup = finish () in
  let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setup) in
  let o =
    {
      o with
      Workload.attempted = o.Workload.attempted + List.length setup;
      failed = o.Workload.failed + setup_failed;
      e2e =
        (if setup = [] then o.Workload.e2e
         else
           let s = List.map fst setup in
           ("setup_s", { Workload.value = Stats.median s; unit_ = "s"; samples = s }) :: o.Workload.e2e);
    }
  in
  mkdir_p out;
  let trace_file =
    Option.map
      (fun tr ->
        let f = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" spec.Workload.name seed) in
        Jsonx.write_file f (Spans.to_chrome tr);
        f)
      o.Workload.trace
  in
  let file = result_path ~out ~name:spec.Workload.name ~seed ~trace in
  Jsonx.write_file file
    (Result_file.file_json
       ~mode:(if trace then "trace" else "run")
       ~seed ~seconds ~smoke
       [ Result_file.workload_json spec o ~trace_file ]);
  Result_file.print_table spec o;
  Printf.printf "  result %s%s\n%!" file
    (match trace_file with None -> "" | Some f -> ", trace " ^ f);
  o

(* --- several workloads: one child process each ------------------------ *)

(* Each workload runs in a process of its own, so its peak memory and heap
   are its own; the children's result files are merged into one.  [log]
   takes the children's standard output instead of this process's. *)
let run_all ?log ~mode ~workloads ~seed ~seconds ~smoke ~out () =
  let trace = mode = "trace" in
  let exe = Sys.executable_name in
  let child_stdout =
    match log with
    | None -> Unix.stdout
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let results =
    List.map
      (fun (spec : Workload.spec) ->
        let args =
          [ exe; "--workload"; spec.Workload.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--out"; out ]
          @ if smoke then [ "--smoke" ] else []
        in
        let pid =
          Unix.create_process_env exe (Array.of_list args) (Serve_client.child_env ())
            Unix.stdin child_stdout Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        let file = result_path ~out ~name:spec.Workload.name ~seed ~trace in
        let result =
          match (status, Jsonx.read_file file) with
          | Unix.WEXITED (0 | 1), Ok j -> (
              match Json.list_field "workloads" j with Ok [ w ] -> Ok w | _ -> Error file)
          | _ -> Error (spec.Workload.name ^ ": the measuring process failed")
        in
        (* the merged file carries it; a directory compare must not count it twice *)
        if Sys.file_exists file then Sys.remove file;
        result)
      workloads
  in
  if log <> None then Unix.close child_stdout;
  let file = Filename.concat out (Printf.sprintf "%s-seed%d.json" mode seed) in
  Jsonx.write_file file
    (Result_file.file_json ~mode ~seed ~seconds ~smoke (List.filter_map Result.to_option results));
  List.iter (function Error e -> Printf.printf "FAIL: %s\n" e | Ok _ -> ()) results;
  let correct =
    List.for_all
      (function Ok w -> Json.member "correct" w = Some (Json.Bool true) | Error _ -> false)
      results
  in
  Printf.printf "%s: %s (%s)\n%!" mode (if correct then "all checks passed" else "FAILED") file;
  (file, correct)

(* The metrics BENCHMARK.json declares must be the ones the summary line
   prints, by name, unit and direction, in order. *)
let declaration_problems bounds_file =
  let declared key =
    Result.bind (Jsonx.read_file bounds_file) (fun j ->
        Result.map
          (List.map (fun m ->
               let s k = Result.value ~default:"" (Json.string_field k m) in
               (s "name", s "unit", s "better")))
          (Json.list_field key j))
  in
  let check key printed =
    match declared key with
    | Error e -> [ e ]
    | Ok d when d = printed -> []
    | Ok _ -> [ Printf.sprintf "%s: %s differs from the metrics printed" bounds_file key ]
  in
  check "end_to_end" (List.map (fun (n, u, b, _) -> (n, u, b)) Result_file.end_to_end)
  @ check "per_layer" (List.map (fun (n, u, b, _) -> (n, u, b)) Layers.catalogue)

(* --smoke: every workload at a tiny size, traced, with all output checks;
   then the trace files' span trees, a comparison of the result with itself
   under the bounds of [bounds_file], and that file's metric lists.  Quiet
   unless something fails. *)
let smoke ~seed ~bounds_file =
  let out = Filename.temp_dir "hlcs_bench_smoke" "" in
  Fun.protect
    ~finally:(fun () -> remove_tree out)
    (fun () ->
      let log = Filename.concat out "workloads.log" in
      let file, correct =
        run_all ~log ~mode:"trace" ~workloads:Workload.all ~seed ~seconds:0. ~smoke:true ~out ()
      in
      let traces =
        Sys.readdir out |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".trace.json")
      in
      let trace_problems =
        List.concat_map
          (fun f ->
            match Jsonx.read_file (Filename.concat out f) with
            | Error e -> [ e ]
            | Ok j -> (
                match Spans.of_chrome j with
                | [] -> [ f ^ ": no spans" ]
                | spans -> List.map (fun e -> f ^ ": " ^ e) (Spans.validate spans)))
          traces
      in
      let compare_problems =
        match Compare.evaluate ~bounds_file ~base:file ~news:file with
        | Error e -> [ e ]
        | Ok (_, problems, _) -> problems
      in
      let problems =
        (if correct then [] else [ "a workload failed its checks" ])
        @ (if List.length traces = List.length Workload.all then []
           else [ Printf.sprintf "%d trace files for %d workloads" (List.length traces) (List.length Workload.all) ])
        @ trace_problems
        @ List.map (fun p -> "self-comparison: " ^ p) compare_problems
        @ declaration_problems bounds_file
      in
      if problems = [] then begin
        Printf.printf "smoke: %d workloads passed their checks, span trees valid, self-comparison clean\n"
          (List.length Workload.all);
        0
      end
      else begin
        List.iter (fun p -> Printf.printf "smoke FAIL: %s\n" p) problems;
        print_string (In_channel.with_open_text log In_channel.input_all);
        1
      end)

(* --- command line ------------------------------------------------------- *)

let usage =
  "usage: hlcs_bench.exe (run|trace) [--seed N] [--seconds S] [--workload W]... \
   [--out DIR] [--smoke]\n\
  \       hlcs_bench.exe compare BASE NEW [--bounds FILE]\n\
  \       hlcs_bench.exe --workload W --seed N --seconds S --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workload.spec) -> w.Workload.name) Workload.all)

let fail msg =
  prerr_endline ("hlcs_bench: " ^ msg);
  prerr_endline usage;
  exit 2

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable workloads : string list;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string;
  mutable bounds : string;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      seed = default_seed;
      seconds = default_seconds;
      workloads = [];
      trace = false;
      smoke = false;
      out = default_out;
      bounds = "BENCHMARK.json";
      positional = [];
    }
  in
  let num conv flag v = match conv v with Some x -> x | None -> fail (flag ^ ": not a number: " ^ v) in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt "--seed" v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt "--seconds" v; go rest
    | "--workload" :: v :: rest -> o.workloads <- o.workloads @ [ v ]; go rest
    | "--trace" :: v :: rest -> o.trace <- num int_of_string_opt "--trace" v <> 0; go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--bounds" :: v :: rest -> o.bounds <- v; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> fail ("unknown or incomplete option " ^ a)
    | a :: rest -> o.positional <- o.positional @ [ a ]; go rest
  in
  go args;
  if o.seconds < 0. then fail "--seconds must be >= 0";
  o

let specs names =
  match names with
  | [] -> Workload.all
  | names ->
      List.map
        (fun n -> match Workload.find n with Some s -> s | None -> fail ("unknown workload " ^ n))
        names

let () =
  Printexc.record_backtrace true;
  (* children read the cache-directory variables too: keep every cache in
     memory (a set-but-empty variable arms no disk tier) *)
  Unix.putenv Hlcs_synth.Synth_cache.env_var "";
  match Array.to_list Sys.argv |> List.tl with
  | [ "__daemon"; width ] -> Serve_client.daemon_main ~width:(int_of_string width)
  | [ "__setup"; name; seed; smoke ] -> setup_child name (int_of_string seed) (smoke = "1")
  | "compare" :: rest -> (
      let o = parse rest in
      match o.positional with
      | [ base; news ] -> exit (Compare.main ~bounds_file:o.bounds ~base ~news)
      | _ -> fail "compare takes BASE and NEW")
  | ("run" | "trace") as mode :: rest ->
      let o = parse rest in
      if o.positional <> [] then fail ("unexpected argument " ^ List.hd o.positional);
      if o.smoke then exit (smoke ~seed:o.seed ~bounds_file:o.bounds)
      else
        let _, correct =
          run_all ~mode ~workloads:(specs o.workloads) ~seed:o.seed ~seconds:o.seconds
            ~smoke:false ~out:o.out ()
        in
        exit (if correct then 0 else 1)
  | args -> (
      let o = parse args in
      if o.positional <> [] then fail ("unexpected argument " ^ List.hd o.positional);
      match specs o.workloads with
      | [ spec ] ->
          let r =
            measure_one spec ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~smoke:o.smoke ~out:o.out
          in
          print_endline (Result_file.summary_line ~trace:o.trace r);
          exit (if r.Workload.failed = 0 then 0 else 1)
      | _ -> fail "measure exactly one --workload, or use run/trace")
