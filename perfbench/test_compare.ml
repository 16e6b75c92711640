(* The comparator on synthetic result files: one case per verdict, the
   failed-ratio and fingerprint rules, and the run-set (directory) form. *)

module Json = Hlcs_json.Json

let dir = Filename.temp_dir "hlcs_bench_compare" ""

let write name j =
  let f = Filename.concat dir name in
  Jsonx.write_file f j;
  f

let result ?(seed = 1) ?(failed = 0) ?(digest = "d") metrics =
  Json.Obj
    [
      ("schema", Json.String Result_file.schema);
      ("seed", Json.Int seed);
      ( "workloads",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "w");
                ("attempted", Json.Int 100);
                ("failed", Json.Int failed);
                ("fingerprint", Json.Obj [ ("digest", Json.String digest) ]);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun (m, samples) ->
                         ( m,
                           Json.Obj
                             [
                               ("value", Json.Float (Stats.median samples));
                               ("samples", Jsonx.floats samples);
                             ] ))
                       metrics) );
              ];
          ] );
    ]

let bounds_file =
  write "bounds.json"
    (Json.Obj
       [
         ( "end_to_end",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "lat");
                   ("unit", Json.String "ms");
                   ("better", Json.String "lower");
                   ("bound", Json.Float 0.1);
                 ];
               Json.Obj
                 [
                   ("name", Json.String "rate");
                   ("unit", Json.String "1/s");
                   ("better", Json.String "higher");
                   ("bound", Json.Float 0.1);
                 ];
             ] );
       ])

let base_lat = [ 100.; 101.; 102.; 103.; 104. ]
let base_rate = [ 50.; 50.5; 51.; 51.5; 52. ]
let base = write "base.json" (result [ ("lat", base_lat); ("rate", base_rate) ])
let failures = ref 0

let checks = ref 0

let expect label cond =
  incr checks;
  if not cond then begin
    Printf.printf "FAIL: %s\n" label;
    incr failures
  end

let evaluate ?(base = base) news =
  match Compare.evaluate ~bounds_file ~base ~news with
  | Ok r -> r
  | Error e -> failwith e

let verdicts news =
  let rows, _, _ = evaluate news in
  List.map (fun (r : Compare.row) -> (r.Compare.metric, r.Compare.verdict)) rows

(* what the command's exit status would be *)
let passes ?base news =
  let _, problems, _ = evaluate ?base news in
  problems = []

let case label ~lat ~rate ~expect_lat ~expect_rate ~pass =
  let f = write (label ^ ".json") (result [ ("lat", lat); ("rate", rate) ]) in
  let v = verdicts f in
  expect (label ^ ": latency verdict") (List.assoc "lat" v = expect_lat);
  expect (label ^ ": throughput verdict") (List.assoc "rate" v = expect_rate);
  expect (Printf.sprintf "%s: passes = %b" label pass) (passes f = pass)

let () =
  case "same" ~lat:[ 101.; 102.; 100.; 103.; 104. ] ~rate:[ 51.; 50.; 52.; 51.5; 50.5 ]
    ~expect_lat:Compare.Same ~expect_rate:Compare.Same ~pass:true;
  case "better" ~lat:[ 80.; 81.; 82.; 83.; 84. ] ~rate:[ 60.; 61.; 62.; 63.; 64. ]
    ~expect_lat:Compare.Better ~expect_rate:Compare.Better ~pass:true;
  case "worse" ~lat:[ 120.; 121.; 122.; 123.; 124. ] ~rate:[ 40.; 41.; 42.; 43.; 44. ]
    ~expect_lat:Compare.Worse ~expect_rate:Compare.Worse ~pass:false;
  case "unresolved" ~lat:[ 60.; 140.; 100.; 80.; 130. ] ~rate:[ 30.; 70.; 50.; 40.; 65. ]
    ~expect_lat:Compare.Unresolved ~expect_rate:Compare.Unresolved ~pass:true;
  (* a wide spread that still separates fully is resolved *)
  case "separated" ~lat:[ 140.; 200.; 260.; 300.; 400. ] ~rate:base_rate
    ~expect_lat:Compare.Worse ~expect_rate:Compare.Same ~pass:false;
  let same = [ ("lat", base_lat); ("rate", base_rate) ] in
  expect "more failed operations fail the comparison"
    (not (passes (write "failed.json" (result ~failed:3 same))));
  expect "a changed fingerprint on a common seed fails the comparison"
    (not (passes (write "digest.json" (result ~digest:"e" same))));
  expect "a changed fingerprint on another seed is only noted"
    (passes (write "seed.json" (result ~seed:2 ~digest:"e" same)));
  (* run sets: the runs' values are the distribution *)
  let set name values =
    let d = Filename.concat dir name in
    Sys.mkdir d 0o755;
    List.iteri
      (fun i v ->
        Jsonx.write_file
          (Filename.concat d (Printf.sprintf "r%d.json" i))
          (result ~seed:i [ ("lat", [ v ]); ("rate", [ 50. ]) ]))
      values;
    d
  in
  let b = set "base_runs" [ 100.; 101.; 102.; 99.; 100.5 ] in
  let n = set "new_runs" [ 130.; 131.; 129.; 132.; 130.5 ] in
  expect "run sets: a regression across runs is worse" (not (passes ~base:b n));
  expect "run sets: a set against itself passes" (passes ~base:b b);
  let rec remove p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  remove dir;
  if !failures > 0 then begin
    Printf.printf "%d of %d comparator checks failed\n" !failures !checks;
    exit 1
  end
