(* [compare BASE NEW]: two sets of result files (a file, or a directory of
   them) judged metric by metric against the bounds in BENCHMARK.json.

   With two or more runs of a workload on a side, the side's distribution
   is the runs' values; with one run it is that run's own samples.  A pair
   is unresolved when the wider relative interquartile range exceeds the
   bound and the two sides do not fully separate; worse when the new
   median is worse than the base by more than the bound; better when it is
   better by more than the base's spread and wins nine tenths of the
   pairings; same otherwise. *)

module Json = Hlcs_json.Json

type bound = { name : string; unit_ : string; lower_is_better : bool; bound : float }

let ( let* ) = Result.bind

let read_bounds path =
  let* j = Jsonx.read_file path in
  let* metrics = Json.list_field "end_to_end" j in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* name = Json.string_field "name" m in
      let* unit_ = Json.string_field "unit" m in
      let* better = Json.string_field "better" m in
      let* bound = Json.float_field "bound" m in
      Ok ({ name; unit_; lower_is_better = better = "lower"; bound } :: acc))
    metrics (Ok [])

(* one workload's figures from one result file *)
type run = {
  seed : int;
  attempted : int;
  failed : int;
  digest : string option;
  values : (string * float * float list) list;  (** metric, value, samples *)
}

let runs_of_file j =
  let seed = Result.value ~default:0 (Json.int_field "seed" j) in
  match Json.list_field "workloads" j with
  | Error _ -> []
  | Ok ws ->
      List.filter_map
        (fun w ->
          match Json.string_field "name" w with
          | Error _ -> None
          | Ok name ->
              let values =
                match Json.member "metrics" w with
                | Some (Json.Obj ms) ->
                    List.filter_map
                      (fun (m, v) ->
                        match Option.bind (Json.member "value" v) Jsonx.num with
                        | None -> None
                        | Some x ->
                            let samples =
                              match Json.member "samples" v with
                              | Some (Json.List l) -> List.filter_map Jsonx.num l
                              | _ -> []
                            in
                            Some (m, x, samples))
                      ms
                | _ -> []
              in
              Some
                ( name,
                  {
                    seed;
                    attempted = Result.value ~default:0 (Json.int_field "attempted" w);
                    failed = Result.value ~default:0 (Json.int_field "failed" w);
                    digest =
                      Option.bind (Jsonx.path w [ "fingerprint"; "digest" ]) (function
                        | Json.String s -> Some s
                        | _ -> None);
                    values;
                  } ))
        ws

(* result files: the path itself, or every result file in a directory *)
let load path =
  let files =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.fold_left
    (fun acc f ->
      let* acc = acc in
      let* j = Jsonx.read_file f in
      if Json.string_field "schema" j = Ok Result_file.schema then Ok (acc @ runs_of_file j)
      else if Sys.is_directory path then Ok acc
      else Error (f ^ ": not a benchmark result file"))
    (Ok []) files

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

let judge b ~base ~news =
  let beats x y = if b.lower_is_better then x < y else x > y in
  let bm = Stats.median base and nm = Stats.median news in
  let worse_by = (if b.lower_is_better then nm -. bm else bm -. nm) /. Float.abs bm in
  let spread = Float.max (Stats.rel_spread base) (Stats.rel_spread news) in
  let pairs = List.concat_map (fun n -> List.map (fun x -> (n, x)) base) news in
  let wins = List.length (List.filter (fun (n, x) -> beats n x) pairs) in
  let all p = List.for_all p pairs in
  let separated = all (fun (n, x) -> beats n x) || all (fun (n, x) -> beats x n) in
  if spread > b.bound && not separated then Unresolved
  else if worse_by > b.bound then Worse
  else if
    -.worse_by > Stats.rel_spread base
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then Better
  else Same

let distribution runs metric =
  match runs with
  | [ r ] -> (
      match List.find_opt (fun (m, _, _) -> m = metric) r.values with
      | Some (_, _, (_ :: _ as samples)) -> samples
      | Some (_, v, []) -> [ v ]
      | None -> [])
  | _ ->
      List.filter_map
        (fun r ->
          Option.map (fun (_, v, _) -> v) (List.find_opt (fun (m, _, _) -> m = metric) r.values))
        runs

type row = { workload : string; metric : string; verdict : verdict; line : string }

(* Compares the two sides; returns the table rows, the problems that fail
   the comparison, and the notes that do not. *)
let compare ~bounds ~base ~news =
  let names runs = List.sort_uniq compare (List.map fst runs) in
  let of_workload runs w = List.filter_map (fun (n, r) -> if n = w then Some r else None) runs in
  let problems = ref [] and notes = ref [] in
  let rows =
    List.concat_map
      (fun w ->
        let b_runs = of_workload base w and n_runs = of_workload news w in
        if n_runs = [] then begin
          notes := Printf.sprintf "%s: no new runs" w :: !notes;
          []
        end
        else begin
          let ratio rs =
            let a = List.fold_left (fun s r -> s + r.attempted) 0 rs in
            let f = List.fold_left (fun s r -> s + r.failed) 0 rs in
            if a = 0 then 0. else float_of_int f /. float_of_int a
          in
          if ratio n_runs > ratio b_runs then
            problems :=
              Printf.sprintf "%s: failed_ratio rose from %g to %g" w (ratio b_runs) (ratio n_runs)
              :: !problems;
          let common =
            List.filter_map
              (fun (n : run) ->
                Option.map (fun (b : run) -> (n, b)) (List.find_opt (fun (b : run) -> b.seed = n.seed) b_runs))
              n_runs
          in
          (if common = [] then
             notes := Printf.sprintf "%s: no seed in common, fingerprint not compared" w :: !notes
           else
             List.iter
               (fun ((n : run), (b : run)) ->
                 if n.digest <> b.digest then
                   problems :=
                     Printf.sprintf "%s: simulated fingerprint changed for seed %d" w n.seed
                     :: !problems)
               common);
          List.filter_map
            (fun b ->
              let bd = distribution b_runs b.name and nd = distribution n_runs b.name in
              if bd = [] || nd = [] then None
              else
                let v = judge b ~base:bd ~news:nd in
                let q1, bm, q3 = Stats.quartiles bd and r1, nm, r3 = Stats.quartiles nd in
                if v = Worse then
                  problems := Printf.sprintf "%s %s is worse" w b.name :: !problems;
                Some
                  {
                    workload = w;
                    metric = b.name;
                    verdict = v;
                    line =
                      Printf.sprintf
                        "%-18s %-12s base %12.4f %-4s (IQR %.4f)  new %12.4f (IQR %.4f)  new/base %.4f  bound %.2f  %s"
                        w b.name bm b.unit_ (q3 -. q1) nm (r3 -. r1) (nm /. bm) b.bound (verdict_name v);
                  })
            bounds
        end)
      (names base)
  in
  (rows, List.rev !problems, List.rev !notes)

(* [compare] over two paths: the table rows, the failing problems, the notes *)
let evaluate ~bounds_file ~base ~news =
  let* bounds = read_bounds bounds_file in
  let* base = load base in
  let* news = load news in
  Ok (compare ~bounds ~base ~news)

(* the command: prints the table, returns the exit code *)
let main ~bounds_file ~base ~news =
  match evaluate ~bounds_file ~base ~news with
  | Error e ->
      prerr_endline ("compare: " ^ e);
      2
  | Ok (rows, problems, notes) ->
      List.iter (fun r -> print_endline r.line) rows;
      List.iter (fun n -> print_endline ("note: " ^ n)) notes;
      List.iter (fun p -> print_endline ("FAIL: " ^ p)) problems;
      if problems = [] then 0 else 1
