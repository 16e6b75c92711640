(* Coverage-guided swarm scheduling (see swarm.mli).  All policy, no
   mechanism: batches are decided single-threaded from merged coverage, so
   the campaign depends only on its configuration, never on worker count. *)

module Rng = Hlcs_fault.Fault.Rng
module Json = Hlcs_json.Json

type family = { fam_name : string; fam_tags : string list }
type job = { jb_seq : int; jb_family : int; jb_index : int }

type outcome = {
  oc_label : string;
  oc_coverage : Coverage.t;
  oc_verdict : string option;
  oc_monitor : (string * int) list;
  oc_failure : string option;
}

type config = {
  sw_seed : int;
  sw_budget : int;
  sw_batch : int;
  sw_epsilon : float;
  sw_guided : bool;
  sw_target_ratio : float option;
}

let default_config =
  {
    sw_seed = 1;
    sw_budget = 16;
    sw_batch = 4;
    sw_epsilon = 0.2;
    sw_guided = true;
    sw_target_ratio = None;
  }

type round_stat = {
  rd_round : int;
  rd_jobs : int;
  rd_new_bins : int;
  rd_bins : int;
  rd_ratio : float;
}

type family_stat = {
  fs_name : string;
  fs_tags : string list;
  fs_jobs : int;
  fs_new_bins : int;
}

type report = {
  sr_config : config;
  sr_jobs : int;
  sr_rounds : round_stat list;
  sr_families : family_stat list;
  sr_coverage : Coverage.t;
  sr_bins : int;
  sr_verdicts : (string * int) list;
  sr_monitors : (string * int) list;
  sr_failures : (string * string) list;
  sr_reached_target : bool;
  sr_ok : bool;
}

(* per-family scheduler state *)
type fstate = {
  f_index : int;
  f_family : family;
  mutable f_draws : int;  (* jobs handed out, = next jb_index *)
  mutable f_new_bins : int;  (* bins this family was first to hit *)
  mutable f_ema : float;  (* smoothed new-bins-per-job novelty score *)
}

let has_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m > 0 && at 0

(* bonus for families whose declared tags still match open holes: the
   novelty score only rewards what a family already did; the tags reward
   what it claims it can still do *)
let tag_bonus holes fs =
  let matches =
    List.length
      (List.filter
         (fun (pt, bin) ->
           let key = pt ^ "/" ^ bin in
           List.exists (fun tag -> has_substring ~sub:tag key) fs.f_family.fam_tags)
         holes)
  in
  0.25 *. float_of_int (min 4 matches)

(* one slot of a guided batch: untried families first (every family gets
   sampled before any feedback is trusted), then epsilon-greedy over
   novelty + tag scores; ties resolve to the lowest family index *)
let pick_guided cfg rng fstates holes =
  match List.find_opt (fun f -> f.f_draws = 0) fstates with
  | Some f -> f
  | None ->
      let explore =
        Rng.int rng 1_000_000
        < int_of_float (cfg.sw_epsilon *. 1_000_000.0)
      in
      if explore then List.nth fstates (Rng.int rng (List.length fstates))
      else
        let score f = f.f_ema +. tag_bonus holes f in
        List.fold_left
          (fun best f -> if score f > score best then f else best)
          (List.hd fstates) (List.tl fstates)

let pick_blind fstates seq = List.nth fstates (seq mod List.length fstates)

let run cfg ~families ~run_batch =
  if families = [] then invalid_arg "Swarm.run: no families";
  if cfg.sw_budget < 1 then invalid_arg "Swarm.run: budget < 1";
  if cfg.sw_batch < 1 then invalid_arg "Swarm.run: batch < 1";
  let unit_interval r = r >= 0.0 && r <= 1.0 in
  if not (unit_interval cfg.sw_epsilon) then invalid_arg "Swarm.run: epsilon outside [0, 1]";
  (match cfg.sw_target_ratio with
  | Some r when not (unit_interval r) -> invalid_arg "Swarm.run: target ratio outside [0, 1]"
  | Some _ | None -> ());
  let fstates =
    List.mapi
      (fun i fam ->
        { f_index = i; f_family = fam; f_draws = 0; f_new_bins = 0; f_ema = 0.0 })
      families
  in
  let rng = Rng.create ((cfg.sw_seed * 7_919) + 2004) in
  let merged = Coverage.create () in
  let known : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let verdicts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let monitors : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let failures = ref [] in
  let rounds = ref [] in
  let seq = ref 0 in
  let reached = ref false in
  let target_met () =
    match cfg.sw_target_ratio with
    | None -> false
    | Some r -> Coverage.ratio merged >= r
  in
  let round = ref 0 in
  while !seq < cfg.sw_budget && not !reached do
    incr round;
    let k = min cfg.sw_batch (cfg.sw_budget - !seq) in
    let holes = Coverage.holes merged in
    let batch =
      List.init k (fun _ ->
          let f =
            if cfg.sw_guided then pick_guided cfg rng fstates holes
            else pick_blind fstates !seq
          in
          let job = { jb_seq = !seq; jb_family = f.f_index; jb_index = f.f_draws } in
          f.f_draws <- f.f_draws + 1;
          incr seq;
          job)
    in
    let outcomes = run_batch batch in
    if List.length outcomes <> List.length batch then
      failwith "Swarm.run: run_batch returned a short batch";
    let round_new = ref 0 in
    List.iter2
      (fun job oc ->
        let fs = List.nth fstates job.jb_family in
        let fresh =
          List.filter
            (fun bin -> not (Hashtbl.mem known bin))
            (Coverage.hit_bins oc.oc_coverage)
        in
        List.iter (fun bin -> Hashtbl.replace known bin ()) fresh;
        let n_fresh = List.length fresh in
        fs.f_new_bins <- fs.f_new_bins + n_fresh;
        fs.f_ema <- (0.5 *. fs.f_ema) +. (0.5 *. float_of_int n_fresh);
        round_new := !round_new + n_fresh;
        Coverage.merge merged oc.oc_coverage;
        (match oc.oc_verdict with
        | None -> ()
        | Some v -> (
            match Hashtbl.find_opt verdicts v with
            | Some c -> incr c
            | None -> Hashtbl.replace verdicts v (ref 1)));
        List.iter
          (fun (m, n) ->
            if n > 0 then
              match Hashtbl.find_opt monitors m with
              | Some c -> c := !c + n
              | None -> Hashtbl.replace monitors m (ref n))
          oc.oc_monitor;
        match oc.oc_failure with
        | None -> ()
        | Some err -> failures := (oc.oc_label, err) :: !failures)
      batch outcomes;
    rounds :=
      {
        rd_round = !round;
        rd_jobs = k;
        rd_new_bins = !round_new;
        rd_bins = Hashtbl.length known;
        rd_ratio = Coverage.ratio merged;
      }
      :: !rounds;
    if target_met () then reached := true
  done;
  let sorted h = Hashtbl.fold (fun k c acc -> (k, !c) :: acc) h [] |> List.sort compare in
  {
    sr_config = cfg;
    sr_jobs = !seq;
    sr_rounds = List.rev !rounds;
    sr_families =
      List.map
        (fun f ->
          {
            fs_name = f.f_family.fam_name;
            fs_tags = f.f_family.fam_tags;
            fs_jobs = f.f_draws;
            fs_new_bins = f.f_new_bins;
          })
        fstates;
    sr_coverage = merged;
    sr_bins = Hashtbl.length known;
    sr_verdicts = sorted verdicts;
    sr_monitors = sorted monitors;
    sr_failures = List.rev !failures;
    sr_reached_target = !reached;
    sr_ok = !failures = [];
  }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)

let policy_label cfg = if cfg.sw_guided then "guided" else "blind"

let render_text ?wall r =
  let buf = Buffer.create 1024 in
  let cfg = r.sr_config in
  Buffer.add_string buf
    (Printf.sprintf "swarm: %s, seed %d, budget %d, batch %d, epsilon %.2f\n"
       (policy_label cfg) cfg.sw_seed cfg.sw_budget cfg.sw_batch cfg.sw_epsilon);
  Buffer.add_string buf
    (Printf.sprintf "jobs run: %d, distinct bins: %d, coverage %.1f%%%s, %s\n" r.sr_jobs
       r.sr_bins
       (100.0 *. Coverage.ratio r.sr_coverage)
       (match cfg.sw_target_ratio with
       | Some t when r.sr_reached_target -> Printf.sprintf " (target %.0f%% reached)" (100.0 *. t)
       | Some t -> Printf.sprintf " (target %.0f%% missed)" (100.0 *. t)
       | None -> "")
       (if r.sr_ok then "ok" else "FAIL"));
  (match wall with
  | Some w -> Buffer.add_string buf (Printf.sprintf "wall: %.3f s\n" w)
  | None -> ());
  List.iter
    (fun rd ->
      Buffer.add_string buf
        (Printf.sprintf "  round %2d: %2d jobs, %2d new bins, %3d total, ratio %5.1f%%\n"
           rd.rd_round rd.rd_jobs rd.rd_new_bins rd.rd_bins (100.0 *. rd.rd_ratio)))
    r.sr_rounds;
  Buffer.add_string buf
    (Printf.sprintf "  %-16s %5s %9s  %s\n" "family" "jobs" "new-bins" "tags");
  List.iter
    (fun fs ->
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %5d %9d  %s\n" fs.fs_name fs.fs_jobs fs.fs_new_bins
           (String.concat ", " fs.fs_tags)))
    r.sr_families;
  if r.sr_verdicts <> [] then
    Buffer.add_string buf
      ("verdicts: "
      ^ String.concat ", "
          (List.map (fun (v, n) -> Printf.sprintf "%s %d" v n) r.sr_verdicts)
      ^ "\n");
  if r.sr_monitors <> [] then
    Buffer.add_string buf
      ("monitor violations: "
      ^ String.concat ", "
          (List.map (fun (m, n) -> Printf.sprintf "%s %d" m n) r.sr_monitors)
      ^ "\n");
  List.iter
    (fun (job, err) ->
      Buffer.add_string buf (Printf.sprintf "  FAILED %s: %s\n" job err))
    r.sr_failures;
  Buffer.add_string buf (Format.asprintf "%a" Coverage.pp r.sr_coverage);
  Buffer.add_string buf "\n";
  Buffer.contents buf

let render_json ?wall r =
  let cfg = r.sr_config in
  let rounds =
    List.map
      (fun rd ->
        Printf.sprintf
          "{\"round\": %d, \"jobs\": %d, \"new_bins\": %d, \"bins\": %d, \"ratio\": %.4f}"
          rd.rd_round rd.rd_jobs rd.rd_new_bins rd.rd_bins rd.rd_ratio)
      r.sr_rounds
  in
  let fams =
    List.map
      (fun fs ->
        Printf.sprintf
          "{\"family\": %s, \"tags\": [%s], \"jobs\": %d, \"new_bins\": %d}"
          (Json.escape_string fs.fs_name)
          (String.concat ", "
             (List.map Json.escape_string fs.fs_tags))
          fs.fs_jobs fs.fs_new_bins)
      r.sr_families
  in
  let verdicts =
    List.map
      (fun (v, n) -> Printf.sprintf "{\"verdict\": %s, \"jobs\": %d}" (Json.escape_string v) n)
      r.sr_verdicts
  in
  let monitors =
    List.map
      (fun (m, n) ->
        Printf.sprintf "{\"monitor\": %s, \"violations\": %d}" (Json.escape_string m) n)
      r.sr_monitors
  in
  let failures =
    List.map
      (fun (job, err) ->
        Printf.sprintf "{\"job\": %s, \"error\": %s}" (Json.escape_string job)
          (Json.escape_string err))
      r.sr_failures
  in
  Printf.sprintf
    "{\"swarm\": {\"seed\": %d, \"budget\": %d, \"batch\": %d, \"epsilon\": %.4f, \
     \"policy\": \"%s\", \"target_ratio\": %s, \"jobs_run\": %d, \"distinct_bins\": %d, \
     \"reached_target\": %b, \"ok\": %b%s,\n\
    \  \"rounds\": [%s],\n\
    \  \"families\": [%s],\n\
    \  \"verdicts\": [%s],\n\
    \  \"monitors\": [%s],\n\
    \  \"failures\": [%s],\n\
    \  \"coverage\": %s}}\n"
    cfg.sw_seed cfg.sw_budget cfg.sw_batch cfg.sw_epsilon (policy_label cfg)
    (match cfg.sw_target_ratio with
    | None -> "null"
    | Some t -> Printf.sprintf "%.4f" t)
    r.sr_jobs r.sr_bins r.sr_reached_target r.sr_ok
    (match wall with
    | None -> ""
    | Some w -> Printf.sprintf ", \"wall_seconds\": %.3f" w)
    (String.concat ", " rounds)
    (String.concat ", " fams)
    (String.concat ", " verdicts)
    (String.concat ", " monitors)
    (String.concat ", " failures)
    (Coverage.to_json r.sr_coverage)
