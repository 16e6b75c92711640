module Run_config = Hlcs_interface.Run_config
module System = Hlcs_interface.System
module Sram_system = Hlcs_interface.Sram_system
module Pci_stim = Hlcs_pci.Pci_stim
module Obs = Hlcs_obs.Obs
module Diag = Hlcs_analysis.Diag
module Swarm = Hlcs_verify.Swarm
module Json = Hlcs_json.Json

type profile_design = [ `Tlm | `Pin | `Rtl | `Sram_pin | `Sram_rtl ]

type kind =
  | Flow
  | Profile of profile_design
  | Sweep of { n : int; vary : [ `Environment | `Stimuli ] }
  | Fault of { n : int; fault_seed : int }
  | Swarm of {
      budget : int;
      batch : int;
      epsilon : float;
      guided : bool;
      target_ratio : float option;
      mode : [ `Flow | `Pin ];
      fault_seed : int;
    }

type t = {
  j_kind : kind;
  j_config : Run_config.t;
  j_seed : int;
  j_count : int;
  j_jobs : int option;
  j_deterministic : bool;
}

let default =
  {
    j_kind = Flow;
    j_config = Run_config.default;
    j_seed = 2004;
    j_count = 12;
    j_jobs = None;
    j_deterministic = false;
  }

let kind_name = function
  | Flow -> "flow"
  | Profile _ -> "profile"
  | Sweep _ -> "sweep"
  | Fault _ -> "fault"
  | Swarm _ -> "swarm"

let script t =
  Pci_stim.write_then_read_all
    (Pci_stim.random ~seed:t.j_seed ~count:t.j_count ~base:0
       ~size_bytes:t.j_config.Run_config.rc_mem_bytes ())

type outcome =
  | Flow_result of Flow.report
  | Profile_result of Obs.snapshot
  | Sweep_result of Sweep.report
  | Swarm_result of Swarm.report * float

(* --- execution ---------------------------------------------------------- *)

let run_profile t which =
  let config = Run_config.with_profile true t.j_config in
  let script = script t in
  let rr =
    match which with
    | `Tlm -> System.tlm config ~script
    | `Pin -> System.pin config ~script
    | `Rtl -> System.rtl config ~script
    | `Sram_pin -> Sram_system.pin config ~script
    | `Sram_rtl -> Sram_system.rtl config ~script
  in
  match rr.System.rr_profile with
  | None -> Error "profiling produced no snapshot"
  | Some sn -> Ok (Profile_result sn)

let run t =
  let c = t.j_config in
  match t.j_kind with
  | Flow -> Ok (Flow_result (Flow.execute c ~script:(script t)))
  | Profile which -> run_profile t which
  | Sweep { n; vary } ->
      let scenarios =
        Sweep.scenarios ~base_seed:t.j_seed ~count:t.j_count
          ~mem_bytes:c.Run_config.rc_mem_bytes ?policy:c.Run_config.rc_policy
          ~target:c.Run_config.rc_target ~vary ~n ()
      in
      Ok (Sweep_result (Sweep.run ?jobs:t.j_jobs c ~scenarios))
  | Fault { n; fault_seed } ->
      let scenarios =
        Sweep.fault_scenarios ~base_seed:t.j_seed ~count:t.j_count
          ~mem_bytes:c.Run_config.rc_mem_bytes ?policy:c.Run_config.rc_policy
          ~target:c.Run_config.rc_target ~fault_seed ~n ()
      in
      Ok (Sweep_result (Sweep.run ?jobs:t.j_jobs c ~scenarios))
  | Swarm { budget; batch; epsilon; guided; target_ratio; mode; fault_seed } ->
      let config =
        {
          Swarm.sw_seed = t.j_seed;
          sw_budget = budget;
          sw_batch = batch;
          sw_epsilon = epsilon;
          sw_guided = guided;
          sw_target_ratio = target_ratio;
        }
      in
      let t0 = Unix.gettimeofday () in
      let report =
        Sweep.swarm ?jobs:t.j_jobs ~mode ~base_seed:t.j_seed ~count:t.j_count
          ~mem_bytes:c.Run_config.rc_mem_bytes ?policy:c.Run_config.rc_policy
          ~target:c.Run_config.rc_target ~fault_seed
          ~max_time:c.Run_config.rc_max_time config ()
      in
      Ok (Swarm_result (report, Unix.gettimeofday () -. t0))

let failure = function
  | Flow_result r -> if r.Flow.fl_ok then None else Some "flow failed"
  | Profile_result _ -> None
  | Sweep_result report -> (
      match Sweep.failed_jobs report with
      | [] -> None
      | failed ->
          Some
            (Printf.sprintf "sweep failed: %d of %d jobs (%s)"
               (List.length failed)
               (List.length report.Sweep.sw_jobs)
               (String.concat ", "
                  (List.map
                     (fun jb -> jb.Sweep.jb_scenario.Sweep.sc_name)
                     failed))))
  | Swarm_result (report, _) -> (
      match report.Swarm.sr_failures with
      | [] -> None
      | failed ->
          Some
            (Printf.sprintf "swarm failed: %d of %d jobs crashed (%s)"
               (List.length failed) report.Swarm.sr_jobs
               (String.concat ", " (List.map fst failed))))

(* --- rendering ---------------------------------------------------------- *)

let schema_version = 1

let flow_payload ~deterministic (report : Flow.report) =
  let stage (s : Flow.stage) =
    Json.Obj
      [
        ("name", Json.String s.Flow.sg_name);
        ("ok", Json.Bool s.Flow.sg_ok);
        ("detail", Json.String (s.Flow.sg_detail ~wall:(not deterministic)));
        ( "wall_seconds",
          if deterministic then Json.Int 0 else Json.Float s.Flow.sg_wall_seconds );
      ]
  in
  Json.Obj
    (("ok", Json.Bool report.Flow.fl_ok)
    :: ("stages", Json.List (List.map stage report.Flow.fl_stages))
    :: Diag.json_members report.Flow.fl_diags)

let render_text t outcome =
  let wall = not t.j_deterministic in
  match outcome with
  | Flow_result report ->
      Format.asprintf "%a@."
        (if wall then Flow.pp_report else Flow.pp_report_deterministic)
        report
  | Profile_result sn -> Obs.render_text ~wall sn
  | Sweep_result report -> Sweep.render_text ~wall report
  | Swarm_result (report, elapsed) ->
      let wall = if t.j_deterministic then None else Some elapsed in
      Swarm.render_text ?wall report

let envelope ~kind payload =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String kind);
      ("payload", payload);
    ]

let render_json t outcome =
  let wall = not t.j_deterministic in
  let render payload = Json.to_string (envelope ~kind:(kind_name t.j_kind) payload) in
  match outcome with
  | Flow_result report -> render (flow_payload ~deterministic:t.j_deterministic report)
  | Profile_result sn -> render (Obs.to_json ~wall sn)
  | Sweep_result report -> render (Sweep.to_json ~wall report)
  | Swarm_result (report, elapsed) ->
      (* the swarm report keeps its own Printf layout (fixed 4-decimal
         ratios), so its text takes the place of a null payload *)
      let shell = render Json.Null in
      let wall = if t.j_deterministic then None else Some elapsed in
      String.sub shell 0 (String.length shell - String.length "null}")
      ^ String.trim (Swarm.render_json ?wall report)
      ^ "}"

(* --- JSON codec --------------------------------------------------------- *)

let codec_version = 1

let profile_design_name = function
  | `Tlm -> "tlm"
  | `Pin -> "pin"
  | `Rtl -> "rtl"
  | `Sram_pin -> "sram-pin"
  | `Sram_rtl -> "sram-rtl"

let profile_design_of_name = function
  | "tlm" -> Ok `Tlm
  | "pin" -> Ok `Pin
  | "rtl" | "fig3" -> Ok `Rtl
  | "sram-pin" -> Ok `Sram_pin
  | "sram-rtl" -> Ok `Sram_rtl
  | other -> Error (Printf.sprintf "unknown profile design %S" other)

let kind_to_json = function
  | Flow -> Json.Obj [ ("name", Json.String "flow") ]
  | Profile which ->
      Json.Obj
        [
          ("name", Json.String "profile");
          ("design", Json.String (profile_design_name which));
        ]
  | Sweep { n; vary } ->
      Json.Obj
        [
          ("name", Json.String "sweep");
          ("n", Json.Int n);
          ( "vary",
            Json.String
              (match vary with `Environment -> "env" | `Stimuli -> "stimuli") );
        ]
  | Fault { n; fault_seed } ->
      Json.Obj
        [
          ("name", Json.String "fault");
          ("n", Json.Int n);
          ("fault_seed", Json.Int fault_seed);
        ]
  | Swarm { budget; batch; epsilon; guided; target_ratio; mode; fault_seed } ->
      Json.Obj
        [
          ("name", Json.String "swarm");
          ("budget", Json.Int budget);
          ("batch", Json.Int batch);
          ("epsilon", Json.Float epsilon);
          ("guided", Json.Bool guided);
          ( "target_ratio",
            match target_ratio with None -> Json.Null | Some r -> Json.Float r );
          ("mode", Json.String (match mode with `Flow -> "flow" | `Pin -> "pin"));
          ("fault_seed", Json.Int fault_seed);
        ]

let ( let* ) = Result.bind

let count_range = (0, max_int)
let positive_range = (1, max_int)

let epsilon_in_range e =
  if e >= 0. && e <= 1. then Ok e
  else Error (Printf.sprintf "epsilon %g is out of range (0..1)" e)

let int_in field range j =
  let* v = Json.int_field field j in
  Run_config.in_range field range v

let kind_of_json j =
  let* name = Json.string_field "name" j in
  match name with
  | "flow" -> Ok Flow
  | "profile" ->
      let* design = Json.string_field "design" j in
      let* which = profile_design_of_name design in
      Ok (Profile which)
  | "sweep" ->
      let* n = int_in "n" count_range j in
      let* vary_s = Json.string_field "vary" j in
      let* vary =
        match vary_s with
        | "env" -> Ok `Environment
        | "stimuli" -> Ok `Stimuli
        | other -> Error (Printf.sprintf "unknown sweep axis %S" other)
      in
      Ok (Sweep { n; vary })
  | "fault" ->
      let* n = int_in "n" count_range j in
      let* fault_seed = Json.int_field "fault_seed" j in
      Ok (Fault { n; fault_seed })
  | "swarm" ->
      let* budget = int_in "budget" positive_range j in
      let* batch = int_in "batch" positive_range j in
      let* epsilon = Result.bind (Json.float_field "epsilon" j) epsilon_in_range in
      let* guided = Json.bool_field "guided" j in
      let* target_ratio = Json.opt_field "target_ratio" j Json.to_float in
      let* mode_s = Json.string_field "mode" j in
      let* mode =
        match mode_s with
        | "flow" -> Ok `Flow
        | "pin" -> Ok `Pin
        | other -> Error (Printf.sprintf "unknown swarm mode %S" other)
      in
      let* fault_seed = Json.int_field "fault_seed" j in
      Ok (Swarm { budget; batch; epsilon; guided; target_ratio; mode; fault_seed })
  | other -> Error (Printf.sprintf "unknown job kind %S" other)

let to_json_value t =
  Json.Obj
    [
      ("job_version", Json.Int codec_version);
      ("kind", kind_to_json t.j_kind);
      ("config", Run_config.to_json_value t.j_config);
      ("seed", Json.Int t.j_seed);
      ("count", Json.Int t.j_count);
      ("jobs", match t.j_jobs with None -> Json.Null | Some n -> Json.Int n);
      ("deterministic", Json.Bool t.j_deterministic);
    ]

let to_json t = Json.to_string (to_json_value t)

let of_json j =
  let* v = Json.int_field "job_version" j in
  if v <> codec_version then
    Error
      (Printf.sprintf "unsupported job_version %d (this build speaks %d)" v
         codec_version)
  else
    let* j_kind =
      match Json.member "kind" j with
      | None -> Error "missing member \"kind\""
      | Some kj -> kind_of_json kj
    in
    let* j_config =
      match Json.member "config" j with
      | None -> Error "missing member \"config\""
      | Some cj -> Run_config.of_json cj
    in
    let* j_seed = Json.int_field "seed" j in
    let* j_count = int_in "count" count_range j in
    let* j_jobs =
      Json.opt_field "jobs" j (fun v ->
          Result.bind (Json.to_int v) (Run_config.in_range "jobs" positive_range))
    in
    let* j_deterministic = Json.bool_field "deterministic" j in
    Ok { j_kind; j_config; j_seed; j_count; j_jobs; j_deterministic }

let parse s =
  match Json.parse s with
  | Error e -> Error ("job: " ^ e)
  | Ok j -> of_json j
