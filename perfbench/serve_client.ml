(* The serve workload's client: the daemon is this executable re-run as
   [__daemon WIDTH], which is [Serve.session] over stdio — what
   [hlcs_cli serve --jobs WIDTH] runs — and the client speaks the framed
   protocol to it over a pipe pair. *)

module Job = Hlcs.Job
module Protocol = Hlcs_serve.Protocol
module Serve = Hlcs_serve.Serve
module Json = Hlcs_json.Json

(* the daemon side *)
let daemon_main ~width =
  let cfg = { Serve.default_config with Serve.sv_jobs = Some width } in
  ignore (Serve.session cfg stdin stdout)

type t = { pid : int; ic : in_channel; oc : out_channel }

(* a child environment without the cache-directory variables, so neither
   the daemon nor a cold set-up child reads or writes outside the
   working directory *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun v -> String.starts_with ~prefix:(v ^ "=") kv)
              [ Hlcs_synth.Synth_cache.env_var; "HLCS_CODEGEN_CACHE" ]))
  |> Array.of_list

let spawn ~width =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe
      [| exe; "__daemon"; string_of_int width |]
      (child_env ()) child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  { pid; ic = Unix.in_channel_of_descr from_child; oc = Unix.out_channel_of_descr to_child }

let reap d =
  (try close_out d.oc with Sys_error _ -> ());
  (try close_in d.ic with Sys_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

(* next event, with the time it arrived *)
let event d =
  match Protocol.read_frame d.ic with
  | Ok (Some payload) -> (
      let t = Unix.gettimeofday () in
      match Json.parse payload with
      | Ok j -> (t, j)
      | Error e -> failwith ("serve: unparsable event: " ^ e))
  | Ok None -> failwith "serve: the daemon closed its stream"
  | Error e -> failwith ("serve: " ^ e)

let event_name j = Result.value ~default:"" (Json.string_field "event" j)

let shutdown d =
  Protocol.write_frame d.oc (Protocol.simple_request_to_string `Shutdown);
  let rec until_bye () =
    match Protocol.read_frame d.ic with
    | Ok (Some p) -> (
        match Json.parse p with
        | Ok j when event_name j = "bye" -> ()
        | _ -> until_bye ())
    | Ok None | Error _ -> ()
  in
  until_bye ();
  reap d

let stats d =
  Protocol.write_frame d.oc (Protocol.simple_request_to_string `Stats);
  let rec next () =
    let _, j = event d in
    if event_name j = "stats" then j else next ()
  in
  next ()

type served = {
  s_job : Job.t;
  s_id : string;
  s_submit : float;
  mutable s_started : float;  (** [nan] until the [started] event *)
  mutable s_result : float;
  mutable s_payload : Json.t option;  (** the job's render envelope *)
  mutable s_ok : bool;
}

(* Submits the jobs, then one [drain]; returns when each has its result
   or error. *)
let run_batch d jobs =
  let served =
    List.map
      (fun (id, job) ->
        let t = Unix.gettimeofday () in
        Protocol.write_frame d.oc (Protocol.submit_to_string ~id (Job.to_json_value job));
        {
          s_job = job;
          s_id = id;
          s_submit = t;
          s_started = nan;
          s_result = nan;
          s_payload = None;
          s_ok = false;
        })
      jobs
  in
  Protocol.write_frame d.oc (Protocol.simple_request_to_string `Drain);
  let pending = ref (List.length served) in
  let find j =
    match Json.string_field "id" j with
    | Ok id -> List.find_opt (fun s -> s.s_id = id) served
    | Error _ -> None
  in
  while !pending > 0 do
    let t, j = event d in
    match (event_name j, find j) with
    | "started", Some s -> s.s_started <- t
    | "result", Some s ->
        s.s_result <- t;
        s.s_payload <- Json.member "payload" j;
        s.s_ok <- Json.member "ok" j = Some (Json.Bool true);
        decr pending
    | ("error" | "rejected"), Some s ->
        s.s_result <- t;
        decr pending
    | _ -> ()
  done;
  served

(* seconds of flow-stage work the daemon reports for one job *)
let work s =
  match Option.bind s.s_payload (fun p -> Jsonx.path p [ "payload"; "stages" ]) with
  | Some (Json.List stages) ->
      List.fold_left
        (fun acc st ->
          acc +. Option.value ~default:0. (Option.bind (Json.member "wall_seconds" st) Jsonx.num))
        0. stages
  | _ -> 0.

(* A rendering with every wall-clock figure blanked: stage
   [wall_seconds] members and the "<n>s wall" notes inside stage details. *)
let scrub_wall s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_num c = (c >= '0' && c <= '9') || c = '.' in
  let i = ref 0 in
  while !i < n do
    if !i + 6 <= n && String.sub s !i 6 = "s wall" then begin
      (* drop the figure already copied *)
      let len = Buffer.length b in
      let k = ref len in
      while !k > 0 && is_num (Buffer.nth b (!k - 1)) do
        decr k
      done;
      Buffer.truncate b !k;
      Buffer.add_string b "Xs wall";
      i := !i + 6
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let rec scrub = function
  | Json.Obj m ->
      Json.Obj
        (List.map (fun (k, v) -> (k, if k = "wall_seconds" then Json.Int 0 else scrub v)) m)
  | Json.List l -> Json.List (List.map scrub l)
  | Json.String s -> Json.String (scrub_wall s)
  | v -> v

let same_modulo_wall a b = Json.to_string (scrub a) = Json.to_string (scrub b)
