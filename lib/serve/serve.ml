module Json = Hlcs_json.Json
module Admission = Hlcs_runtime.Admission
module Pool = Hlcs_runtime.Pool
module Run_config = Hlcs_interface.Run_config
module Synth_cache = Hlcs_synth.Synth_cache
module Job = Hlcs.Job

type config = {
  sv_capacity : int;
  sv_batch : int option;
  sv_jobs : int option;
}

let default_config = { sv_capacity = 64; sv_batch = None; sv_jobs = None }

type summary = {
  sm_submitted : int;
  sm_completed : int;
  sm_rejected : int;
  sm_cancelled : int;
  sm_errors : int;
}

type stop_reason = [ `Eof | `Shutdown | `Protocol_error ]

(* one queued job *)
type pending = {
  p_id : string;
  p_job : Job.t;
  p_deadline : float option;  (** absolute, from the submit-time clock *)
}

type session_state = {
  cfg : config;
  oc : out_channel;
  queue : pending Admission.t;
  queued_ids : (string, unit) Hashtbl.t;  (** mirror of the queue's ids *)
  mutable dead : bool;  (** output broke (EPIPE): stop emitting, wind down *)
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable cancelled : int;
  mutable errors : int;
}

(* --- events ------------------------------------------------------------- *)

let emit st fields =
  if not st.dead then
    let payload =
      Json.to_string (Json.Obj (("schema_version", Json.Int Job.schema_version) :: fields))
    in
    try Protocol.write_frame st.oc payload with
    | Sys_error _ -> st.dead <- true
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> st.dead <- true

(* [result] splices the job's own render envelope, so it bypasses the
   Json.t path: the envelope string is already canonical JSON *)
let emit_result st ~id ~ok ~failure payload =
  if not st.dead then
    let p =
      Printf.sprintf
        "{\"schema_version\": %d, \"event\": \"result\", \"id\": %s, \"ok\": \
         %b, \"failure\": %s, \"payload\": %s}"
        Job.schema_version (Json.escape_string id) ok
        (match failure with
        | None -> "null"
        | Some f -> Json.escape_string f)
        payload
    in
    try Protocol.write_frame st.oc p with
    | Sys_error _ -> st.dead <- true
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> st.dead <- true

let emit_error st ~id error =
  st.errors <- st.errors + 1;
  emit st
    [
      ("event", Json.String "error");
      ("id", match id with None -> Json.Null | Some i -> Json.String i);
      ("error", Json.String error);
    ]

let emit_stats st =
  let cache = Run_config.shared_cache in
  let cs = Synth_cache.stats cache in
  emit st
    [
      ("event", Json.String "stats");
      ("queue_length", Json.Int (Admission.length st.queue));
      ("capacity", Json.Int (Admission.capacity st.queue));
      ("submitted", Json.Int st.submitted);
      ("completed", Json.Int st.completed);
      ("rejected", Json.Int st.rejected);
      ("cancelled", Json.Int st.cancelled);
      ("errors", Json.Int st.errors);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int cs.Synth_cache.hits);
            ("misses", Json.Int cs.Synth_cache.misses);
            ("disk_hits", Json.Int cs.Synth_cache.disk_hits);
            ("synth_units_total", Json.Int cs.Synth_cache.units_total);
            ("synth_units_reused", Json.Int cs.Synth_cache.units_reused);
            ("synth_units_rebuilt", Json.Int cs.Synth_cache.units_rebuilt);
            ( "disk_dir",
              match Synth_cache.disk_dir cache with
              | None -> Json.Null
              | Some d -> Json.String d );
          ] );
    ]

(* --- execution ---------------------------------------------------------- *)

(* run one batch off the queue: expired deadlines become structured
   timeout errors; live jobs go to the pool together; [started] events
   stream in round-robin drain order, [result]s in submission order *)
let run_batch st =
  let batch = Admission.drain ?max:st.cfg.sv_batch st.queue in
  List.iter (fun (_, p) -> Hashtbl.remove st.queued_ids p.p_id) batch;
  if batch <> [] then begin
    let now = Unix.gettimeofday () in
    let expired, live =
      List.partition
        (fun (_, p) ->
          match p.p_deadline with Some d -> d <= now | None -> false)
        batch
    in
    List.iter
      (fun (_, p) ->
        emit_error st ~id:(Some p.p_id) "timeout: queue wait exceeded timeout_ms")
      expired;
    List.iter
      (fun (_, p) -> emit st [ ("event", Json.String "started"); ("id", Json.String p.p_id) ])
      live;
    let jobs = Array.of_list (List.map snd live) in
    let outcomes = Pool.map ?jobs:st.cfg.sv_jobs (fun p -> Job.run p.p_job) jobs in
    let n = Array.length outcomes in
    Array.iteri
      (fun i outcome ->
        let p = jobs.(i) in
        (match outcome with
        | Pool.Done (Ok result) ->
            st.completed <- st.completed + 1;
            emit_result st ~id:p.p_id
              ~ok:(Job.failure result = None)
              ~failure:(Job.failure result)
              (Job.render_json p.p_job result)
        | Pool.Done (Error e) -> emit_error st ~id:(Some p.p_id) e
        | Pool.Failed f ->
            emit_error st ~id:(Some p.p_id) ("job crashed: " ^ f.Pool.f_exn));
        emit st
          [
            ("event", Json.String "progress");
            ("completed", Json.Int (i + 1));
            ("of", Json.Int n);
          ])
      outcomes
  end

let drain_all st =
  while Admission.length st.queue > 0 && not st.dead do
    run_batch st
  done

(* --- requests ----------------------------------------------------------- *)

let handle_submit st ~default_client ~id ~client ~job_json ~timeout_ms =
  let client = if client = "default" then default_client else client in
  match Job.of_json job_json with
  | Error e -> emit_error st ~id:(Some id) ("bad job: " ^ e)
  | Ok { Job.j_config = { Run_config.rc_vcd_prefix = Some _; _ }; _ } ->
      (* a socket client must not choose where the daemon writes *)
      emit_error st ~id:(Some id)
        "bad job: vcd_prefix names a host path; the daemon writes no files"
  | Ok job ->
      if Hashtbl.mem st.queued_ids id then
        emit_error st ~id:(Some id) (Printf.sprintf "duplicate job id %S" id)
      else
        let deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
            timeout_ms
        in
        let p = { p_id = id; p_job = job; p_deadline = deadline } in
        (match Admission.submit ~client p st.queue with
        | Ok () ->
            Hashtbl.replace st.queued_ids id ();
            st.submitted <- st.submitted + 1;
            emit st
              [
                ("event", Json.String "accepted");
                ("id", Json.String id);
                ("queue_length", Json.Int (Admission.length st.queue));
              ]
        | Error rj ->
            st.rejected <- st.rejected + 1;
            emit st
              [
                ("event", Json.String "rejected");
                ("id", Json.String id);
                ( "reason",
                  Json.String
                    (Printf.sprintf "queue full: %d of %d slots occupied"
                       rj.Admission.rj_length rj.Admission.rj_capacity) );
                ("retry_after_ms", Json.Int rj.Admission.rj_retry_after_ms);
              ])

let handle_cancel st id =
  match Admission.remove (fun p -> p.p_id = id) st.queue with
  | [] -> emit_error st ~id:(Some id) (Printf.sprintf "no queued job %S" id)
  | _ :: _ ->
      Hashtbl.remove st.queued_ids id;
      st.cancelled <- st.cancelled + 1;
      emit st [ ("event", Json.String "cancelled"); ("id", Json.String id) ]

(* --- the session loop --------------------------------------------------- *)

let summary st =
  {
    sm_submitted = st.submitted;
    sm_completed = st.completed;
    sm_rejected = st.rejected;
    sm_cancelled = st.cancelled;
    sm_errors = st.errors;
  }

let session ?(client = "default") cfg ic oc =
  let st =
    {
      cfg;
      oc;
      queue = Admission.create ~capacity:cfg.sv_capacity;
      queued_ids = Hashtbl.create 17;
      dead = false;
      submitted = 0;
      completed = 0;
      rejected = 0;
      cancelled = 0;
      errors = 0;
    }
  in
  let disconnect () =
    (* drop every queued job; there is no one left to stream results to *)
    let dropped = Admission.drain st.queue in
    Hashtbl.reset st.queued_ids;
    st.cancelled <- st.cancelled + List.length dropped
  in
  let rec loop () =
    if st.dead then begin
      disconnect ();
      (summary st, `Eof)
    end
    else
      match Protocol.read_frame ic with
      | Ok None ->
          disconnect ();
          (summary st, `Eof)
      | Error e ->
          emit_error st ~id:None ("framing: " ^ e);
          disconnect ();
          (summary st, `Protocol_error)
      | Ok (Some payload) -> (
          match Protocol.request_of_string payload with
          | Error e ->
              emit_error st ~id:None e;
              loop ()
          | Ok (Protocol.Submit { id; client = c; job; timeout_ms }) ->
              handle_submit st ~default_client:client ~id ~client:c
                ~job_json:job ~timeout_ms;
              loop ()
          | Ok (Protocol.Cancel id) ->
              handle_cancel st id;
              loop ()
          | Ok Protocol.Stats ->
              emit_stats st;
              loop ()
          | Ok Protocol.Drain ->
              drain_all st;
              loop ()
          | Ok Protocol.Shutdown ->
              (* graceful: queued work still runs, then the goodbye *)
              drain_all st;
              emit st [ ("event", Json.String "bye") ];
              (summary st, `Shutdown))
  in
  loop ()

(* --- the socket server -------------------------------------------------- *)

let serve_unix ?max_connections cfg ~path =
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* writes go to connected peers that may vanish mid-stream; the emit
     path maps EPIPE to a dead session rather than a dead daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let stop = ref false in
      let conn = ref 0 in
      while
        (not !stop)
        && match max_connections with None -> true | Some m -> !conn < m
      do
        let fd, _ = Unix.accept sock in
        incr conn;
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let _, reason =
          session ~client:(Printf.sprintf "conn-%d" !conn) cfg ic oc
        in
        (try flush oc with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if reason = `Shutdown then stop := true
      done)
