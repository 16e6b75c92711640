(* The serve session loop, driven in-process.

   Each case pre-frames a request script into a temp file, runs
   [Serve.session] over plain channels, then parses the emitted event
   frames back.  That exercises the same code path as the socket daemon
   (which only adds accept/close around [session]) while keeping the
   tests deterministic and domain-free: requests arrive "all at once",
   batches run at the drain points, EOF is a client disconnect.

   The jobs submitted are TLM profile runs — the cheapest kind — except
   where the case is about queue mechanics only and the job never
   runs. *)

module Serve = Hlcs_serve.Serve
module Protocol = Hlcs_serve.Protocol
module Json = Hlcs_json.Json
module Job = Hlcs.Job

(* a cheap, deterministic job: one TLM profile pass over 2 requests *)
let tlm_job =
  {
    Job.default with
    Job.j_kind = Job.Profile `Tlm;
    j_count = 2;
    j_jobs = Some 1;
    j_deterministic = true;
  }

let job_json job = Result.get_ok (Json.parse (Job.to_json job))

let submit ?client ?timeout_ms id =
  Protocol.submit_to_string ~id ?client ?timeout_ms (job_json tlm_job)

let simple r = Protocol.simple_request_to_string r

(* frame [payloads] into a request file (or splice raw bytes for the
   framing-error cases), run one session, parse the event stream back *)
let run_session ?(cfg = Serve.default_config) script =
  let reqf = Filename.temp_file "hlcs_serve_req" ".bin" in
  let outf = Filename.temp_file "hlcs_serve_out" ".bin" in
  let oc = open_out_bin reqf in
  List.iter
    (function
      | `Frame p -> Protocol.write_frame oc p
      | `Raw bytes -> output_string oc bytes)
    script;
  close_out oc;
  let ic = open_in_bin reqf in
  let out = open_out_bin outf in
  let summary, reason = Serve.session cfg ic out in
  close_in ic;
  close_out out;
  let ic = open_in_bin outf in
  let rec events acc =
    match Protocol.read_frame ic with
    | Ok None -> List.rev acc
    | Ok (Some p) -> events (Json.parse_exn p :: acc)
    | Error e -> Alcotest.failf "bad event frame: %s" e
  in
  let evs = events [] in
  close_in ic;
  Sys.remove reqf;
  Sys.remove outf;
  (evs, summary, reason)

let event_name ev = Result.get_ok (Json.string_field "event" ev)
let event_names evs = List.map event_name evs

let field_string k ev = Result.get_ok (Json.string_field k ev)

let versioned ev =
  match Json.member "schema_version" ev with
  | Some (Json.Int v) -> v = Job.schema_version
  | _ -> false

(* --- the happy path ---------------------------------------------------- *)

let submit_drain_result =
  Alcotest.test_case "submit → drain → result, shutdown is graceful" `Quick
    (fun () ->
      let evs, summary, reason =
        run_session
          [ `Frame (submit "j1"); `Frame (simple `Drain); `Frame (simple `Shutdown) ]
      in
      Alcotest.(check (list string))
        "event order"
        [ "accepted"; "started"; "result"; "progress"; "bye" ]
        (event_names evs);
      Alcotest.(check bool) "all versioned" true (List.for_all versioned evs);
      let result = List.nth evs 2 in
      Alcotest.(check string) "result id" "j1" (field_string "id" result);
      Alcotest.(check bool)
        "result ok" true
        (Result.get_ok (Json.bool_field "ok" result));
      (* the payload is the job's own envelope, dispatchable by kind *)
      (match Json.member "payload" result with
      | Some payload ->
          Alcotest.(check string)
            "payload kind" "profile"
            (field_string "kind" payload)
      | None -> Alcotest.fail "result has no payload");
      Alcotest.(check int) "submitted" 1 summary.Serve.sm_submitted;
      Alcotest.(check int) "completed" 1 summary.Serve.sm_completed;
      Alcotest.(check int) "errors" 0 summary.Serve.sm_errors;
      Alcotest.(check bool) "shutdown" true (reason = `Shutdown))

(* queued work still runs on shutdown — no drain request needed *)
let shutdown_drains =
  Alcotest.test_case "shutdown runs queued work before the goodbye" `Quick
    (fun () ->
      let evs, summary, _ =
        run_session [ `Frame (submit "j1"); `Frame (simple `Shutdown) ]
      in
      Alcotest.(check (list string))
        "event order"
        [ "accepted"; "started"; "result"; "progress"; "bye" ]
        (event_names evs);
      Alcotest.(check int) "completed" 1 summary.Serve.sm_completed)

let stats_event =
  Alcotest.test_case "stats reports queue, counters and the synth cache"
    `Quick (fun () ->
      let evs, _, _ =
        run_session
          [ `Frame (submit "j1"); `Frame (simple `Stats); `Frame (simple `Shutdown) ]
      in
      let stats = List.nth evs 1 in
      Alcotest.(check string) "is stats" "stats" (event_name stats);
      Alcotest.(check int)
        "queue_length" 1
        (Result.get_ok (Json.int_field "queue_length" stats));
      Alcotest.(check int)
        "capacity" 64
        (Result.get_ok (Json.int_field "capacity" stats));
      match Json.member "cache" stats with
      | Some cache ->
          List.iter
            (fun k ->
              match Json.member k cache with
              | Some (Json.Int _) -> ()
              | _ -> Alcotest.failf "cache.%s missing or not an int" k)
            [ "hits"; "misses"; "disk_hits" ]
      | None -> Alcotest.fail "no cache block")

(* --- queue mechanics ---------------------------------------------------- *)

let cancel_queued =
  Alcotest.test_case "cancel removes a queued job before its batch" `Quick
    (fun () ->
      let evs, summary, _ =
        run_session
          [
            `Frame (submit "j1");
            `Frame (simple (`Cancel "j1"));
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check (list string))
        "event order" [ "accepted"; "cancelled"; "bye" ] (event_names evs);
      Alcotest.(check int) "cancelled" 1 summary.Serve.sm_cancelled;
      Alcotest.(check int) "completed" 0 summary.Serve.sm_completed;
      (* cancelling the same id again is an error, not a crash *)
      let evs2, _, _ =
        run_session
          [ `Frame (simple (`Cancel "ghost")); `Frame (simple `Shutdown) ]
      in
      Alcotest.(check (list string))
        "unknown id errors" [ "error"; "bye" ] (event_names evs2))

let timeout_expired_at_drain =
  Alcotest.test_case "timeout_ms bounds queue wait as a structured error"
    `Quick (fun () ->
      (* timeout 0: already expired when the batch starts, so the job is
         reported as a timeout error without running *)
      let evs, summary, _ =
        run_session
          [
            `Frame (submit ~timeout_ms:0 "late");
            `Frame (submit "ontime");
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check (list string))
        "event order"
        [ "accepted"; "accepted"; "error"; "started"; "result"; "progress"; "bye" ]
        (event_names evs);
      let err = List.nth evs 2 in
      Alcotest.(check string) "timed-out id" "late" (field_string "id" err);
      Alcotest.(check bool)
        "structured reason" true
        (let e = field_string "error" err in
         String.length e >= 7 && String.sub e 0 7 = "timeout");
      Alcotest.(check int) "one completed" 1 summary.Serve.sm_completed;
      Alcotest.(check int) "one error" 1 summary.Serve.sm_errors)

let duplicate_id_rejected =
  Alcotest.test_case "a queued id cannot be resubmitted" `Quick (fun () ->
      let evs, summary, _ =
        run_session
          [
            `Frame (submit "j1");
            `Frame (submit "j1");
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check (list string))
        "event order"
        [ "accepted"; "error"; "started"; "result"; "progress"; "bye" ]
        (event_names evs);
      (* the original job survived the duplicate attempt *)
      Alcotest.(check int) "one completed" 1 summary.Serve.sm_completed;
      Alcotest.(check int) "one submitted" 1 summary.Serve.sm_submitted)

let overflow_rejected =
  Alcotest.test_case "queue overflow is a rejected event with a retry hint"
    `Quick (fun () ->
      let cfg = { Serve.default_config with Serve.sv_capacity = 1 } in
      let evs, summary, _ =
        run_session ~cfg
          [
            `Frame (submit "j1");
            `Frame (submit "j2");
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check (list string))
        "event order"
        [ "accepted"; "rejected"; "started"; "result"; "progress"; "bye" ]
        (event_names evs);
      let rej = List.nth evs 1 in
      Alcotest.(check string) "rejected id" "j2" (field_string "id" rej);
      Alcotest.(check bool)
        "retry hint" true
        (Result.get_ok (Json.int_field "retry_after_ms" rej) > 0);
      Alcotest.(check int) "rejected count" 1 summary.Serve.sm_rejected;
      (* the slot frees after the drain: j2 can come back *)
      let evs2, summary2, _ =
        run_session ~cfg
          [
            `Frame (submit "j1");
            `Frame (simple `Drain);
            `Frame (submit "j2");
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check int) "both completed" 2 summary2.Serve.sm_completed;
      Alcotest.(check int) "none rejected" 0 summary2.Serve.sm_rejected;
      ignore evs2)

(* --- failure modes ------------------------------------------------------ *)

let malformed_request_continues =
  Alcotest.test_case "a malformed request errors without ending the session"
    `Quick (fun () ->
      let evs, _, reason =
        run_session
          [
            `Frame "this is not json";
            `Frame "{\"schema_version\": 1, \"request\": \"teleport\"}";
            `Frame "{\"schema_version\": 99, \"request\": \"stats\"}";
            `Frame (simple `Stats);
            `Frame (simple `Shutdown);
          ]
      in
      Alcotest.(check (list string))
        "three errors, then service"
        [ "error"; "error"; "error"; "stats"; "bye" ]
        (event_names evs);
      Alcotest.(check bool) "still a clean shutdown" true (reason = `Shutdown))

let bad_job_payload =
  Alcotest.test_case "an undecodable job is a per-id error" `Quick (fun () ->
      let payload =
        Protocol.submit_to_string ~id:"bad" (Json.Obj [ ("x", Json.Int 1) ])
      in
      let evs, summary, _ =
        run_session [ `Frame payload; `Frame (simple `Shutdown) ]
      in
      Alcotest.(check (list string))
        "event order" [ "error"; "bye" ] (event_names evs);
      Alcotest.(check string) "carries the id" "bad"
        (field_string "id" (List.hd evs));
      Alcotest.(check int) "nothing submitted" 0 summary.Serve.sm_submitted)

(* a socket client names no host path: a job that asks for waveforms is
   refused before it is queued, and nothing is written; a count the
   stimulus generator cannot take is refused the same way *)
let host_path_refused =
  Alcotest.test_case "a job naming a host path or a bad count is refused" `Quick
    (fun () ->
      let dir = Filename.temp_file "hlcs_serve_vcd" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let owned = { tlm_job with Job.j_kind = Job.Flow } in
      let owned =
        {
          owned with
          Job.j_config =
            Hlcs.Run_config.with_vcd_prefix (Filename.concat dir "owned")
              owned.Job.j_config;
        }
      in
      let evs, summary, _ =
        run_session
          [
            `Frame (Protocol.submit_to_string ~id:"owned" (job_json owned));
            `Frame
              (Protocol.submit_to_string ~id:"negative"
                 (job_json { tlm_job with Job.j_count = -1 }));
            `Frame (simple `Drain);
            `Frame (simple `Shutdown);
          ]
      in
      let written = Sys.readdir dir in
      Unix.rmdir dir;
      Alcotest.(check (list string))
        "two per-id errors, nothing runs" [ "error"; "error"; "bye" ]
        (event_names evs);
      Alcotest.(check (list string)) "ids" [ "owned"; "negative" ]
        (List.map (field_string "id") (List.filteri (fun i _ -> i < 2) evs));
      List.iter
        (fun ev ->
          Alcotest.(check bool) "a bad job" true
            (String.starts_with ~prefix:"bad job: " (field_string "error" ev)))
        (List.filteri (fun i _ -> i < 2) evs);
      Alcotest.(check int) "nothing submitted" 0 summary.Serve.sm_submitted;
      Alcotest.(check (array string)) "no file written" [||] written)

let disconnect_cancels_queue =
  Alcotest.test_case "client EOF cancels queued work" `Quick (fun () ->
      (* two jobs queued, no drain, stream just ends *)
      let evs, summary, reason =
        run_session [ `Frame (submit "j1"); `Frame (submit "j2") ]
      in
      Alcotest.(check (list string))
        "only admissions ran" [ "accepted"; "accepted" ] (event_names evs);
      Alcotest.(check bool) "eof" true (reason = `Eof);
      Alcotest.(check int) "both cancelled" 2 summary.Serve.sm_cancelled;
      Alcotest.(check int) "none completed" 0 summary.Serve.sm_completed)

let framing_error_stops =
  Alcotest.test_case "a framing error ends the session as a protocol error"
    `Quick (fun () ->
      let evs, _, reason = run_session [ `Raw "not-a-length\n{}" ] in
      Alcotest.(check (list string)) "one error" [ "error" ] (event_names evs);
      Alcotest.(check bool) "protocol error" true (reason = `Protocol_error);
      (* truncation inside a frame is detected, not silently clipped *)
      let _, _, reason2 = run_session [ `Raw "100\n{\"cut" ] in
      Alcotest.(check bool) "truncation too" true (reason2 = `Protocol_error))

(* --- determinism across pool widths ------------------------------------- *)

(* the serve acceptance headline at unit scale: the same script produces
   a byte-identical event stream whatever [sv_jobs] is, because batches
   start at explicit drain points and results keep submission order *)
let jobs_width_invariance =
  Alcotest.test_case "event stream is byte-identical at jobs=1 and jobs=2"
    `Quick (fun () ->
      let script =
        [
          `Frame (submit ~client:"a" "a1");
          `Frame (submit ~client:"b" "b1");
          `Frame (submit ~client:"a" "a2");
          `Frame (simple `Drain);
          `Frame (simple `Shutdown);
        ]
      in
      let stream jobs =
        let cfg = { Serve.default_config with Serve.sv_jobs = Some jobs } in
        let evs, _, _ = run_session ~cfg script in
        String.concat "\n" (List.map Json.to_string evs)
      in
      Alcotest.(check string) "identical" (stream 1) (stream 2))

let tests =
  [
    ( "serve",
      [
        submit_drain_result;
        shutdown_drains;
        stats_event;
        cancel_queued;
        timeout_expired_at_drain;
        duplicate_id_rejected;
        overflow_rejected;
        malformed_request_continues;
        bad_job_payload;
        host_path_refused;
        disconnect_cancels_queue;
        framing_error_stops;
        jobs_width_invariance;
      ] );
  ]
