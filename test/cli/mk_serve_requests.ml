(* Emits a framed serve-protocol request script on stdout — the client
   half of the @serve contract rules.  Each scenario is a fixed request
   sequence the daemon's stdio session replays deterministically:

   - [flow]      the fig3 flow job (CLI defaults, deterministic render),
                 drained and shut down: the acceptance transcript that
                 must match `hlcs_cli flow` byte for byte modulo timing;
   - [cache]     the same job followed by a stats probe — run twice
                 against one $HLCS_SYNTH_CACHE directory, the second
                 process must prove the disk tier (disk_hits > 0);
   - [units]     the fig3 flow job with a different stimulus seed — a
                 one-process edit of the design (only the generated app
                 process body changes) — run against the cache directory
                 a [cache] daemon populated: the warm process must prove
                 the fragment tier (units reused, one unit rebuilt);
   - [malformed] a parade of bad requests (unparsable, unknown verb,
                 foreign schema version, undecodable job) that must all
                 answer with structured error events, then still serve;
   - [overflow]  three submissions against `--capacity 2`: the third
                 must bounce with a structured rejection, the queued two
                 must still run;
   - [hostile]   a flow job naming a waveform path and a job with a
                 negative request count: both refused as bad jobs before
                 they queue, nothing written, and the session still
                 serves. *)

module Protocol = Hlcs_serve.Protocol
module Job = Hlcs.Job
module Json = Hlcs_json.Json

let w p = Protocol.write_frame stdout p
let job j = Result.get_ok (Json.parse (Job.to_json j))
let simple r = Protocol.simple_request_to_string r

(* exactly `hlcs_cli flow --deterministic`: the CLI defaults *)
let flow_job = { Job.default with Job.j_deterministic = true }

(* a cheap deterministic job for the queue-mechanics scenarios *)
let tlm_job =
  {
    Job.default with
    Job.j_kind = Job.Profile `Tlm;
    j_count = 2;
    j_deterministic = true;
  }

let () =
  set_binary_mode_out stdout true;
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "flow" ->
      w (Protocol.submit_to_string ~id:"fig3" (job flow_job));
      w (simple `Drain);
      w (simple `Shutdown)
  | "cache" ->
      w (Protocol.submit_to_string ~id:"fig3" (job flow_job));
      w (simple `Drain);
      w (simple `Stats);
      w (simple `Shutdown)
  | "units" ->
      (* a different stimulus seed regenerates the app process body and
         nothing else: the canonical one-unit edit of the fig3 design *)
      w
        (Protocol.submit_to_string ~id:"fig3-edited"
           (job { flow_job with Job.j_seed = 2005 }));
      w (simple `Drain);
      w (simple `Stats);
      w (simple `Shutdown)
  | "malformed" ->
      w "this is not json";
      w "{\"schema_version\": 1, \"request\": \"teleport\"}";
      w "{\"schema_version\": 99, \"request\": \"stats\"}";
      w (Protocol.submit_to_string ~id:"bad" (Json.Obj [ ("x", Json.Int 1) ]));
      w (simple `Stats);
      w (simple `Shutdown)
  | "overflow" ->
      w (Protocol.submit_to_string ~id:"j1" ~client:"a" (job tlm_job));
      w (Protocol.submit_to_string ~id:"j2" ~client:"b" (job tlm_job));
      w (Protocol.submit_to_string ~id:"j3" ~client:"a" (job tlm_job));
      w (simple `Drain);
      w (simple `Shutdown)
  | "hostile" ->
      w
        (Protocol.submit_to_string ~id:"owned"
           (job
              {
                flow_job with
                Job.j_config =
                  Hlcs.Run_config.with_vcd_prefix "owned" flow_job.Job.j_config;
              }));
      w (Protocol.submit_to_string ~id:"negative" (job { tlm_job with Job.j_count = -1 }));
      w (simple `Drain);
      w (simple `Stats);
      w (simple `Shutdown)
  | other ->
      Printf.eprintf
        "unknown scenario %S (flow|cache|units|malformed|overflow|hostile)\n" other;
      exit 2);
  flush stdout
