(** Wire framing and request grammar of the serve protocol.

    Frames are length-prefixed: the decimal byte length of the payload,
    one ['\n'], then exactly that many payload bytes.  The payload is a
    single-line JSON object.  Length-prefixing (rather than
    newline-delimiting) keeps the framing payload-agnostic and makes
    truncation detectable: a short read is a framing error, not a
    silently clipped request.

    Requests (client to server) carry a [request] discriminator:
    {v
      {"schema_version": 1, "request": "submit", "id": "j1",
       "job": { ... Job codec ... }, "client": "lane-a", "timeout_ms": 5000}
      {"schema_version": 1, "request": "cancel", "id": "j1"}
      {"schema_version": 1, "request": "stats"}
      {"schema_version": 1, "request": "drain"}
      {"schema_version": 1, "request": "shutdown"}
    v}
    [client] (optional, default ["default"]) names the fairness lane;
    [timeout_ms] (optional) bounds queue wait — a job whose deadline has
    passed when its batch starts is reported as a structured timeout
    error instead of running.  Events (server to client) carry an
    [event] discriminator and the same [schema_version]; see {!Serve}. *)

val max_frame_bytes : int
(** Upper bound on a single payload (16 MiB); longer frames are framing
    errors — backpressure, never an unbounded buffer. *)

val write_frame : out_channel -> string -> unit
(** Write one frame and flush. *)

val read_frame : in_channel -> (string option, string) result
(** [Ok None] on clean EOF at a frame boundary; [Error] on malformed
    length lines, oversized frames, or EOF inside a frame.  At most 64
    bytes are read for a length line (room for any length up to
    {!max_frame_bytes} and the blanks around it); a longer line is an
    [Error] that quotes only its first 16 bytes. *)

type request =
  | Submit of {
      id : string;
      client : string;
      job : Hlcs_json.Json.t;  (** decoded by the {!Hlcs.Job} codec *)
      timeout_ms : int option;
    }
  | Cancel of string
  | Stats
  | Drain
  | Shutdown

val request_of_string : string -> (request, string) result
(** Parse one payload.  Unknown discriminators, missing fields and
    version mismatches are structured [Error]s (the daemon answers them
    with an [error] event, it does not disconnect). *)

val submit_to_string :
  id:string -> ?client:string -> ?timeout_ms:int -> Hlcs_json.Json.t -> string
(** Render a [submit] payload — the client side of {!request_of_string}. *)

val simple_request_to_string : [ `Cancel of string | `Stats | `Drain | `Shutdown ] -> string
