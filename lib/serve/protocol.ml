module Json = Hlcs_json.Json

let schema_version = 1
let max_frame_bytes = 16 * 1024 * 1024

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

(* Room for any length up to [max_frame_bytes] and the blanks
   [String.trim] strips around it: a peer that never sends the newline
   costs this many bytes, not an unbounded line buffer. *)
let max_length_line = 64

(* the length line without its newline, [Error prefix] past the bound;
   like [input_line], a last line cut by EOF is returned as it is *)
let input_length_line ic =
  let buf = Buffer.create 16 in
  let rec go () =
    match input_char ic with
    | '\n' -> Ok (Buffer.contents buf)
    | c when Buffer.length buf < max_length_line ->
        Buffer.add_char buf c;
        go ()
    | _ -> Error (Buffer.sub buf 0 16)
    | exception End_of_file when Buffer.length buf > 0 -> Ok (Buffer.contents buf)
  in
  go ()

(* a peer that vanishes mid-read (ECONNRESET surfaces as Sys_error on a
   socket channel) is a disconnect, not a daemon error: same as EOF *)
let read_frame ic =
  match input_length_line ic with
  | exception End_of_file -> Ok None
  | exception Sys_error _ -> Ok None
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Ok None
  | Error prefix ->
      Error
        (Printf.sprintf "frame length line longer than %d bytes (starts %S)"
           max_length_line prefix)
  | Ok line -> (
      match int_of_string_opt (String.trim line) with
      | None -> Error (Printf.sprintf "malformed frame length %S" line)
      | Some n when n < 0 -> Error (Printf.sprintf "negative frame length %d" n)
      | Some n when n > max_frame_bytes ->
          Error
            (Printf.sprintf "frame of %d bytes exceeds the %d-byte bound" n
               max_frame_bytes)
      | Some n -> (
          match really_input_string ic n with
          | payload -> Ok (Some payload)
          | exception End_of_file ->
              Error (Printf.sprintf "eof inside a %d-byte frame" n)
          | exception Sys_error _ ->
              Error (Printf.sprintf "eof inside a %d-byte frame" n)))

type request =
  | Submit of {
      id : string;
      client : string;
      job : Json.t;
      timeout_ms : int option;
    }
  | Cancel of string
  | Stats
  | Drain
  | Shutdown

let ( let* ) = Result.bind

let request_of_string s =
  match Json.parse s with
  | Error e -> Error ("request: " ^ e)
  | Ok j -> (
      let* v = Json.int_field "schema_version" j in
      if v <> schema_version then
        Error
          (Printf.sprintf "unsupported schema_version %d (this daemon speaks %d)"
             v schema_version)
      else
        let* req = Json.string_field "request" j in
        match req with
        | "submit" ->
            let* id = Json.string_field "id" j in
            let* client =
              match Json.member "client" j with
              | None | Some Json.Null -> Ok "default"
              | Some c -> Json.to_string_val c
            in
            let* job =
              match Json.member "job" j with
              | None -> Error "missing member \"job\""
              | Some job -> Ok job
            in
            let* timeout_ms = Json.opt_field "timeout_ms" j Json.to_int in
            Ok (Submit { id; client; job; timeout_ms })
        | "cancel" ->
            let* id = Json.string_field "id" j in
            Ok (Cancel id)
        | "stats" -> Ok Stats
        | "drain" -> Ok Drain
        | "shutdown" -> Ok Shutdown
        | other -> Error (Printf.sprintf "unknown request %S" other))

let submit_to_string ~id ?client ?timeout_ms job =
  Json.to_string
    (Json.Obj
       ([
          ("schema_version", Json.Int schema_version);
          ("request", Json.String "submit");
          ("id", Json.String id);
        ]
       @ (match client with
         | None -> []
         | Some c -> [ ("client", Json.String c) ])
       @ (match timeout_ms with
         | None -> []
         | Some t -> [ ("timeout_ms", Json.Int t) ])
       @ [ ("job", job) ]))

let simple_request_to_string req =
  let base = [ ("schema_version", Json.Int schema_version) ] in
  Json.to_string
    (Json.Obj
       (match req with
       | `Cancel id ->
           base @ [ ("request", Json.String "cancel"); ("id", Json.String id) ]
       | `Stats -> base @ [ ("request", Json.String "stats") ]
       | `Drain -> base @ [ ("request", Json.String "drain") ]
       | `Shutdown -> base @ [ ("request", Json.String "shutdown") ]))
