(* Host facts recorded with every result, and process peak memory. *)

module Json = Hlcs_json.Json

(* VmHWM (peak resident set) of a live process, in MiB *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) with
          | v -> v
          | exception _ -> acc)
        nan
        (String.split_on_char '\n' status)

let read_trimmed path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* HEAD's commit from the .git directory of the working directory, without
   running git; "unknown" outside a git checkout *)
let commit () =
  match read_trimmed ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let ref_name = String.sub head (i + 1) (String.length head - i - 1) in
          match read_trimmed (Filename.concat ".git" ref_name) with
          | Some c -> c
          | None -> (
              match read_trimmed ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  List.fold_left
                    (fun acc line ->
                      match String.split_on_char ' ' line with
                      | [ c; r ] when r = ref_name -> c
                      | _ -> acc)
                    "unknown"
                    (String.split_on_char '\n' packed)))
      | _ -> head)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | info ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when acc = "unknown" && String.trim (String.sub line 0 i) = "model name" ->
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> acc)
        "unknown"
        (String.split_on_char '\n' info)

let host () =
  Json.Obj
    [
      ("hostname", Json.String (Unix.gethostname ()));
      ("os", Json.String Sys.os_type);
      ("cpu", Json.String (cpu_model ()));
      ("domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]
