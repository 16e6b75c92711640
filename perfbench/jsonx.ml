(* Result files are [Hlcs_json.Json.t] values.  The library printer
   renders floats with six significant digits, which would quantise the
   measurements, so this printer differs from [Json.to_string] only in
   writing every float with the fewest digits that read back exactly. *)

module Json = Hlcs_json.Json

let number f =
  if not (Float.is_finite f) then "null"
  else
    let exact d =
      let s = Printf.sprintf "%.*g" d f in
      if float_of_string s = f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let rec to_string = function
  | Json.Float f -> number f
  | Json.List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Json.Obj members ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Json.escape_string k ^ ": " ^ to_string v) members)
      ^ "}"
  | v -> Json.to_string v

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
      match Json.parse s with
      | Ok j -> Ok j
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let path j keys =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
