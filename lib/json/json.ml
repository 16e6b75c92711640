type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else
        (* the shortest of 15/16/17 significant digits that reads back as
           the same float: 17 always does *)
        let at p = Printf.sprintf "%.*g" p f in
        let s15 = at 15 in
        if float_of_string s15 = f then s15
        else
          let s16 = at 16 in
          if float_of_string s16 = f then s16 else at 17
  | String s -> escape_string s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj members ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> escape_string k ^ ": " ^ to_string v)
             members)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Err of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Err (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word = String.iter expect word in
  let string_ () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              advance ();
              Buffer.add_char buf '"';
              go ()
          | Some '\\' ->
              advance ();
              Buffer.add_char buf '\\';
              go ()
          | Some '/' ->
              advance ();
              Buffer.add_char buf '/';
              go ()
          | Some 'b' ->
              advance ();
              Buffer.add_char buf '\b';
              go ()
          | Some 'f' ->
              advance ();
              Buffer.add_char buf '\012';
              go ()
          | Some 'n' ->
              advance ();
              Buffer.add_char buf '\n';
              go ()
          | Some 'r' ->
              advance ();
              Buffer.add_char buf '\r';
              go ()
          | Some 't' ->
              advance ();
              Buffer.add_char buf '\t';
              go ()
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' as c) ->
                    code := (!code * 16) + (Char.code c - Char.code '0')
                | Some ('a' .. 'f' as c) ->
                    code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
                | Some ('A' .. 'F' as c) ->
                    code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              (* UTF-8 encode the code point (surrogates passed through
                 as-is at the unit level — artefacts are ASCII in practice) *)
              let cp = !code in
              if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
              else if cp < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_ () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> String (string_ ())
    | Some 't' ->
        literal "true";
        Bool true
    | Some 'f' ->
        literal "false";
        Bool false
    | Some 'n' ->
        literal "null";
        Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a JSON value"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Err (msg, p) -> Error (Printf.sprintf "%s (at byte %d)" msg p)

let parse_exn s =
  match parse s with Ok v -> v | Error e -> failwith ("Json.parse: " ^ e)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let to_int = function
  | Int i -> Ok i
  | Float f when Float.is_integer f -> Ok (int_of_float f)
  | j -> Error (Printf.sprintf "expected an integer, got %s" (to_string j))

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | j -> Error (Printf.sprintf "expected a number, got %s" (to_string j))

let to_string_val = function
  | String s -> Ok s
  | j -> Error (Printf.sprintf "expected a string, got %s" (to_string j))

let to_bool = function
  | Bool b -> Ok b
  | j -> Error (Printf.sprintf "expected a boolean, got %s" (to_string j))

let field name conv j =
  match member name j with
  | None -> Error (Printf.sprintf "missing member %S" name)
  | Some v -> (
      match conv v with
      | Ok x -> Ok x
      | Error e -> Error (Printf.sprintf "member %S: %s" name e))

let string_field name j = field name to_string_val j
let int_field name j = field name to_int j
let bool_field name j = field name to_bool j
let float_field name j = field name to_float j

let list_field name j =
  field name
    (function
      | List l -> Ok l
      | v -> Error (Printf.sprintf "expected an array, got %s" (to_string v)))
    j

let opt_field name j dec =
  match member name j with
  | None | Some Null -> Ok None
  | Some v -> (
      match dec v with
      | Ok x -> Ok (Some x)
      | Error e -> Error (Printf.sprintf "member %S: %s" name e))
