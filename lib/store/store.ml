(* The content-addressed store; store.mli describes the scheme.  Nothing
   here raises on a filesystem failure: directories that cannot be used
   open as [None], entries that cannot be read are deleted and missing,
   and writes that fail leave nothing behind. *)

let key s = Digest.to_hex (Digest.string s)

let fingerprint parts =
  String.sub (key (String.concat "+" (Sys.ocaml_version :: parts))) 0 8

let env_dir var =
  match Sys.getenv_opt var with Some d when d <> "" -> Some d | _ -> None

let default_dir ~env_var name =
  match (env_dir env_var, env_dir "HOME") with
  | Some d, _ -> d
  | None, Some h -> List.fold_left Filename.concat h [ ".cache"; "hlcs"; name ]
  | None, None -> Filename.concat (Filename.get_temp_dir_name ()) ("hlcs-" ^ name)

(* ------------------------------------------------------------------ *)
(* Directories and entries *)

type t = { dir : string; prefix : string; fpr : string }

let ext = ".bin"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rm_f p = try Sys.remove p with Sys_error _ -> ()

let files dir = try Sys.readdir dir with Sys_error _ -> [||]

let prune t =
  let current = "-" ^ t.fpr ^ ext in
  Array.iter
    (fun f ->
      if
        String.starts_with ~prefix:t.prefix f
        && Filename.check_suffix f ext
        && not (String.ends_with ~suffix:current f)
      then rm_f (Filename.concat t.dir f))
    (files t.dir)

let open_dir ~prefix ~fingerprint dir =
  match
    mkdir_p dir;
    Sys.is_directory dir && (Sys.remove (Filename.temp_file ~temp_dir:dir ".probe" ""); true)
  with
  | true ->
      let t = { dir; prefix; fpr = fingerprint } in
      prune t;
      Some t
  | false | (exception Sys_error _) -> None

let dir t = t.dir
let path t k = Filename.concat t.dir (t.prefix ^ k ^ "-" ^ t.fpr ^ ext)

(* magic, MD5 of the payload, payload *)
let magic = "HLCSST1\n"

let read_blob t k =
  let p = path t k in
  if not (Sys.file_exists p) then None
  else
    match
      In_channel.with_open_bin p (fun ic ->
          let m = really_input_string ic (String.length magic) in
          let digest = really_input_string ic 16 in
          let payload = In_channel.input_all ic in
          if m <> magic || Digest.string payload <> digest then None
          else Some (Marshal.from_string payload 0))
    with
    | Some v -> Some v
    | None | (exception _) ->
        rm_f p;
        None

(* staged in the store's own directory, so the rename is atomic and a
   reader never sees a torn blob *)
let write_blob t k v =
  match Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:t.dir ".stage" "" with
  | exception Sys_error _ -> ()
  | stage, oc -> (
      match
        let payload = Marshal.to_string v [ Marshal.No_sharing ] in
        output_string oc magic;
        output_string oc (Digest.string payload);
        output_string oc payload;
        close_out oc;
        Sys.rename stage (path t k)
      with
      | () -> ()
      | exception _ ->
          close_out_noerr oc;
          rm_f stage)

(* ------------------------------------------------------------------ *)
(* Promise tables *)

type provenance = Memo | Disk | Built
type 'a state = Pending | Ready of 'a | Raised of exn
type counts = { memo : int; disk : int; built : int }

type 'a table = {
  lock : Mutex.t;
  published : Condition.t;
  entries : (string, 'a state) Hashtbl.t;
  store : t option;
  mutable counts : counts;
}

let table ?disk () =
  {
    lock = Mutex.create ();
    published = Condition.create ();
    entries = Hashtbl.create 16;
    store = disk;
    counts = { memo = 0; disk = 0; built = 0 };
  }

(* called holding [lock]: counts the answer, then releases the lock *)
let answer tb prov state =
  let c = tb.counts in
  tb.counts <-
    (match prov with
    | Memo -> { c with memo = c.memo + 1 }
    | Disk -> { c with disk = c.disk + 1 }
    | Built -> { c with built = c.built + 1 });
  Mutex.unlock tb.lock;
  match state with
  | Ready v -> (v, prov)
  | Raised e -> raise e
  | Pending -> assert false

let get tb k build =
  Mutex.lock tb.lock;
  let rec settled () =
    match Hashtbl.find_opt tb.entries k with
    | Some Pending ->
        Condition.wait tb.published tb.lock;
        settled ()
    | found -> found
  in
  match settled () with
  | Some state -> answer tb Memo state
  | None ->
      Hashtbl.replace tb.entries k Pending;
      Mutex.unlock tb.lock;
      let prov, state =
        match Option.bind tb.store (fun s -> read_blob s k) with
        | Some v -> (Disk, Ready v)
        | None -> (
            match build () with
            | v ->
                Option.iter (fun s -> write_blob s k v) tb.store;
                (Built, Ready v)
            | exception e -> (Built, Raised e))
      in
      Mutex.lock tb.lock;
      Hashtbl.replace tb.entries k state;
      Condition.broadcast tb.published;
      answer tb prov state

let counts tb =
  Mutex.lock tb.lock;
  let c = tb.counts in
  Mutex.unlock tb.lock;
  c

let length tb =
  Mutex.lock tb.lock;
  let n = Hashtbl.length tb.entries in
  Mutex.unlock tb.lock;
  n
