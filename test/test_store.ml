(* The content-addressed store under the synthesis cache: the promise
   table builds a key once and replays a failure, blobs round-trip,
   corrupt entries are deleted, foreign fingerprints are pruned on open,
   failed writes leave nothing behind and an unusable directory opens as
   [None]. *)

module Store = Hlcs_store.Store

let with_dir = Test_runtime.with_cache_dir
let write_file = Test_runtime.write_file
let listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

let fpr = "cafe0123"

let open_store dir =
  match Store.open_dir ~prefix:"t_" ~fingerprint:fpr dir with
  | Some s -> s
  | None -> Alcotest.fail ("cannot open " ^ dir)

let provenance =
  Alcotest.testable
    (fun ppf p ->
      Format.pp_print_string ppf
        (match p with Store.Memo -> "memo" | Store.Disk -> "disk" | Store.Built -> "built"))
    ( = )

let counts tb =
  let c = Store.counts tb in
  (c.Store.memo, c.Store.disk, c.Store.built)

let check_build_once () =
  let tb = Store.table () in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    (* keep the key in flight while the other domains arrive *)
    Unix.sleepf 0.05;
    42
  in
  let answers =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Store.get tb "k" build))
    |> List.map Domain.join
  in
  Alcotest.(check int) "one build" 1 (Atomic.get builds);
  Alcotest.(check (list int)) "every caller gets the value" [ 42; 42; 42; 42 ]
    (List.map fst answers);
  Alcotest.(check (list provenance)) "the others see Memo"
    [ Store.Memo; Store.Memo; Store.Memo; Store.Built ]
    (List.sort compare (List.map snd answers));
  Alcotest.(check (triple int int int)) "counts" (3, 0, 1) (counts tb);
  Alcotest.(check int) "one key" 1 (Store.length tb)

let check_failure_replayed () =
  with_dir (fun dir ->
      let tb = Store.table ~disk:(open_store dir) () in
      let builds = ref 0 in
      let attempt () =
        match
          Store.get tb "k" (fun () ->
              incr builds;
              failwith "not synthesisable")
        with
        | _ -> Alcotest.fail "a raising build answered"
        | exception Failure m -> m
      in
      Alcotest.(check string) "first caller" "not synthesisable" (attempt ());
      Alcotest.(check string) "replayed" "not synthesisable" (attempt ());
      Alcotest.(check int) "one build" 1 !builds;
      Alcotest.(check (triple int int int)) "counts" (1, 0, 1) (counts tb);
      Alcotest.(check (list string)) "failures stay off the disk" [] (listing dir))

let check_blob_round_trip () =
  with_dir (fun dir ->
      let s = open_store dir in
      Store.write_blob s "k" [ "a"; "b" ];
      Alcotest.(check (list string)) "one entry" [ "t_k-" ^ fpr ^ ".bin" ] (listing dir);
      Alcotest.(check (option (list string))) "read back" (Some [ "a"; "b" ])
        (Store.read_blob s "k");
      Alcotest.(check (option (list string))) "absent" None (Store.read_blob s "j");
      (* a table on a reopened store answers from the disk *)
      let tb = Store.table ~disk:(open_store dir) () in
      Alcotest.(check (pair (list string) provenance)) "disk answer"
        ([ "a"; "b" ], Store.Disk)
        (Store.get tb "k" (fun () -> Alcotest.fail "rebuilt a persisted value")))

let check_corrupt_deleted () =
  with_dir (fun dir ->
      let s = open_store dir in
      Store.write_blob s "k" 7;
      let p = Store.path s "k" in
      let b = Bytes.of_string (Test_runtime.read_file p) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      write_file p (Bytes.to_string b);
      Alcotest.(check (option int)) "flipped byte: missing" None (Store.read_blob s "k");
      Alcotest.(check bool) "flipped byte: deleted" false (Sys.file_exists p);
      write_file p "HLCS";
      Alcotest.(check (option int)) "truncated: missing" None (Store.read_blob s "k");
      Alcotest.(check bool) "truncated: deleted" false (Sys.file_exists p))

let check_failed_write () =
  with_dir (fun dir ->
      let s = open_store dir in
      (* a closure cannot be marshalled: the write raises after staging *)
      Store.write_blob s "j" (fun x -> x + 1);
      Alcotest.(check (list string)) "nothing left behind" [] (listing dir))

let check_pruned_on_open () =
  with_dir (fun dir ->
      List.iter
        (fun f -> write_file (Filename.concat dir f) "")
        [ "t_k-00000000.bin"; "t_j-" ^ fpr ^ ".bin"; "u_k-00000000.bin"; "t_k-00000000.tmp" ];
      ignore (open_store dir);
      Alcotest.(check (list string)) "only the foreign fingerprint of the family goes"
        [ "t_j-" ^ fpr ^ ".bin"; "t_k-00000000.tmp"; "u_k-00000000.bin" ]
        (listing dir))

let check_unusable_dir () =
  Alcotest.(check bool) "opens as None" true
    (Store.open_dir ~prefix:"t_" ~fingerprint:fpr "/dev/null/x" = None)

let check_default_dir () =
  let old = Sys.getenv_opt "HLCS_TEST_STORE" in
  Unix.putenv "HLCS_TEST_STORE" "/some/dir";
  let from_env = Store.default_dir ~env_var:"HLCS_TEST_STORE" "x" in
  Unix.putenv "HLCS_TEST_STORE" "";
  let fallback = Store.default_dir ~env_var:"HLCS_TEST_STORE" "x" in
  Unix.putenv "HLCS_TEST_STORE" (Option.value ~default:"" old);
  Alcotest.(check string) "the variable wins" "/some/dir" from_env;
  Alcotest.(check bool) "an empty variable falls back to an hlcs cache dir" true
    (String.ends_with ~suffix:"hlcs/x" fallback || String.ends_with ~suffix:"hlcs-x" fallback)

let tests =
  [
    ( "store",
      [
        Alcotest.test_case "4 domains, one key: one build" `Quick check_build_once;
        Alcotest.test_case "a raising build is replayed" `Quick check_failure_replayed;
        Alcotest.test_case "blob write then read" `Quick check_blob_round_trip;
        Alcotest.test_case "corrupt entries deleted and missing" `Quick
          check_corrupt_deleted;
        Alcotest.test_case "failed writes leave nothing behind" `Quick
          check_failed_write;
        Alcotest.test_case "foreign fingerprints pruned on open" `Quick
          check_pruned_on_open;
        Alcotest.test_case "unusable directory opens as None" `Quick
          check_unusable_dir;
        Alcotest.test_case "directory resolution" `Quick check_default_dir;
      ] );
  ]
