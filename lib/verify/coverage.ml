module Json = Hlcs_json.Json

type point = {
  pt_name : string;
  pt_bins : (string, int ref) Hashtbl.t;  (* declared bins *)
  pt_unexpected : (string, int ref) Hashtbl.t;
}

type t = { mutable pts : point list }

let create () = { pts = [] }

let point t ~name ~bins =
  if bins = [] then invalid_arg "Coverage.point: no bins";
  if List.exists (fun p -> p.pt_name = name) t.pts then
    invalid_arg (Printf.sprintf "Coverage.point: duplicate point %S" name);
  let pt_bins = Hashtbl.create (List.length bins) in
  List.iter
    (fun b ->
      if Hashtbl.mem pt_bins b then
        invalid_arg (Printf.sprintf "Coverage.point: duplicate bin %S" b);
      Hashtbl.replace pt_bins b (ref 0))
    bins;
  let p = { pt_name = name; pt_bins; pt_unexpected = Hashtbl.create 4 } in
  t.pts <- t.pts @ [ p ];
  p

let hit p bin =
  match Hashtbl.find_opt p.pt_bins bin with
  | Some cell -> incr cell
  | None -> (
      match Hashtbl.find_opt p.pt_unexpected bin with
      | Some cell -> incr cell
      | None -> Hashtbl.replace p.pt_unexpected bin (ref 1))

let bin_count p bin =
  match Hashtbl.find_opt p.pt_bins bin with
  | Some cell -> !cell
  | None -> ( match Hashtbl.find_opt p.pt_unexpected bin with Some c -> !c | None -> 0)

let points t = List.map (fun p -> p.pt_name) t.pts

let sorted_bins h =
  Hashtbl.fold (fun b c acc -> (b, !c) :: acc) h [] |> List.sort compare

let holes t =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun (b, c) -> if c = 0 then Some (p.pt_name, b) else None)
        (sorted_bins p.pt_bins))
    t.pts

let unexpected t =
  List.concat_map
    (fun p -> List.map (fun (b, c) -> (p.pt_name, b, c)) (sorted_bins p.pt_unexpected))
    t.pts

let ratio t =
  let total = ref 0 and hit = ref 0 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun _ c ->
          incr total;
          if !c > 0 then incr hit)
        p.pt_bins)
    t.pts;
  if !total = 0 then 1.0 else float_of_int !hit /. float_of_int !total

let report t = List.map (fun p -> (p.pt_name, sorted_bins p.pt_bins)) t.pts

let hit_bins t =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun (b, c) -> if c > 0 then Some (p.pt_name, b) else None)
        (sorted_bins p.pt_bins @ sorted_bins p.pt_unexpected))
    t.pts

(* Merge [src] into [dst].  The declared shape of a point is the union of
   both sides' declarations: a bin that either model declared is declared in
   the result.  An unexpected hit on one side folds into the declared count
   when the other side declares that bin (the models disagreed about the
   shape; the union resolves it); hits undeclared on both sides stay
   unexpected, so a modelling gap survives any number of merges. *)
let merge dst src =
  let add h b n =
    if n > 0 then
      match Hashtbl.find_opt h b with
      | Some cell -> cell := !cell + n
      | None -> Hashtbl.replace h b (ref n)
  in
  let declare h b = if not (Hashtbl.mem h b) then Hashtbl.replace h b (ref 0) in
  List.iter
    (fun sp ->
      let dp =
        match List.find_opt (fun p -> p.pt_name = sp.pt_name) dst.pts with
        | Some dp -> dp
        | None ->
            let dp =
              {
                pt_name = sp.pt_name;
                pt_bins = Hashtbl.create (Hashtbl.length sp.pt_bins);
                pt_unexpected = Hashtbl.create 4;
              }
            in
            dst.pts <- dst.pts @ [ dp ];
            dp
      in
      Hashtbl.iter
        (fun b c ->
          declare dp.pt_bins b;
          add dp.pt_bins b !c)
        sp.pt_bins;
      Hashtbl.iter
        (fun b c ->
          if Hashtbl.mem dp.pt_bins b then add dp.pt_bins b !c
          else add dp.pt_unexpected b !c)
        sp.pt_unexpected;
      (* the destination may have filed hits as unexpected before the source
         taught it the bin is declared *)
      Hashtbl.iter
        (fun b c ->
          match Hashtbl.find_opt dp.pt_unexpected b with
          | Some u when Hashtbl.mem sp.pt_bins b ->
              c := !c + !u;
              Hashtbl.remove dp.pt_unexpected b
          | _ -> ())
        dp.pt_bins)
    src.pts

let to_json t =
  let bins h =
    sorted_bins h
    |> List.map (fun (b, c) -> Printf.sprintf "{\"bin\": %s, \"hits\": %d}" (Json.escape_string b) c)
    |> String.concat ", "
  in
  let pts =
    List.map
      (fun p ->
        Printf.sprintf
          "{\"point\": %s, \"bins\": [%s], \"unexpected\": [%s]}"
          (Json.escape_string p.pt_name) (bins p.pt_bins) (bins p.pt_unexpected))
      t.pts
  in
  Printf.sprintf "{\"ratio\": %.4f, \"points\": [%s]}" (ratio t) (String.concat ", " pts)

let pp ppf t =
  Format.fprintf ppf "@[<v>coverage %.1f%%@," (100.0 *. ratio t);
  List.iter
    (fun (name, bins) ->
      Format.fprintf ppf "  %s:@," name;
      List.iter (fun (b, c) -> Format.fprintf ppf "    %-16s %d@," b c) bins)
    (report t);
  List.iter
    (fun (p, b, c) -> Format.fprintf ppf "  UNEXPECTED %s/%s hit %d times@," p b c)
    (unexpected t);
  Format.fprintf ppf "@]"
