(* The simulated-statistics fingerprint of a workload: totals of what the
   simulations did (cycles, delta cycles, bus transactions, read-backs,
   coverage bins) over the operations every run of a seed performs, plus
   a digest of the per-operation figures in order.  A change that only
   makes the simulator faster must leave it identical. *)

module System = Hlcs_interface.System
module Json = Hlcs_json.Json

type t = { totals : (string, int) Hashtbl.t; mutable order : string list; log : Buffer.t }

let create () = { totals = Hashtbl.create 8; order = []; log = Buffer.create 256 }

let add t name v =
  (match Hashtbl.find_opt t.totals name with
  | None ->
      t.order <- t.order @ [ name ];
      Hashtbl.replace t.totals name v
  | Some old -> Hashtbl.replace t.totals name (old + v));
  Buffer.add_string t.log (Printf.sprintf "%s=%d;" name v)

let add_reports t (reports : System.run_report list) =
  List.iter
    (fun (rr : System.run_report) ->
      add t "cycles" rr.System.rr_cycles;
      add t "deltas" rr.System.rr_deltas;
      add t "transactions" (List.length rr.System.rr_transactions);
      add t "read_backs" (List.length rr.System.rr_observed))
    reports

(* a deterministic rendering of an operation's result, digested only *)
let add_text t s = Buffer.add_string t.log (Digest.to_hex (Digest.string s))

let digest t = Digest.to_hex (Digest.string (Buffer.contents t.log))

let to_json t =
  Json.Obj
    (List.map (fun k -> (k, Json.Int (Hashtbl.find t.totals k))) t.order
    @ [ ("digest", Json.String (digest t)) ])
