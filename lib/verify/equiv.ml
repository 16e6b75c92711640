module A = Hlcs_hlir.Ast
module Synthesize = Hlcs_synth.Synthesize
module Kernel = Hlcs_engine.Kernel
module Clock = Hlcs_engine.Clock
module Time = Hlcs_engine.Time
module Signal = Hlcs_engine.Signal
module Bitvec = Hlcs_logic.Bitvec

type side = {
  sd_ports : (string * Bitvec.t list) list;
  sd_objects : (string * (string * Bitvec.t) list) list;
  sd_object_arrays : (string * (string * Bitvec.t list) list) list;
  sd_sim_time : Time.t;
  sd_deltas : int;
  sd_wall_seconds : float;
}

type verdict = {
  vd_behavioural : side;
  vd_rtl : side;
  vd_synthesis : Synthesize.report;
  vd_mismatches : string list;
  vd_equivalent : bool;
}

type stimulus =
  Kernel.t -> Clock.t -> (string -> Bitvec.t Signal.t) -> unit

let no_stimulus _ _ _ = ()

let out_ports design =
  List.filter_map
    (fun (p : A.port) ->
      match p.A.pt_dir with A.Out -> Some (p.A.pt_name, p.A.pt_width) | A.In -> None)
    design.A.d_ports

(* one side of the check: the unit elaborated as [model], its output
   ports recorded as committed-change histories (reset value first), the
   objects read back when the run ends *)
let run_side design model ~stimulus ~max_time ~clock_period =
  let kernel = Kernel.create () in
  let clock = Clock.create kernel ~name:"clk" ~period:clock_period () in
  let uud = Uud.elaborate kernel ~clock model in
  let histories =
    List.map
      (fun (n, w) ->
        let h = ref [ Bitvec.zero w ] in
        Signal.on_commit (Uud.out_port uud n) (fun _ v -> h := v :: !h);
        (n, h))
      (out_ports design)
  in
  stimulus kernel clock (Uud.in_port uud);
  let t0 = Unix.gettimeofday () in
  Kernel.run ~max_time kernel;
  let wall = Unix.gettimeofday () -. t0 in
  {
    sd_ports = List.map (fun (n, h) -> (n, List.rev !h)) histories;
    sd_objects = Uud.objects uud;
    sd_object_arrays = Uud.object_arrays uud;
    sd_sim_time = Kernel.now kernel;
    sd_deltas = Kernel.delta_count kernel;
    sd_wall_seconds = wall;
  }

let history_to_string h = String.concat " " (List.map Bitvec.to_hex_string h)

let compare_sides behav rtl =
  let mismatches = ref [] in
  let add fmt = Format.kasprintf (fun s -> mismatches := s :: !mismatches) fmt in
  List.iter
    (fun (name, bh) ->
      match List.assoc_opt name rtl.sd_ports with
      | None -> add "port %s missing from the RTL run" name
      | Some rh ->
          if not (List.length bh = List.length rh && List.for_all2 Bitvec.equal bh rh)
          then
            add "port %s: behavioural [%s] vs rtl [%s]" name (history_to_string bh)
              (history_to_string rh))
    behav.sd_ports;
  List.iter
    (fun (obj, bfields) ->
      match List.assoc_opt obj rtl.sd_objects with
      | None -> add "object %s missing from the RTL run" obj
      | Some rfields ->
          List.iter
            (fun (f, bv) ->
              match List.assoc_opt f rfields with
              | None -> add "object %s: field %s missing from the RTL run" obj f
              | Some rv ->
                  if not (Bitvec.equal bv rv) then
                    add "object %s.%s: behavioural %s vs rtl %s" obj f
                      (Bitvec.to_hex_string bv) (Bitvec.to_hex_string rv))
            bfields)
    behav.sd_objects;
  List.iter
    (fun (obj, banks) ->
      match List.assoc_opt obj rtl.sd_object_arrays with
      | None -> add "object %s arrays missing from the RTL run" obj
      | Some rbanks ->
          List.iter
            (fun (a, bvals) ->
              match List.assoc_opt a rbanks with
              | None -> add "object %s: array %s missing from the RTL run" obj a
              | Some rvals ->
                  if
                    not
                      (List.length bvals = List.length rvals
                      && List.for_all2 Bitvec.equal bvals rvals)
                  then
                    add "object %s.%s[]: behavioural [%s] vs rtl [%s]" obj a
                      (history_to_string bvals) (history_to_string rvals))
            banks)
    behav.sd_object_arrays;
  List.rev !mismatches

let check ?options ?(stimulus = no_stimulus) ?(max_time = Time.us 1000)
    ?(clock_period = Time.ns 10) design =
  let report = Synthesize.synthesize ?options design in
  let run model = run_side design model ~stimulus ~max_time ~clock_period in
  let behav = run (Uud.Behavioural design) in
  let rtl = run (Uud.Rtl report) in
  let mismatches = compare_sides behav rtl in
  {
    vd_behavioural = behav;
    vd_rtl = rtl;
    vd_synthesis = report;
    vd_mismatches = mismatches;
    vd_equivalent = mismatches = [];
  }

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>equivalent: %b@," v.vd_equivalent;
  List.iter (fun m -> Format.fprintf ppf "  mismatch: %s@," m) v.vd_mismatches;
  Format.fprintf ppf "behavioural: %a (%d deltas, %.3fs)@," Time.pp
    v.vd_behavioural.sd_sim_time v.vd_behavioural.sd_deltas
    v.vd_behavioural.sd_wall_seconds;
  Format.fprintf ppf "rtl:         %a (%d deltas, %.3fs)@," Time.pp v.vd_rtl.sd_sim_time
    v.vd_rtl.sd_deltas v.vd_rtl.sd_wall_seconds;
  Format.fprintf ppf "%a@]" Synthesize.pp_report v.vd_synthesis
