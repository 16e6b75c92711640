module Bitvec = Hlcs_logic.Bitvec
module Kernel = Hlcs_engine.Kernel
module Signal = Hlcs_engine.Signal
module Clock = Hlcs_engine.Clock
open Ir

type engine = [ `Levelized | `Compiled ]

type impl =
  | Level of Compile.t
  | Gen of Codegen_registry.inst * Codegen.provenance
      (** Dynlink-loaded generated code (see {!Codegen}), with where the
          artefact came from (memo / disk cache / compiled now) *)

type t = {
  st_design : design;
  st_inputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  st_outputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  st_reg_by_name : (string, reg) Hashtbl.t;
  st_impl : impl;
  st_fallback : string option;
      (** set when [`Compiled] was requested but codegen was unavailable
          and the run degraded to [`Levelized] *)
  st_drives : (Bitvec.t Signal.t * (unit -> Bitvec.t)) array;
  mutable st_cycles : int;
}

let drive_outputs t = Array.iter (fun (s, f) -> Signal.write s (f ())) t.st_drives

(* settle on pre-edge inputs and registers, compute and commit every
   register update, then re-settle for the post-edge outputs; each settle
   re-evaluates only the transitive fanout of what actually changed *)
let step t =
  (match t.st_impl with
  | Level c ->
      Compile.settle c;
      if Compile.step_registers c then Compile.settle c
  | Gen (g, _) ->
      g.Codegen_registry.cg_settle ();
      if g.Codegen_registry.cg_step_registers () then g.Codegen_registry.cg_settle ());
  drive_outputs t;
  t.st_cycles <- t.st_cycles + 1

let elaborate kernel ~clock ?(engine = `Levelized) design =
  (* [Compile.compile] and [Codegen.instance] validate the design (once per
     design, so a cached design is not re-checked).  A [`Compiled] request
     degrades to [`Levelized] (recording why) when code generation is
     unavailable: same results, interpreted. *)
  let impl, st_fallback =
    match engine with
    | `Levelized -> (Level (Compile.compile design), None)
    | `Compiled -> (
        match Codegen.instance design with
        | Ok (inst, prov) -> (Gen (inst, prov), None)
        | Error reason -> (Level (Compile.compile design), Some reason))
  in
  let st_inputs = Hashtbl.create 16 in
  let st_outputs = Hashtbl.create 16 in
  let st_reg_by_name = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace st_reg_by_name r.r_name r) design.rd_regs;
  List.iter
    (fun (name, width) ->
      Hashtbl.replace st_inputs name
        (Signal.create kernel
           ~name:(design.rd_name ^ "." ^ name)
           ~eq:Bitvec.equal (Bitvec.zero width)))
    design.rd_inputs;
  List.iter
    (fun (name, width) ->
      Hashtbl.replace st_outputs name
        (Signal.create kernel
           ~name:(design.rd_name ^ "." ^ name)
           ~eq:Bitvec.equal (Bitvec.zero width)))
    design.rd_outputs;
  (* commit tracers fire only on actual value changes, so each one feeds
     the changed value straight into the engine, which queues exactly its
     fanout *)
  List.iteri
    (fun i (name, _) ->
      Signal.on_commit (Hashtbl.find st_inputs name)
        (match impl with
        | Level c -> fun _ v -> Compile.set_input c i v
        | Gen (g, _) -> fun _ v -> g.Codegen_registry.cg_set_input i v))
    design.rd_inputs;
  let drive_fns =
    match impl with Level c -> Compile.drives c | Gen (g, _) -> g.Codegen_registry.cg_drives
  in
  let t =
    {
      st_design = design;
      st_inputs;
      st_outputs;
      st_reg_by_name;
      st_impl = impl;
      st_fallback;
      st_drives =
        Array.map (fun (name, f) -> (Hashtbl.find st_outputs name, f)) drive_fns;
      st_cycles = 0;
    }
  in
  (* A method process sensitive to the clock edge: activations re-invoke a
     preallocated step instead of resuming a coroutine.  The first
     activation presents the reset-state outputs before any edge. *)
  let started = ref false in
  ignore
    (Kernel.spawn_method kernel
       ~name:(design.rd_name ^ ".rtl")
       ~sensitive:[ Clock.rising clock ]
       (fun () ->
         if !started then step t
         else begin
           started := true;
           (match t.st_impl with
           | Level c -> Compile.full_settle c
           | Gen (g, _) -> g.Codegen_registry.cg_full_settle ());
           drive_outputs t
         end));
  t

let in_port t name = Hashtbl.find t.st_inputs name
let out_port t name = Hashtbl.find t.st_outputs name

let reg_value t name =
  let r = Hashtbl.find t.st_reg_by_name name in
  match t.st_impl with
  | Level c -> Compile.reg_value c r
  | Gen (g, _) -> g.Codegen_registry.cg_reg_value r.r_id

let reg_names t = List.map (fun r -> r.r_name) t.st_design.rd_regs
let cycles t = t.st_cycles

let engine_used t : engine =
  match t.st_impl with Level _ -> `Levelized | Gen _ -> `Compiled

let fallback_reason t = t.st_fallback

let counters t =
  (* [rtl_engine] is the per-engine tag: 1 = levelized interpreter,
     2 = compiled generated code *)
  match t.st_impl with
  | Gen (g, prov) ->
      ("rtl_engine", 2)
      :: g.Codegen_registry.cg_counters ()
      @ [
          ( "codegen_cache_hit",
            match prov with Codegen.Memo | Codegen.Disk -> 1 | Codegen.Built -> 0 );
          ("codegen_compiled", match prov with Codegen.Built -> 1 | _ -> 0);
        ]
  | Level c -> ("rtl_engine", 1) :: Compile.counters c
