module Bitvec = Hlcs_logic.Bitvec
module Kernel = Hlcs_engine.Kernel
module Signal = Hlcs_engine.Signal
module Clock = Hlcs_engine.Clock
open Ir

type t = {
  st_design : design;
  st_inputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  st_outputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  st_reg_by_name : (string, reg) Hashtbl.t;
  st_impl : Compile.t;
  st_drives : (Bitvec.t Signal.t * (unit -> Bitvec.t)) array;
  mutable st_cycles : int;
}

let drive_outputs t = Array.iter (fun (s, f) -> Signal.write s (f ())) t.st_drives

(* settle on pre-edge inputs and registers, compute and commit every
   register update, then re-settle for the post-edge outputs; each settle
   re-evaluates only the transitive fanout of what actually changed *)
let step t =
  let c = t.st_impl in
  Compile.settle c;
  if Compile.step_registers c then Compile.settle c;
  drive_outputs t;
  t.st_cycles <- t.st_cycles + 1

let elaborate kernel ~clock design =
  (* [Compile.compile] validates the design (once per design, so a cached
     design is not re-checked) *)
  let impl = Compile.compile design in
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
      Signal.on_commit (Hashtbl.find st_inputs name) (fun _ v -> Compile.set_input impl i v))
    design.rd_inputs;
  let t =
    {
      st_design = design;
      st_inputs;
      st_outputs;
      st_reg_by_name;
      st_impl = impl;
      st_drives =
        Array.map (fun (name, f) -> (Hashtbl.find st_outputs name, f)) (Compile.drives impl);
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
           Compile.full_settle impl;
           drive_outputs t
         end));
  t

let in_port t name = Hashtbl.find t.st_inputs name
let out_port t name = Hashtbl.find t.st_outputs name
let reg_value t name = Compile.reg_value t.st_impl (Hashtbl.find t.st_reg_by_name name)
let reg_names t = List.map (fun r -> r.r_name) t.st_design.rd_regs
let cycles t = t.st_cycles
let counters t = Compile.counters t.st_impl
