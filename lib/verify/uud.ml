module A = Hlcs_hlir.Ast
module Interp = Hlcs_hlir.Interp
module Synthesize = Hlcs_synth.Synthesize
module Sim = Hlcs_rtl.Sim

type model = Behavioural of A.design | Rtl of Synthesize.report * Sim.engine

type t = Spec of Interp.t | Synthesised of Synthesize.report * Sim.t

let elaborate kernel ~clock = function
  | Behavioural design -> Spec (Interp.elaborate kernel ~clock design)
  | Rtl (report, engine) ->
      Synthesised (report, Sim.elaborate kernel ~clock ~engine report.Synthesize.rp_rtl)

let in_port = function Spec it -> Interp.in_port it | Synthesised (_, sim) -> Sim.in_port sim
let out_port = function Spec it -> Interp.out_port it | Synthesised (_, sim) -> Sim.out_port sim

(* the interpreter's view of every object, in declaration order *)
let each_object it view =
  List.map
    (fun (o : A.object_decl) -> (o.A.o_name, view it o.A.o_name))
    (Interp.design it).A.d_objects

(* the synthesised side reads the registers the report maps each object to *)
let objects = function
  | Spec it -> each_object it Interp.object_state
  | Synthesised (report, sim) ->
      List.map
        (fun (obj, fields) ->
          (obj, List.map (fun (f, reg) -> (f, Sim.reg_value sim reg)) fields))
        report.Synthesize.rp_field_regs

let object_arrays = function
  | Spec it -> each_object it Interp.object_arrays
  | Synthesised (report, sim) ->
      List.map
        (fun (obj, arrays) ->
          (obj, List.map (fun (a, regs) -> (a, List.map (Sim.reg_value sim) regs)) arrays))
        report.Synthesize.rp_array_regs

let synthesis = function Spec _ -> None | Synthesised (report, _) -> Some report
let counters = function Spec _ -> [] | Synthesised (_, sim) -> Sim.counters sim
let engine_used = function Spec _ -> None | Synthesised (_, sim) -> Some (Sim.engine_used sim)

let fallback_reason = function
  | Spec _ -> None
  | Synthesised (_, sim) -> Sim.fallback_reason sim
