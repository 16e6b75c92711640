module Bitvec = Hlcs_logic.Bitvec
module Kernel = Hlcs_engine.Kernel
module Signal = Hlcs_engine.Signal
module Clock = Hlcs_engine.Clock
open Ir

type engine = [ `Settle | `Levelized | `Compiled ]

(* The legacy whole-network evaluator: closure trees over Bitvec slots,
   every settle re-evaluates every assignment.  Kept as the differential-
   testing reference for the levelized engine. *)
type legacy = {
  l_wires : Bitvec.t array;  (** by wire id *)
  l_regs : Bitvec.t array;  (** by reg id *)
  l_next : Bitvec.t array;
  mutable l_order : (int * (unit -> Bitvec.t)) array;
      (** assigns in dependency order: wire slot, compiled rhs *)
  mutable l_updates : (int * (unit -> Bitvec.t)) array;
      (** register slot, compiled next-value expression *)
  mutable l_in_dirty : bool;
      (** set by input-signal commits; cleared by [settle].  When clear and
          no register changed, the wire array still reflects the current
          (inputs, registers) point and re-settling is a no-op. *)
  mutable l_settles : int;
}

type impl =
  | Legacy of legacy
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
  mutable st_drives : (Bitvec.t Signal.t * (unit -> Bitvec.t)) array;
  mutable st_cycles : int;
}

let shift_amount bv =
  match Bitvec.to_int_opt bv with Some n -> n | None -> max_int / 2

(* Expressions are compiled once at elaboration into closure trees: leaf
   lookups (input signals by name, wire/reg slots) are resolved here rather
   than on every evaluation — the settle loop is the simulator's hot path
   and a Hashtbl.find per input reference per delta dominates it. *)
let rec compile_legacy lg inputs e =
  match e with
  | Const bv -> fun () -> bv
  | Wire w ->
      let i = w.w_id in
      fun () -> lg.l_wires.(i)
  | Reg r ->
      let i = r.r_id in
      fun () -> lg.l_regs.(i)
  | Input (name, _) ->
      let s = Hashtbl.find inputs name in
      fun () -> Signal.read s
  | Unop (op, e) -> (
      let f = compile_legacy lg inputs e in
      match op with
      | Not -> fun () -> Bitvec.lognot (f ())
      | Neg -> fun () -> Bitvec.neg (f ())
      | Reduce_or -> fun () -> Bitvec.of_bool (Bitvec.reduce_or (f ()))
      | Reduce_and -> fun () -> Bitvec.of_bool (Bitvec.reduce_and (f ()))
      | Reduce_xor -> fun () -> Bitvec.of_bool (Bitvec.reduce_xor (f ())))
  | Binop (op, x, y) -> (
      let f = compile_legacy lg inputs x and g = compile_legacy lg inputs y in
      match op with
      | Add -> fun () -> Bitvec.add (f ()) (g ())
      | Sub -> fun () -> Bitvec.sub (f ()) (g ())
      | Mul -> fun () -> Bitvec.mul (f ()) (g ())
      | And -> fun () -> Bitvec.logand (f ()) (g ())
      | Or -> fun () -> Bitvec.logor (f ()) (g ())
      | Xor -> fun () -> Bitvec.logxor (f ()) (g ())
      | Eq -> fun () -> Bitvec.of_bool (Bitvec.equal (f ()) (g ()))
      | Ne -> fun () -> Bitvec.of_bool (not (Bitvec.equal (f ()) (g ())))
      | Lt -> fun () -> Bitvec.of_bool (Bitvec.compare_unsigned (f ()) (g ()) < 0)
      | Le -> fun () -> Bitvec.of_bool (Bitvec.compare_unsigned (f ()) (g ()) <= 0)
      | Gt -> fun () -> Bitvec.of_bool (Bitvec.compare_unsigned (f ()) (g ()) > 0)
      | Ge -> fun () -> Bitvec.of_bool (Bitvec.compare_unsigned (f ()) (g ()) >= 0)
      | Shl ->
          fun () ->
            let a = f () in
            Bitvec.shift_left a (min (Bitvec.width a) (shift_amount (g ())))
      | Shr ->
          fun () ->
            let a = f () in
            Bitvec.shift_right a (min (Bitvec.width a) (shift_amount (g ())))
      | Concat -> fun () -> Bitvec.concat (f ()) (g ()))
  | Mux (c, a, b) ->
      let fc = compile_legacy lg inputs c
      and fa = compile_legacy lg inputs a
      and fb = compile_legacy lg inputs b in
      fun () -> if Bitvec.is_zero (fc ()) then fb () else fa ()
  | Slice (e, hi, lo) ->
      let f = compile_legacy lg inputs e in
      fun () -> Bitvec.slice (f ()) ~hi ~lo

let settle_legacy lg =
  let order = lg.l_order in
  for i = 0 to Array.length order - 1 do
    let slot, f = order.(i) in
    lg.l_wires.(slot) <- f ()
  done;
  lg.l_in_dirty <- false;
  lg.l_settles <- lg.l_settles + 1

let step_legacy lg =
  (* 1. settle combinational logic on pre-edge inputs and registers — unless
     no input has committed since the last settle, in which case the wires
     are already exact for the pre-edge point *)
  if lg.l_in_dirty then settle_legacy lg;
  (* 2. compute every register's next value from pre-edge state *)
  let ups = lg.l_updates in
  for i = 0 to Array.length ups - 1 do
    let slot, f = ups.(i) in
    lg.l_next.(slot) <- f ()
  done;
  (* 3. commit; if no register actually changed, the settled wires are
     still valid and the post-edge re-settle can be skipped *)
  let changed = ref false in
  for i = 0 to Array.length ups - 1 do
    let slot, _ = ups.(i) in
    let v = lg.l_next.(slot) in
    if not (Bitvec.equal lg.l_regs.(slot) v) then begin
      lg.l_regs.(slot) <- v;
      changed := true
    end
  done;
  (* 4. re-settle for the post-edge outputs *)
  if !changed then settle_legacy lg

let drive_outputs t = Array.iter (fun (s, f) -> Signal.write s (f ())) t.st_drives

let step t =
  (match t.st_impl with
  | Legacy lg -> step_legacy lg
  | Level c ->
      (* same phase structure, but each settle re-evaluates only the
         transitive fanout of what actually changed *)
      Compile.settle c;
      if Compile.step_registers c then Compile.settle c
  | Gen (g, _) ->
      g.Codegen_registry.cg_settle ();
      if g.Codegen_registry.cg_step_registers () then g.Codegen_registry.cg_settle ());
  drive_outputs t;
  t.st_cycles <- t.st_cycles + 1

let elaborate kernel ~clock ?(engine = `Levelized) design =
  (* the levelized and compiled paths validate inside [Compile.compile]
     and [Codegen.instance] (once per design, so a cached design is not
     re-checked); the settle path needs its own pass *)
  (match engine with
  | `Levelized | `Compiled -> ()
  | `Settle -> (
      match Ir.validate design with
      | Ok () -> ()
      | Error (d :: _) -> invalid_arg ("Rtl.Sim.elaborate: " ^ d)
      | Error [] -> ()));
  (* a [`Compiled] request degrades to [`Levelized] (recording why) when
     code generation is unavailable: same results, interpreted *)
  let resolved, st_fallback =
    match engine with
    | `Compiled -> (
        match Codegen.instance design with
        | Ok (inst, prov) -> (`Gen (inst, prov), None)
        | Error reason -> (`Interp, Some reason))
    | `Levelized -> (`Interp, None)
    | `Settle -> (`Legacy, None)
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
  let impl, drive_fns =
    match resolved with
    | `Gen (inst, prov) ->
        List.iteri
          (fun i (name, _) ->
            Signal.on_commit (Hashtbl.find st_inputs name) (fun _ v ->
                inst.Codegen_registry.cg_set_input i v))
          design.rd_inputs;
        (Gen (inst, prov), inst.Codegen_registry.cg_drives)
    | `Interp ->
        let c = Compile.compile design in
        (* commit tracers fire only on actual value changes, so each one
           feeds the changed value straight into the compiled tables and
           queues exactly its fanout *)
        List.iteri
          (fun i (name, _) ->
            Signal.on_commit (Hashtbl.find st_inputs name) (fun _ v ->
                Compile.set_input c i v))
          design.rd_inputs;
        (Level c, Compile.drives c)
    | `Legacy ->
        let max_wire =
          List.fold_left (fun m w -> max m (w.w_id + 1)) 0 design.rd_wires
        in
        let max_reg = List.fold_left (fun m r -> max m (r.r_id + 1)) 0 design.rd_regs in
        let lg =
          {
            l_wires = Array.make (max 1 max_wire) (Bitvec.zero 1);
            l_regs = Array.make (max 1 max_reg) (Bitvec.zero 1);
            l_next = Array.make (max 1 max_reg) (Bitvec.zero 1);
            l_order = [||];
            l_updates = [||];
            l_in_dirty = true;
            l_settles = 0;
          }
        in
        List.iter (fun r -> lg.l_regs.(r.r_id) <- r.r_init) design.rd_regs;
        List.iter
          (fun (name, _) ->
            (* commit tracers fire only on actual value changes, so the
               dirty bit is exact: clear means every input still holds its
               last-settled value *)
            Signal.on_commit (Hashtbl.find st_inputs name) (fun _ _ ->
                lg.l_in_dirty <- true))
          design.rd_inputs;
        (* compile after the input signals exist: leaves resolve against them *)
        lg.l_order <-
          Array.of_list
            (List.map
               (fun (w, e) -> (w.w_id, compile_legacy lg st_inputs e))
               (Ir.topo_order design));
        lg.l_updates <-
          Array.of_list
            (List.map
               (fun (r, e) -> (r.r_id, compile_legacy lg st_inputs e))
               design.rd_updates);
        ( Legacy lg,
          Array.of_list
            (List.map
               (fun (name, e) -> (name, compile_legacy lg st_inputs e))
               design.rd_drives) )
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
           | Legacy lg -> settle_legacy lg
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
  | Legacy lg -> lg.l_regs.(r.r_id)
  | Level c -> Compile.reg_value c r
  | Gen (g, _) -> g.Codegen_registry.cg_reg_value r.r_id

let reg_names t = List.map (fun r -> r.r_name) t.st_design.rd_regs
let cycles t = t.st_cycles

let engine_used t : engine =
  match t.st_impl with
  | Legacy _ -> `Settle
  | Level _ -> `Levelized
  | Gen _ -> `Compiled

let fallback_reason t = t.st_fallback

let counters t =
  (* [rtl_engine] is the per-engine tag: 0 = settle (legacy reference),
     1 = levelized interpreter, 2 = compiled generated code *)
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
  | Legacy lg ->
      (* the reference engine re-evaluates the whole network (boxed) on
         every settle; reported under the same keys so before/after
         comparisons line up *)
      let n = Array.length lg.l_order in
      [
        ("rtl_engine", 0);
        ("rtl_levels", 0);
        ("rtl_nodes", n);
        ("rtl_settles", lg.l_settles);
        ("rtl_nodes_evaluated", lg.l_settles * n);
        ("rtl_nodes_skipped", 0);
        ("rtl_cone_max", if lg.l_settles > 0 then n else 0);
        ("rtl_fast_evals", 0);
        ("rtl_wide_evals", lg.l_settles * n);
        ("rtl_update_evals", t.st_cycles * Array.length lg.l_updates);
        ("rtl_updates_skipped", 0);
      ]
