module A = Hlcs_hlir.Ast
module Typecheck = Hlcs_hlir.Typecheck
module Ir = Hlcs_rtl.Ir
module Link = Hlcs_rtl.Link
module Bitvec = Hlcs_logic.Bitvec
module Policy = Hlcs_osss.Policy

exception Synthesis_error of string

let err fmt = Format.kasprintf (fun s -> raise (Synthesis_error s)) fmt

type options = { chaining : bool; age_width : int; optimize : bool }

let default_options = { chaining = true; age_width = 16; optimize = true }

type report = {
  rp_rtl : Ir.design;
  rp_process_states : (string * int) list;
  rp_object_channels : (string * int) list;
  rp_field_regs : (string * (string * string) list) list;
  rp_array_regs : (string * (string * string list) list) list;
  rp_fsm_dot : (string * string) list;
  rp_units : (string * string) list;
  rp_stats : Hlcs_rtl.Stats.t;
}

(* ------------------------------------------------------------------ *)
(* Units: the partition of a design into independently synthesisable   *)
(* pieces.  One unit per process, one per shared object, plus (when    *)
(* some output port is emitted by no process) a unit holding the       *)
(* constant drivers of the unowned outputs.  Units reference each      *)
(* other only through linker symbols, so each one carries exactly the  *)
(* data its fragment is a function of — that is what makes the content *)
(* hash below an honest dirtiness test.                                *)

(* What a calling process knows about a channel: the interface of the
   method, never its body.  Editing a method's guard or updates dirties
   the object's unit only; the clients relink unchanged. *)
type chan_iface = {
  ci_obj : string;
  ci_meth : string;
  ci_client : int;  (* index of the calling process *)
  ci_priority : int;  (* its arbitration priority *)
  ci_params : (string * int) list;
  ci_result : int option;
}

type unit_decl =
  | U_ports of (string * int) list  (* outputs no process emits *)
  | U_process of {
      up_proc : A.process_decl;
      up_ports : (string * int) list;  (* input ports read, first-use order *)
      up_outs : (string * int) list;  (* output ports owned, first-emit order *)
      up_chans : chan_iface list;  (* first-call order *)
    }
  | U_object of {
      uo_decl : A.object_decl;
      uo_chans : chan_iface list;  (* channel id = position *)
    }

type plan_unit = { u_name : string; u_signature : string; u_decl : unit_decl }

type plan = {
  pl_name : string;
  pl_options : options;
  pl_inputs : (string * int) list;
  pl_outputs : (string * int) list;
  pl_units : plan_unit list;
  pl_object_channels : (string * int) list;
}

let unit_name = function
  | U_ports _ -> "ports"
  | U_process { up_proc; _ } -> "process:" ^ up_proc.A.p_name
  | U_object { uo_decl; _ } -> "object:" ^ uo_decl.A.o_name

(* The content signature: a digest over the unit's own declaration, the
   interface hashes of everything it references (ports, channel
   interfaces — all part of [unit_decl]) and the option fields its
   lowering actually reads.  The AST is pure data, so [Marshal] with
   [No_sharing] is a canonical encoding.  The design name is *not* part
   of any signature: renaming a design relinks every unit from cache. *)
let unit_signature options u =
  let opts =
    match u with
    | U_ports _ -> ""
    | U_process _ ->
        Printf.sprintf "chaining=%b;optimize=%b" options.chaining options.optimize
    | U_object _ ->
        Printf.sprintf "age_width=%d;optimize=%b" options.age_width options.optimize
  in
  Digest.to_hex
    (Digest.string
       ("hlcs-unit-1\x00" ^ opts ^ "\x00" ^ Marshal.to_string u [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Partitioning: a static walk of every process body in exact compile  *)
(* order, collecting port references, output ownership (with the same  *)
(* multi-writer diagnostic the compiler used to raise) and first-call  *)
(* channel creation — so the channel numbering of the fragments        *)
(* reproduces the monolithic synthesiser's dynamic creation order.     *)

let plan ?(options = default_options) (design : A.design) =
  Typecheck.check_exn design;
  let port_width =
    let h = Hashtbl.create 8 in
    List.iter
      (fun (p : A.port) -> Hashtbl.replace h p.A.pt_name p.A.pt_width)
      design.A.d_ports;
    fun n -> Hashtbl.find h n
  in
  let writer : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let walk_process index (proc : A.process_decl) =
    let in_refs = ref [] and in_seen = Hashtbl.create 8 in
    let outs = ref [] and out_seen = Hashtbl.create 8 in
    let chans = ref [] and chan_seen = Hashtbl.create 8 in
    let ref_port n =
      if not (Hashtbl.mem in_seen n) then begin
        Hashtbl.replace in_seen n ();
        in_refs := (n, port_width n) :: !in_refs
      end
    in
    let rec expr = function
      | A.Const _ | A.Var _ | A.Field _ -> ()
      | A.Port n -> ref_port n
      | A.Index (_, i) -> expr i
      | A.Unop (_, x) | A.Slice (x, _, _) -> expr x
      | A.Binop (_, x, y) ->
          expr x;
          expr y
      | A.Mux (c, x, y) ->
          expr c;
          expr x;
          expr y
    in
    let emit p =
      (match Hashtbl.find_opt writer p with
      | Some owner when owner <> proc.A.p_name ->
          err "output port %S is driven by both %S and %S" p owner proc.A.p_name
      | Some _ -> ()
      | None -> Hashtbl.replace writer p proc.A.p_name);
      if not (Hashtbl.mem out_seen p) then begin
        Hashtbl.replace out_seen p ();
        outs := (p, port_width p) :: !outs
      end
    in
    let call (c : A.call) =
      List.iter expr c.A.co_args;
      let k = (c.A.co_obj, c.A.co_meth) in
      if not (Hashtbl.mem chan_seen k) then begin
        Hashtbl.replace chan_seen k ();
        let obj =
          match A.find_object design c.A.co_obj with
          | Some o -> o
          | None -> assert false (* typechecked *)
        in
        let meth =
          match A.find_method obj c.A.co_meth with Some m -> m | None -> assert false
        in
        chans :=
          {
            ci_obj = c.A.co_obj;
            ci_meth = c.A.co_meth;
            ci_client = index;
            ci_priority = proc.A.p_priority;
            ci_params = meth.A.m_params;
            ci_result = meth.A.m_result_width;
          }
          :: !chans
      end
    in
    let rec stmt = function
      | A.Set (_, e) -> expr e
      | A.Emit (p, e) ->
          emit p;
          expr e
      | A.Wait _ | A.Halt -> ()
      | A.Call c -> call c
      | A.If (c, th, el) ->
          expr c;
          List.iter stmt th;
          List.iter stmt el
      | A.Case (sel, arms, default) ->
          expr sel;
          List.iter (fun (_, body) -> List.iter stmt body) arms;
          List.iter stmt default
      | A.While (c, body) ->
          expr c;
          List.iter stmt body
    in
    List.iter stmt proc.A.p_body;
    (List.rev !in_refs, List.rev !outs, List.rev !chans)
  in
  let per_proc = List.mapi walk_process design.A.d_processes in
  let inputs =
    List.filter_map
      (fun (p : A.port) ->
        if p.A.pt_dir = A.In then Some (p.A.pt_name, p.A.pt_width) else None)
      design.A.d_ports
  in
  let outputs =
    List.filter_map
      (fun (p : A.port) ->
        if p.A.pt_dir = A.Out then Some (p.A.pt_name, p.A.pt_width) else None)
      design.A.d_ports
  in
  let unowned = List.filter (fun (n, _) -> not (Hashtbl.mem writer n)) outputs in
  let proc_units =
    List.map2
      (fun (ins, outs, chans) proc ->
        U_process { up_proc = proc; up_ports = ins; up_outs = outs; up_chans = chans })
      per_proc design.A.d_processes
  in
  let chans_of o =
    List.concat_map
      (fun (_, _, cs) -> List.filter (fun ci -> ci.ci_obj = o) cs)
      per_proc
  in
  let obj_units =
    List.map
      (fun (o : A.object_decl) ->
        U_object { uo_decl = o; uo_chans = chans_of o.A.o_name })
      design.A.d_objects
  in
  let units =
    (if unowned = [] then [] else [ U_ports unowned ]) @ proc_units @ obj_units
  in
  {
    pl_name = design.A.d_name;
    pl_options = options;
    pl_inputs = inputs;
    pl_outputs = outputs;
    pl_units =
      List.map
        (fun u ->
          { u_name = unit_name u; u_signature = unit_signature options u; u_decl = u })
        units;
    pl_object_channels =
      List.map
        (fun (o : A.object_decl) ->
          (o.A.o_name, List.length (chans_of o.A.o_name)))
        design.A.d_objects;
  }

(* ------------------------------------------------------------------ *)
(* Shared expression helpers                                           *)

(* [leaf] resolves Var/Field/Port for the current lowering context. *)
let rec lower leaf (e : A.expr) : Ir.expr =
  match e with
  | A.Const bv -> Ir.Const bv
  | A.Var _ | A.Field _ | A.Index _ | A.Port _ -> leaf e
  | A.Unop (op, x) -> Ir.Unop (op, lower leaf x)
  | A.Binop (op, x, y) -> Ir.Binop (op, lower leaf x, lower leaf y)
  | A.Mux (c, x, y) -> Ir.Mux (lower leaf c, lower leaf x, lower leaf y)
  | A.Slice (x, hi, lo) -> Ir.Slice (lower leaf x, hi, lo)

let b_true = Ir.Const (Bitvec.of_int ~width:1 1)
let b_false = Ir.Const (Bitvec.of_int ~width:1 0)
let and_ a b = Ir.Binop (Ir.And, a, b)
let or_ a b = Ir.Binop (Ir.Or, a, b)
let not_ a = Ir.Unop (Ir.Not, a)

let or_list = function [] -> b_false | x :: xs -> List.fold_left or_ x xs
let and_list = function [] -> b_true | x :: xs -> List.fold_left and_ x xs

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  max 1 (go 0)

let base_name ci = Printf.sprintf "%s_%s_c%d" ci.ci_obj ci.ci_meth ci.ci_client

let export b sym e =
  let n = Link.export_name sym in
  Ir.add_output b n (Ir.expr_width e);
  Ir.drive b n e

(* ------------------------------------------------------------------ *)
(* Channels, client side: the request wire and argument registers live *)
(* with the calling process; grant and result arrive as linker         *)
(* imports.  A process may have several call sites on the same         *)
(* channel; the argument registers are committed on the edge entering  *)
(* each call state.                                                    *)

type channel = {
  ch_base : string;
  ch_req : Ir.wire;
  ch_done : Ir.expr;  (* import from the object's unit *)
  ch_res : Ir.expr option;
  ch_arg_regs : (string * Ir.reg) list;
  mutable ch_sites : int list;  (* call states *)
}

(* ------------------------------------------------------------------ *)
(* Per-process compilation state                                       *)

type pstate = {
  ps_proc : A.process_decl;
  ps_fsm : Fsm.t;
  mutable ps_cur : int;
  mutable ps_env : (string, Ir.expr) Hashtbl.t;  (* modified locals *)
  mutable ps_emits : (string, Ir.expr) Hashtbl.t;  (* pending out writes *)
  mutable ps_pure : bool;
      (* inside a zero-time If branch: no state may be allocated, even
         under the one-assignment-per-state option *)
  ps_local_regs : (string, Ir.reg) Hashtbl.t;
}

type ctx = {
  cx_builder : Ir.builder;
  cx_options : options;
  cx_ports : (string, int) Hashtbl.t;  (* referenced input-port widths *)
  cx_out_regs : (string, Ir.reg) Hashtbl.t;
  cx_chans : (string * string, channel) Hashtbl.t;  (* (object, method) *)
}

let local_reg ps name = Hashtbl.find ps.ps_local_regs name

let process_leaf cx ps : A.expr -> Ir.expr = function
  | A.Var name -> (
      match Hashtbl.find_opt ps.ps_env name with
      | Some e -> e
      | None -> Ir.Reg (local_reg ps name))
  | A.Port name -> Ir.Input (name, Hashtbl.find cx.cx_ports name)
  | A.Index (name, _) -> err "array %S referenced outside a method" name
  | A.Field _ | A.Const _ | A.Unop _ | A.Binop _ | A.Mux _ | A.Slice _ ->
      assert false

let lower_in_process cx ps e = lower (process_leaf cx ps) e

(* Pending register writes accumulated in the current state. *)
let take_commits cx ps =
  let commits = ref [] in
  Hashtbl.iter (fun v e -> commits := (local_reg ps v, e) :: !commits) ps.ps_env;
  Hashtbl.iter
    (fun p e -> commits := (Hashtbl.find cx.cx_out_regs p, e) :: !commits)
    ps.ps_emits;
  ps.ps_env <- Hashtbl.create 16;
  ps.ps_emits <- Hashtbl.create 8;
  (* Deterministic ordering for reproducible netlists. *)
  List.sort (fun ((a : Ir.reg), _) (b, _) -> compare a.Ir.r_id b.Ir.r_id) !commits

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)

(* [while c { zero-time stmts; wait 1 }] — the shape of every per-cycle
   polling loop.  Returns the zero-time prefix. *)
let rec zero_time stmt =
  match stmt with
  | A.Set _ | A.Emit _ -> true
  | A.If (_, t, e) -> List.for_all zero_time t && List.for_all zero_time e
  | A.Case (_, arms, default) ->
      List.for_all (fun (_, body) -> List.for_all zero_time body) arms
      && List.for_all zero_time default
  | A.Wait _ | A.Call _ | A.While _ | A.Halt -> false

(* A case statement compiles as a cascade of ifs; the selector is a pure
   expression, so re-evaluating it per level is sound. *)
let desugar_case sel arms default =
  List.fold_right
    (fun (labels, body) rest ->
      let cond =
        match
          List.map (fun label -> A.Binop (A.Eq, sel, A.Const label)) labels
        with
        | [] -> A.Const (Bitvec.of_int ~width:1 0)
        | first :: more -> List.fold_left (fun acc c -> A.Binop (A.Or, acc, c)) first more
      in
      [ A.If (cond, body, rest) ])
    arms default

let fast_poll_body body =
  match List.rev body with
  | A.Wait 1 :: rev_prefix ->
      let prefix = List.rev rev_prefix in
      if List.for_all zero_time prefix then Some prefix else None
  | _ -> None

let rec compile_stmts cx ps stmts = List.iter (compile_stmt cx ps) stmts

and cut cx ps ?cond ?(extra = []) next =
  let commits = take_commits cx ps @ extra in
  Fsm.add_edge ps.ps_fsm ps.ps_cur { Fsm.e_cond = cond; e_commits = commits; e_next = next }

(* Open a loop head.  When nothing is pending and the current state is
   still virgin (fresh after a wait/call/join), the current state becomes
   the head — so a polling loop that directly follows a [wait] starts
   sampling at the very next clock edge, one cycle earlier than a separate
   entry state would allow.  Protocol loops rely on this to catch
   single-cycle strobes. *)
and enter_loop_head cx ps =
  let commits = take_commits cx ps in
  if commits = [] && not (Fsm.has_edges ps.ps_fsm ps.ps_cur) then ps.ps_cur
  else begin
    let s_head = Fsm.fresh_state ps.ps_fsm in
    Fsm.add_edge ps.ps_fsm ps.ps_cur
      { Fsm.e_cond = None; e_commits = commits; e_next = s_head };
    ps.ps_cur <- s_head;
    s_head
  end

and compile_stmt cx ps stmt =
  match stmt with
  | A.Set (x, e) ->
      let v = lower_in_process cx ps e in
      Hashtbl.replace ps.ps_env x v;
      if (not cx.cx_options.chaining) && not ps.ps_pure then begin
        let next = Fsm.fresh_state ps.ps_fsm in
        cut cx ps next;
        ps.ps_cur <- next
      end
  | A.Emit (p, e) ->
      (* multi-writer conflicts were rejected at planning time *)
      Hashtbl.replace ps.ps_emits p (lower_in_process cx ps e)
  | A.Wait n ->
      let next = Fsm.fresh_state ps.ps_fsm in
      cut cx ps next;
      ps.ps_cur <- next;
      for _ = 2 to n do
        let next = Fsm.fresh_state ps.ps_fsm in
        Fsm.add_edge ps.ps_fsm ps.ps_cur
          { Fsm.e_cond = None; e_commits = []; e_next = next };
        ps.ps_cur <- next
      done
  | A.Call { co_obj; co_meth; co_args; co_bind } ->
      let ch =
        match Hashtbl.find_opt cx.cx_chans (co_obj, co_meth) with
        | Some ch -> ch
        | None -> assert false (* planned from the same statement walk *)
      in
      let arg_values = List.map (lower_in_process cx ps) co_args in
      let arg_commits =
        List.map2 (fun (_, r) v -> (r, v)) ch.ch_arg_regs arg_values
      in
      let s_call = Fsm.fresh_state ps.ps_fsm in
      cut cx ps ~extra:arg_commits s_call;
      ch.ch_sites <- s_call :: ch.ch_sites;
      let s_next = Fsm.fresh_state ps.ps_fsm in
      let bind_commits =
        match (co_bind, ch.ch_res) with
        | Some x, Some res -> [ (local_reg ps x, res) ]
        | Some x, None -> err "call result bound to %S but method has no result" x
        | None, _ -> []
      in
      Fsm.add_edge ps.ps_fsm s_call
        { Fsm.e_cond = Some ch.ch_done; e_commits = bind_commits; e_next = s_next };
      ps.ps_cur <- s_next
  | A.If (c, th, el) ->
      let timed =
        List.exists A.stmt_takes_time th || List.exists A.stmt_takes_time el
      in
      if not timed then compile_pure_if cx ps c th el
      else begin
        let cond = lower_in_process cx ps c in
        let commits = take_commits cx ps in
        let s_join = Fsm.fresh_state ps.ps_fsm in
        let s_then = Fsm.fresh_state ps.ps_fsm in
        let s_else = if el = [] then s_join else Fsm.fresh_state ps.ps_fsm in
        Fsm.add_edge ps.ps_fsm ps.ps_cur
          { Fsm.e_cond = Some cond; e_commits = commits; e_next = s_then };
        Fsm.add_edge ps.ps_fsm ps.ps_cur
          { Fsm.e_cond = None; e_commits = commits; e_next = s_else };
        ps.ps_cur <- s_then;
        compile_stmts cx ps th;
        cut cx ps s_join;
        if el <> [] then begin
          ps.ps_cur <- s_else;
          compile_stmts cx ps el;
          cut cx ps s_join
        end;
        ps.ps_cur <- s_join
      end
  | A.Case (sel, arms, default) -> compile_stmts cx ps (desugar_case sel arms default)
  | A.While (c, body) -> (
      match fast_poll_body body with
      | Some prefix when cx.cx_options.chaining ->
          (* Polling loop [while c { zero-time work; wait 1 }]: one state
             that samples the condition every cycle and commits the body's
             effects on each iteration edge.  This keeps synthesised bus
             protocols able to react to single-cycle strobes (e.g. TRDY#),
             exactly like the behavioural process that wakes every clock. *)
          let s_head = enter_loop_head cx ps in
          let cond = lower_in_process cx ps c in
          let s_exit = Fsm.fresh_state ps.ps_fsm in
          Fsm.add_edge ps.ps_fsm s_head
            { Fsm.e_cond = Some (not_ cond); e_commits = []; e_next = s_exit };
          compile_stmts cx ps prefix;
          assert (ps.ps_cur = s_head);
          let commits = take_commits cx ps in
          Fsm.add_edge ps.ps_fsm s_head
            { Fsm.e_cond = None; e_commits = commits; e_next = s_head };
          ps.ps_cur <- s_exit
      | Some _ | None ->
          let s_head = enter_loop_head cx ps in
          (* env is empty at the head: the condition reads registers *)
          let cond = lower_in_process cx ps c in
          let s_body = Fsm.fresh_state ps.ps_fsm in
          let s_exit = Fsm.fresh_state ps.ps_fsm in
          Fsm.add_edge ps.ps_fsm s_head
            { Fsm.e_cond = Some cond; e_commits = []; e_next = s_body };
          Fsm.add_edge ps.ps_fsm s_head
            { Fsm.e_cond = None; e_commits = []; e_next = s_exit };
          ps.ps_cur <- s_body;
          compile_stmts cx ps body;
          cut cx ps s_head;
          ps.ps_cur <- s_exit)
  | A.Halt ->
      let s_halt = Fsm.fresh_state ps.ps_fsm in
      cut cx ps s_halt;
      (* statements after halt are dead: park them in an unreachable state *)
      ps.ps_cur <- Fsm.fresh_state ps.ps_fsm

(* Zero-time conditional: compile both branches symbolically and merge the
   written names with muxes; no state is allocated. *)
and compile_pure_if cx ps c th el =
  let cond = lower_in_process cx ps c in
  let base_env = ps.ps_env and base_emits = ps.ps_emits in
  let was_pure = ps.ps_pure in
  ps.ps_pure <- true;
  let snapshot h = Hashtbl.copy h in
  ps.ps_env <- snapshot base_env;
  ps.ps_emits <- snapshot base_emits;
  let entry = ps.ps_cur in
  compile_stmts cx ps th;
  assert (ps.ps_cur = entry);
  let env_t = ps.ps_env and emits_t = ps.ps_emits in
  ps.ps_env <- snapshot base_env;
  ps.ps_emits <- snapshot base_emits;
  compile_stmts cx ps el;
  assert (ps.ps_cur = entry);
  ps.ps_pure <- was_pure;
  let env_e = ps.ps_env and emits_e = ps.ps_emits in
  let merge base default_of t_tbl e_tbl =
    let merged = Hashtbl.create 16 in
    let keys = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t_tbl;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) e_tbl;
    Hashtbl.iter
      (fun k () ->
        let dflt () =
          match Hashtbl.find_opt base k with Some v -> v | None -> default_of k
        in
        let vt = match Hashtbl.find_opt t_tbl k with Some v -> v | None -> dflt () in
        let ve = match Hashtbl.find_opt e_tbl k with Some v -> v | None -> dflt () in
        if vt == ve then Hashtbl.replace merged k vt
        else Hashtbl.replace merged k (Ir.Mux (cond, vt, ve)))
      keys;
    (* names untouched by both branches keep their base binding *)
    Hashtbl.iter
      (fun k v -> if not (Hashtbl.mem merged k) then Hashtbl.replace merged k v)
      base;
    merged
  in
  ps.ps_env <- merge base_env (fun v -> Ir.Reg (local_reg ps v)) env_t env_e;
  ps.ps_emits <-
    merge base_emits (fun p -> Ir.Reg (Hashtbl.find cx.cx_out_regs p)) emits_t emits_e

(* ------------------------------------------------------------------ *)
(* Process unit synthesis                                              *)

let synthesize_process options (proc : A.process_decl) ~ports ~outs ~chans =
  let b = Ir.builder ("unit:process:" ^ proc.A.p_name) in
  let cx =
    {
      cx_builder = b;
      cx_options = options;
      cx_ports = Hashtbl.create 8;
      cx_out_regs = Hashtbl.create 8;
      cx_chans = Hashtbl.create 8;
    }
  in
  ignore cx.cx_builder;
  List.iter (fun (n, w) -> Hashtbl.replace cx.cx_ports n w) ports;
  (* owned output ports: register + drive, as in the monolithic flow *)
  List.iter
    (fun (n, w) ->
      Ir.add_output b n w;
      let r = Ir.fresh_reg b (n ^ "_r") w in
      Hashtbl.replace cx.cx_out_regs n r;
      Ir.drive b n (Ir.Reg r))
    outs;
  (* channels, in first-call order *)
  let channels =
    List.map
      (fun ci ->
        let base = base_name ci in
        let ch =
          {
            ch_base = base;
            ch_req = Ir.fresh_wire b (base ^ "_req") 1;
            ch_done = Link.import (base ^ "_done") 1;
            ch_res = Option.map (fun w -> Link.import (base ^ "_res") w) ci.ci_result;
            ch_arg_regs =
              List.map
                (fun (pname, w) ->
                  (pname, Ir.fresh_reg b (Printf.sprintf "%s_arg_%s" base pname) w))
                ci.ci_params;
            ch_sites = [];
          }
        in
        Hashtbl.replace cx.cx_chans (ci.ci_obj, ci.ci_meth) ch;
        ch)
      chans
  in
  let ps =
    {
      ps_proc = proc;
      ps_fsm = Fsm.create ();
      ps_cur = 0;
      ps_env = Hashtbl.create 16;
      ps_emits = Hashtbl.create 8;
      ps_pure = false;
      ps_local_regs = Hashtbl.create 16;
    }
  in
  List.iter
    (fun (n, w, init) ->
      Hashtbl.replace ps.ps_local_regs n
        (Ir.fresh_reg b ~init (proc.A.p_name ^ "_" ^ n) w))
    proc.A.p_locals;
  ps.ps_cur <- Fsm.fresh_state ps.ps_fsm;
  compile_stmts cx ps proc.A.p_body;
  (* terminal state *)
  let s_end = Fsm.fresh_state ps.ps_fsm in
  cut cx ps s_end;
  (* Each channel is one request of the FSM: its call states raise the
     request line and wait for [done] through the gate tree. *)
  let requests =
    List.map
      (fun ch ->
        { Fsm.rq_name = ch.ch_base ^ "_req"; rq_done = ch.ch_done;
          rq_states = List.rev ch.ch_sites })
      channels
  in
  let realized = Fsm.realize b ~name:proc.A.p_name ~requests ps.ps_fsm in
  (* Publish the client side of each channel. *)
  List.iter2
    (fun ch line ->
      Ir.assign b ch.ch_req line;
      export b (ch.ch_base ^ "_req") (Ir.Wire ch.ch_req);
      List.iter
        (fun (pname, r) ->
          export b (Printf.sprintf "%s_arg_%s" ch.ch_base pname) (Ir.Reg r))
        ch.ch_arg_regs)
    channels (Fsm.request_lines realized);
  (b, Fsm.state_count ps.ps_fsm, Fsm.to_dot ps.ps_fsm ~name:proc.A.p_name)

(* ------------------------------------------------------------------ *)
(* Shared-object server synthesis                                      *)

(* The server side of a channel: request and arguments arrive as linker
   imports from the client's unit; grant (and result) are wires of this
   unit, exported back. *)
type obj_chan = {
  bc_id : int;
  bc_client : int;
  bc_priority : int;
  bc_meth : A.method_decl;
  bc_base : string;
  bc_req : Ir.expr;  (* import *)
  bc_args : (string * int) list;  (* parameter widths, for imports *)
  bc_done : Ir.wire;
  bc_res : Ir.wire option;
}

type obj_ctx = {
  oc_decl : A.object_decl;
  oc_fields : (string * Ir.reg) list;
  oc_arrays : (string * Ir.reg array) list;  (* register banks, by element *)
}

(* An array read becomes a mux tree over the bank, selected by the lowered
   index; out-of-range indices fall through to the zero default, matching
   the interpreter. *)
let rec method_leaf oc ch : A.expr -> Ir.expr = function
  | A.Field f -> Ir.Reg (List.assoc f oc.oc_fields)
  | A.Index (name, idx) ->
      let bank = List.assoc name oc.oc_arrays in
      let idx = lower (method_leaf oc ch) idx in
      let iw = Ir.expr_width idx in
      let width = (bank.(0) : Ir.reg).Ir.r_width in
      let reachable = if iw >= 30 then Array.length bank else min (Array.length bank) (1 lsl iw) in
      let acc = ref (Ir.Const (Bitvec.zero width)) in
      for i = reachable - 1 downto 0 do
        acc :=
          Ir.Mux
            ( Ir.Binop (Ir.Eq, idx, Ir.Const (Bitvec.of_int ~width:iw i)),
              Ir.Reg bank.(i),
              !acc )
      done;
      !acc
  | A.Var p -> Link.import (Printf.sprintf "%s_arg_%s" ch.bc_base p) (List.assoc p ch.bc_args)
  | A.Port p -> err "port %S read inside a method" p
  | A.Const _ | A.Unop _ | A.Binop _ | A.Mux _ | A.Slice _ -> assert false

let lower_in_method oc ch e = lower (method_leaf oc ch) e

let tag_equals oc tag_value =
  match oc.oc_decl.A.o_tag with
  | None -> assert false
  | Some tf ->
      let r = List.assoc tf oc.oc_fields in
      Ir.Binop (Ir.Eq, Ir.Reg r, Ir.Const (Bitvec.of_int ~width:r.Ir.r_width tag_value))

(* Dispatch a per-implementation value over the tag field. *)
let dispatch oc impls ~of_impl ~default =
  List.fold_left
    (fun acc (tag, impl) -> Ir.Mux (tag_equals oc tag, of_impl impl, acc))
    default impls

let channel_guard oc ch =
  match ch.bc_meth.A.m_kind with
  | A.Plain impl -> lower_in_method oc ch impl.A.mi_guard
  | A.Virtual impls ->
      dispatch oc impls
        ~of_impl:(fun impl -> lower_in_method oc ch impl.A.mi_guard)
        ~default:b_false

let channel_result oc ch =
  match ch.bc_meth.A.m_result_width with
  | None -> None
  | Some w ->
      let of_impl impl =
        match impl.A.mi_result with
        | Some e -> lower_in_method oc ch e
        | None -> assert false
      in
      Some
        (match ch.bc_meth.A.m_kind with
        | A.Plain impl -> of_impl impl
        | A.Virtual impls ->
            dispatch oc impls ~of_impl ~default:(Ir.Const (Bitvec.zero w)))

(* The value field [f] takes if this channel's call is granted. *)
let channel_field_value oc ch fname =
  let freg = List.assoc fname oc.oc_fields in
  let update_of impl =
    match List.assoc_opt fname impl.A.mi_updates with
    | Some e -> Some (lower_in_method oc ch e)
    | None -> None
  in
  match ch.bc_meth.A.m_kind with
  | A.Plain impl -> update_of impl
  | A.Virtual impls ->
      if
        List.exists
          (fun (_, impl) -> List.mem_assoc fname impl.A.mi_updates)
          impls
      then
        Some
          (dispatch oc impls
             ~of_impl:(fun impl ->
               match update_of impl with Some e -> e | None -> Ir.Reg freg)
             ~default:(Ir.Reg freg))
      else None

(* The value array element [aname.(i)] takes if this channel's call is
   granted: per impl, fold the element writes in order so the last write to
   a matching index wins; an index that can never equal [i] is skipped. *)
let channel_array_element_value oc ch aname i =
  let bank = List.assoc aname oc.oc_arrays in
  let elem = Ir.Reg bank.(i) in
  let apply_impl (impl : A.method_impl) =
    List.fold_left
      (fun acc (a, idx, v) ->
        if a <> aname then acc
        else
          let idx' = lower_in_method oc ch idx in
          let iw = Ir.expr_width idx' in
          if iw < 30 && i >= 1 lsl iw then acc
          else
            Ir.Mux
              ( Ir.Binop (Ir.Eq, idx', Ir.Const (Bitvec.of_int ~width:iw i)),
                lower_in_method oc ch v,
                acc ))
      elem impl.A.mi_array_updates
  in
  let touches (impl : A.method_impl) =
    List.exists (fun (a, _, _) -> a = aname) impl.A.mi_array_updates
  in
  match ch.bc_meth.A.m_kind with
  | A.Plain impl -> if touches impl then Some (apply_impl impl) else None
  | A.Virtual impls ->
      if List.exists (fun (_, impl) -> touches impl) impls then
        Some (dispatch oc impls ~of_impl:apply_impl ~default:elem)
      else None

(* Build grant equations for the channels according to the policy. *)
let build_arbiter b ~age_width oc channels eligible =
  let obj_name = oc.oc_decl.A.o_name in
  let named_wire name e =
    let w = Ir.fresh_wire b name 1 in
    Ir.assign b w e;
    Ir.Wire w
  in
  let clients = List.sort_uniq compare (List.map (fun ch -> ch.bc_client) channels) in
  match oc.oc_decl.A.o_policy with
  | Policy.Static_priority ->
      (* Fixed combinational priority: higher process priority first. *)
      let order =
        List.sort
          (fun a b ->
            match compare b.bc_priority a.bc_priority with
            | 0 -> compare a.bc_id b.bc_id
            | c -> c)
          channels
      in
      let grants = Hashtbl.create 8 in
      let earlier = ref [] in
      List.iter
        (fun ch ->
          let elig = List.assoc ch.bc_id eligible in
          let g = and_ elig (not_ (or_list !earlier)) in
          Hashtbl.replace grants ch.bc_id
            (named_wire (Printf.sprintf "%s_grant_%d" obj_name ch.bc_id) g);
          earlier := elig :: !earlier)
        order;
      fun ch -> Hashtbl.find grants ch.bc_id
  | Policy.Fcfs ->
      (* Oldest pending request wins; age counters saturate. *)
      let aw = age_width in
      let ages =
        List.map
          (fun cl ->
            (cl, Ir.fresh_reg b (Printf.sprintf "%s_age_c%d" obj_name cl) aw))
          clients
      in
      (* one order wire per ordered client pair a grant needs, so a grant
         re-evaluates when an eligibility changes or a pair's order flips,
         not whenever an age counts *)
      let age_ge = Hashtbl.create 4 in
      let ge x y =
        match Hashtbl.find_opt age_ge (x, y) with
        | Some w -> w
        | None ->
            let w =
              named_wire
                (Printf.sprintf "%s_age_ge_c%d_c%d" obj_name x y)
                (Ir.Binop
                   (Ir.Ge, Ir.Reg (List.assoc x ages), Ir.Reg (List.assoc y ages)))
            in
            Hashtbl.replace age_ge (x, y) w;
            w
      in
      let beats a b' =
        (* strict total order on (age, channel index); one client's
           channels share its age, so between them the index decides *)
        if a.bc_client = b'.bc_client then if a.bc_id < b'.bc_id then b_true else b_false
        else if a.bc_id < b'.bc_id then ge a.bc_client b'.bc_client
        else not_ (ge b'.bc_client a.bc_client)
      in
      let grant_exprs =
        List.map
          (fun ch ->
            let elig = List.assoc ch.bc_id eligible in
            let wins =
              List.filter_map
                (fun other ->
                  if other.bc_id = ch.bc_id then None
                  else
                    Some
                      (or_
                         (not_ (List.assoc other.bc_id eligible))
                         (beats ch other)))
                channels
            in
            ( ch.bc_id,
              named_wire
                (Printf.sprintf "%s_grant_%d" obj_name ch.bc_id)
                (and_ elig (and_list wins)) ))
          channels
      in
      (* Age bookkeeping per client. *)
      List.iter
        (fun cl ->
          let age = List.assoc cl ages in
          let mine = List.filter (fun ch -> ch.bc_client = cl) channels in
          let req = or_list (List.map (fun ch -> ch.bc_req) mine) in
          let granted = or_list (List.map (fun ch -> List.assoc ch.bc_id grant_exprs) mine) in
          let maxed =
            Ir.Binop (Ir.Eq, Ir.Reg age, Ir.Const (Bitvec.ones aw))
          in
          let inc =
            Ir.Mux
              ( maxed,
                Ir.Reg age,
                Ir.Binop (Ir.Add, Ir.Reg age, Ir.Const (Bitvec.of_int ~width:aw 1)) )
          in
          let zero = Ir.Const (Bitvec.zero aw) in
          Ir.update b age (Ir.Mux (granted, zero, Ir.Mux (req, inc, zero))))
        clients;
      fun ch -> List.assoc ch.bc_id grant_exprs
  | Policy.Round_robin ->
      (* Rotating priority over client identities. *)
      let pw = bits_for (List.fold_left max 0 clients + 1) in
      let ptr = Ir.fresh_reg b (obj_name ^ "_rr_ptr") pw in
      let client_const cl = Ir.Const (Bitvec.of_int ~width:pw cl) in
      let ordered =
        List.sort
          (fun a b ->
            match compare a.bc_client b.bc_client with
            | 0 -> compare a.bc_id b.bc_id
            | c -> c)
          channels
      in
      let hi ch = and_ (List.assoc ch.bc_id eligible)
          (Ir.Binop (Ir.Gt, client_const ch.bc_client, Ir.Reg ptr))
      in
      let any_hi = named_wire (obj_name ^ "_rr_anyhi") (or_list (List.map hi ordered)) in
      let first_of proj =
        let earlier = ref [] in
        List.map
          (fun ch ->
            let this = proj ch in
            let g = and_ this (not_ (or_list !earlier)) in
            earlier := this :: !earlier;
            (ch.bc_id, g))
          ordered
      in
      let grant_hi = first_of hi in
      let grant_lo = first_of (fun ch -> List.assoc ch.bc_id eligible) in
      let grants =
        List.map
          (fun ch ->
            ( ch.bc_id,
              named_wire
                (Printf.sprintf "%s_grant_%d" obj_name ch.bc_id)
                (Ir.Mux (any_hi, List.assoc ch.bc_id grant_hi, List.assoc ch.bc_id grant_lo))
            ))
          ordered
      in
      let granted_client =
        List.fold_left
          (fun acc ch -> Ir.Mux (List.assoc ch.bc_id grants, client_const ch.bc_client, acc))
          (Ir.Reg ptr) ordered
      in
      Ir.update b ptr granted_client;
      fun ch -> List.assoc ch.bc_id grants

let build_server b ~age_width oc channels =
  match channels with
  | [] -> ()  (* unreferenced object: fields hold their reset values *)
  | _ ->
      let eligible =
        List.map
          (fun ch ->
            let g = channel_guard oc ch in
            let w =
              Ir.fresh_wire b
                (Printf.sprintf "%s_elig_%d" oc.oc_decl.A.o_name ch.bc_id)
                1
            in
            Ir.assign b w (and_ ch.bc_req g);
            (ch.bc_id, Ir.Wire w))
          channels
      in
      let grant_of = build_arbiter b ~age_width oc channels eligible in
      List.iter
        (fun ch ->
          Ir.assign b ch.bc_done (grant_of ch);
          (match (ch.bc_res, channel_result oc ch) with
          | Some res_wire, Some res_expr -> Ir.assign b res_wire res_expr
          | None, None -> ()
          | Some res_wire, None ->
              (* method declared with result but no expression: checked *)
              Ir.assign b res_wire (Ir.Const (Bitvec.zero res_wire.Ir.w_width))
          | None, Some _ -> assert false);
          export b (ch.bc_base ^ "_done") (Ir.Wire ch.bc_done);
          Option.iter (fun rw -> export b (ch.bc_base ^ "_res") (Ir.Wire rw)) ch.bc_res)
        channels;
      (* Field registers: one mux chain across granting channels. *)
      List.iter
        (fun (fname, freg) ->
          let next =
            List.fold_left
              (fun acc ch ->
                match channel_field_value oc ch fname with
                | None -> acc
                | Some v -> Ir.Mux (grant_of ch, v, acc))
              (Ir.Reg freg) channels
          in
          if next <> Ir.Reg freg then Ir.update b freg next)
        oc.oc_fields;
      (* Array banks: the same, per element. *)
      List.iter
        (fun (aname, bank) ->
          Array.iteri
            (fun i reg ->
              let next =
                List.fold_left
                  (fun acc ch ->
                    match channel_array_element_value oc ch aname i with
                    | None -> acc
                    | Some v -> Ir.Mux (grant_of ch, v, acc))
                  (Ir.Reg reg) channels
              in
              if next <> Ir.Reg reg then Ir.update b reg next)
            bank)
        oc.oc_arrays

let synthesize_object options (o : A.object_decl) chans =
  let b = Ir.builder ("unit:object:" ^ o.A.o_name) in
  let fields =
    List.map
      (fun (fname, w, init) ->
        (fname, Ir.fresh_reg b ~init (o.A.o_name ^ "_" ^ fname) w))
      o.A.o_fields
  in
  let arrays =
    List.map
      (fun (aname, w, depth) ->
        ( aname,
          Array.init depth (fun i ->
              Ir.fresh_reg b (Printf.sprintf "%s_%s_%d" o.A.o_name aname i) w) ))
      o.A.o_arrays
  in
  let oc = { oc_decl = o; oc_fields = fields; oc_arrays = arrays } in
  let channels =
    List.mapi
      (fun id ci ->
        let meth =
          match A.find_method o ci.ci_meth with Some m -> m | None -> assert false
        in
        let base = base_name ci in
        {
          bc_id = id;
          bc_client = ci.ci_client;
          bc_priority = ci.ci_priority;
          bc_meth = meth;
          bc_base = base;
          bc_req = Link.import (base ^ "_req") 1;
          bc_args = ci.ci_params;
          bc_done = Ir.fresh_wire b (base ^ "_done") 1;
          bc_res = Option.map (fun w -> Ir.fresh_wire b (base ^ "_res") w) ci.ci_result;
        })
      chans
  in
  build_server b ~age_width:options.age_width oc channels;
  ( b,
    List.map (fun (fname, (r : Ir.reg)) -> (fname, r.Ir.r_id)) fields,
    List.map
      (fun (aname, bank) ->
        (aname, Array.to_list (Array.map (fun (r : Ir.reg) -> r.Ir.r_id) bank)))
      arrays )

(* ------------------------------------------------------------------ *)
(* Fragments and linking                                               *)

type frag_meta =
  | Fm_ports
  | Fm_process of { fp_name : string; fp_states : int; fp_dot : string }
  | Fm_object of {
      fo_name : string;
      fo_fields : (string * int) list;  (* field -> local register id *)
      fo_arrays : (string * int list) list;
    }

type fragment = { fg_design : Ir.design; fg_meta : frag_meta }

let synthesize_ports outs =
  let b = Ir.builder "unit:ports" in
  List.iter
    (fun (n, w) ->
      Ir.add_output b n w;
      let r = Ir.fresh_reg b (n ^ "_r") w in
      Ir.drive b n (Ir.Reg r))
    outs;
  b

let synthesize_unit (options : options) (u : unit_decl) : fragment =
  let b, meta =
    match u with
    | U_ports outs -> (synthesize_ports outs, Fm_ports)
    | U_process { up_proc; up_ports; up_outs; up_chans } ->
        let b, states, dot =
          synthesize_process options up_proc ~ports:up_ports ~outs:up_outs
            ~chans:up_chans
        in
        (b, Fm_process { fp_name = up_proc.A.p_name; fp_states = states; fp_dot = dot })
    | U_object { uo_decl; uo_chans } ->
        let b, fields, arrays = synthesize_object options uo_decl uo_chans in
        ( b,
          Fm_object
            { fo_name = uo_decl.A.o_name; fo_fields = fields; fo_arrays = arrays } )
  in
  let d = Ir.finish b in
  (* Each fragment is optimised independently and cached post-opt, so a
     warm relink pays neither synthesis nor optimisation for clean
     units; the linker's dead-strip removes logic only exports kept
     alive.  Registers are never removed by any pass, so the fragment's
     local register ids stay dense and the linker's register maps total. *)
  let d = if options.optimize then Hlcs_rtl.Opt.optimize d else d in
  (* validated here, once per rebuild, so the linker does not have to
     re-validate the whole design on every (cache-hit) relink: imports
     are [Input] leaves, so a fragment is a well-formed design on its
     own, and the linker width-checks every cross-fragment splice *)
  (match Ir.validate d with
  | Ok () -> ()
  | Error (m :: _) -> err "internal: generated RTL invalid: %s" m
  | Error [] -> ());
  { fg_design = d; fg_meta = meta }

let fragment_design f = f.fg_design

let link_plan (pl : plan) (frags : fragment list) : report =
  let rtl, rmaps =
    try
      Link.link ~name:pl.pl_name ~inputs:pl.pl_inputs ~outputs:pl.pl_outputs
        ~strip_dead:pl.pl_options.optimize
        (List.map (fun f -> f.fg_design) frags)
    with Link.Link_error m -> err "internal: fragment link failed: %s" m
  in
  (* every fragment was validated when it was (re)built, the linker
     width-checks each splice and rejects cross-fragment combinational
     cycles, and its dependency-ordered emission leaves [rd_assigns] in
     evaluation order — so the warm-relink path re-sorts nothing: the
     stats pass and the RT engine's plan take that order after one linear
     check ([Ir.in_eval_order]) *)
  let process_states =
    List.filter_map
      (fun f ->
        match f.fg_meta with
        | Fm_process { fp_name; fp_states; _ } -> Some (fp_name, fp_states)
        | Fm_ports | Fm_object _ -> None)
      frags
  in
  let fsm_dot =
    List.filter_map
      (fun f ->
        match f.fg_meta with
        | Fm_process { fp_name; fp_dot; _ } -> Some (fp_name, fp_dot)
        | Fm_ports | Fm_object _ -> None)
      frags
  in
  let objects =
    List.filter_map
      (fun (f, rmap) ->
        match f.fg_meta with
        | Fm_object { fo_name; fo_fields; fo_arrays } ->
            Some
              ( ( fo_name,
                  List.map (fun (fn, id) -> (fn, rmap.(id).Ir.r_name)) fo_fields ),
                ( fo_name,
                  List.map
                    (fun (an, ids) ->
                      (an, List.map (fun id -> rmap.(id).Ir.r_name) ids))
                    fo_arrays ) )
        | Fm_ports | Fm_process _ -> None)
      (List.combine frags rmaps)
  in
  {
    rp_rtl = rtl;
    rp_process_states = process_states;
    rp_object_channels = pl.pl_object_channels;
    rp_field_regs = List.map fst objects;
    rp_array_regs = List.map snd objects;
    rp_fsm_dot = fsm_dot;
    rp_units = List.map (fun pu -> (pu.u_name, pu.u_signature)) pl.pl_units;
    rp_stats = Hlcs_rtl.Stats.of_design rtl;
  }

(* ------------------------------------------------------------------ *)
(* Top level: the monolithic entry point is now plan + per-unit        *)
(* synthesis + link, so a from-scratch synthesis and an incremental    *)
(* relink of cached fragments run the same deterministic pipeline and  *)
(* produce byte-identical reports.                                     *)

let synthesize ?(options = default_options) (design : A.design) =
  let pl = plan ~options design in
  link_plan pl (List.map (fun pu -> synthesize_unit options pu.u_decl) pl.pl_units)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>design %s:@," r.rp_rtl.Ir.rd_name;
  List.iter
    (fun (n, s) -> Format.fprintf ppf "  process %-24s %3d states@," n s)
    r.rp_process_states;
  List.iter
    (fun (n, c) -> Format.fprintf ppf "  object  %-24s %3d channels@," n c)
    r.rp_object_channels;
  Format.fprintf ppf "  %d synthesis units@," (List.length r.rp_units);
  Format.fprintf ppf "  %a@]" Hlcs_rtl.Stats.pp r.rp_stats
