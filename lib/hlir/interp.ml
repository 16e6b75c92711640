open Ast
module Bitvec = Hlcs_logic.Bitvec
module Op = Hlcs_logic.Op
module Kernel = Hlcs_engine.Kernel
module Signal = Hlcs_engine.Signal
module Clock = Hlcs_engine.Clock
module Global_object = Hlcs_osss.Global_object

type ostate = { os_fields : Bitvec.t array; os_arrays : Bitvec.t array array }

type obj_rt = {
  or_decl : object_decl;
  or_index : (string, int) Hashtbl.t;  (** field name -> state array slot *)
  or_arr_index : (string, int) Hashtbl.t;  (** array name -> bank slot *)
  or_obj : ostate Global_object.t;
}

type t = {
  it_clock : Clock.t;
  it_design : design;
  it_inputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  it_outputs : (string, Bitvec.t Signal.t) Hashtbl.t;
  it_objects : (string, obj_rt) Hashtbl.t;
}

exception Halted

(* --- expression evaluation ------------------------------------------- *)

(* [leaf] resolves Var/Field/Port for the current context. *)
let rec eval leaf expr =
  match expr with
  | Const bv -> bv
  | (Var _ | Field _ | Index _ | Port _) as e -> leaf e
  | Unop (op, e) -> Op.eval_unop op (eval leaf e)
  | Binop (op, a, b) -> Op.eval_binop op (eval leaf a) (eval leaf b)
  | Mux (c, a, b) -> if Bitvec.is_zero (eval leaf c) then eval leaf b else eval leaf a
  | Slice (e, hi, lo) -> Bitvec.slice (eval leaf e) ~hi ~lo

let truthy bv = not (Bitvec.is_zero bv)

(* --- objects ---------------------------------------------------------- *)

(* out-of-range element reads yield zero, writes are dropped: the same
   semantics the synthesised register file implements *)
let rec method_leaf rt params state = function
  | Field name -> state.os_fields.(Hashtbl.find rt.or_index name)
  | Index (name, idx) -> (
      let bank = state.os_arrays.(Hashtbl.find rt.or_arr_index name) in
      let i = eval (method_leaf rt params state) idx in
      match Bitvec.to_int_opt i with
      | Some i when i < Array.length bank -> bank.(i)
      | Some _ | None -> Bitvec.zero (Bitvec.width bank.(0)))
  | Var name -> List.assoc name params
  | Port _ | Const _ | Unop _ | Binop _ | Mux _ | Slice _ ->
      assert false (* ruled out by Typecheck *)

let eval_in_method rt params state e = eval (method_leaf rt params state) e

let select_impl rt meth state =
  match meth.m_kind with
  | Plain impl -> Some impl
  | Virtual impls -> (
      match rt.or_decl.o_tag with
      | None -> None
      | Some tag_field -> (
          let tag = state.os_fields.(Hashtbl.find rt.or_index tag_field) in
          match Bitvec.to_int_opt tag with
          | None -> None
          | Some tag -> List.assoc_opt tag impls))

let method_guard rt meth argv state =
  match select_impl rt meth state with
  | None -> false
  | Some impl -> truthy (eval_in_method rt argv state impl.mi_guard)

(* Parallel updates: every RHS (and the result) reads the pre-call state. *)
let method_body rt meth argv state =
  match select_impl rt meth state with
  | None -> assert false (* guard was true *)
  | Some impl ->
      let result = Option.map (eval_in_method rt argv state) impl.mi_result in
      let fields' = Array.copy state.os_fields in
      List.iter
        (fun (fname, e) ->
          fields'.(Hashtbl.find rt.or_index fname) <- eval_in_method rt argv state e)
        impl.mi_updates;
      let arrays' = Array.map Array.copy state.os_arrays in
      List.iter
        (fun (aname, idx, value) ->
          let bank = arrays'.(Hashtbl.find rt.or_arr_index aname) in
          match Bitvec.to_int_opt (eval_in_method rt argv state idx) with
          | Some i when i < Array.length bank ->
              bank.(i) <- eval_in_method rt argv state value
          | Some _ | None -> ())
        impl.mi_array_updates;
      ({ os_fields = fields'; os_arrays = arrays' }, result)

let make_object kernel (decl : object_decl) =
  let or_index = Hashtbl.create 8 in
  List.iteri (fun i (n, _, _) -> Hashtbl.replace or_index n i) decl.o_fields;
  let or_arr_index = Hashtbl.create 4 in
  List.iteri (fun i (n, _, _) -> Hashtbl.replace or_arr_index n i) decl.o_arrays;
  let init =
    {
      os_fields = Array.of_list (List.map (fun (_, _, v) -> v) decl.o_fields);
      os_arrays =
        Array.of_list
          (List.map (fun (_, w, depth) -> Array.make depth (Bitvec.zero w)) decl.o_arrays);
    }
  in
  {
    or_decl = decl;
    or_index;
    or_arr_index;
    or_obj = Global_object.create kernel ~name:decl.o_name ~policy:decl.o_policy init;
  }

let call_object rt ~priority ~meth args =
  let decl =
    match find_method rt.or_decl meth with
    | Some m -> m
    | None -> invalid_arg (Printf.sprintf "Interp: no method %s.%s" rt.or_decl.o_name meth)
  in
  let argv = List.map2 (fun (pname, _) v -> (pname, v)) decl.m_params args in
  Global_object.call rt.or_obj ~meth ~priority
    ~guard:(method_guard rt decl argv)
    (method_body rt decl argv)

(* --- processes --------------------------------------------------------- *)

let run_process t (proc : process_decl) =
  let locals : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (n, _, init) -> Hashtbl.replace locals n init) proc.p_locals;
  let leaf = function
    | Var name -> Hashtbl.find locals name
    | Port name -> Signal.read (Hashtbl.find t.it_inputs name)
    | Field _ | Index _ | Const _ | Unop _ | Binop _ | Mux _ | Slice _ -> assert false
  in
  let eval_here e = eval leaf e in
  let rec exec stmt =
    match stmt with
    | Set (name, e) -> Hashtbl.replace locals name (eval_here e)
    | Emit (name, e) -> Signal.write (Hashtbl.find t.it_outputs name) (eval_here e)
    | If (c, th, el) -> List.iter exec (if truthy (eval_here c) then th else el)
    | Case (sel, arms, default) ->
        let v = eval_here sel in
        let body =
          match
            List.find_opt
              (fun (labels, _) -> List.exists (Bitvec.equal v) labels)
              arms
          with
          | Some (_, body) -> body
          | None -> default
        in
        List.iter exec body
    | While (c, body) ->
        while truthy (eval_here c) do
          List.iter exec body
        done
    | Wait n -> Clock.wait_edges t.it_clock n
    | Call { co_obj; co_meth; co_args; co_bind } -> (
        let rt = Hashtbl.find t.it_objects co_obj in
        let args = List.map eval_here co_args in
        let result = call_object rt ~priority:proc.p_priority ~meth:co_meth args in
        match (co_bind, result) with
        | Some x, Some v -> Hashtbl.replace locals x v
        | Some x, None ->
            invalid_arg (Printf.sprintf "Interp: call bound to %S returned nothing" x)
        | None, _ -> ())
    | Halt -> raise Halted
  in
  try List.iter exec proc.p_body with Halted -> ()

(* --- elaboration ------------------------------------------------------- *)

let elaborate kernel ~clock design =
  Typecheck.check_exn design;
  let t =
    {
      it_clock = clock;
      it_design = design;
      it_inputs = Hashtbl.create 16;
      it_outputs = Hashtbl.create 16;
      it_objects = Hashtbl.create 8;
    }
  in
  List.iter
    (fun p ->
      let s =
        Signal.create kernel
          ~name:(design.d_name ^ "." ^ p.pt_name)
          ~eq:Bitvec.equal (Bitvec.zero p.pt_width)
      in
      match p.pt_dir with
      | In -> Hashtbl.replace t.it_inputs p.pt_name s
      | Out -> Hashtbl.replace t.it_outputs p.pt_name s)
    design.d_ports;
  List.iter
    (fun o -> Hashtbl.replace t.it_objects o.o_name (make_object kernel o))
    design.d_objects;
  List.iter
    (fun p ->
      ignore
        (Kernel.spawn kernel
           ~name:(design.d_name ^ "." ^ p.p_name)
           (fun () -> run_process t p)))
    design.d_processes;
  t

let design t = t.it_design
let in_port t name = Hashtbl.find t.it_inputs name
let out_port t name = Hashtbl.find t.it_outputs name

let object_state t name =
  let rt = Hashtbl.find t.it_objects name in
  let state = Global_object.peek rt.or_obj in
  List.mapi (fun i (n, _, _) -> (n, state.os_fields.(i))) rt.or_decl.o_fields

let object_arrays t name =
  let rt = Hashtbl.find t.it_objects name in
  let state = Global_object.peek rt.or_obj in
  List.mapi
    (fun i (n, _, _) -> (n, Array.to_list state.os_arrays.(i)))
    rt.or_decl.o_arrays

let native_call t ~obj ~meth ~args =
  let rt = Hashtbl.find t.it_objects obj in
  call_object rt ~priority:0 ~meth args
