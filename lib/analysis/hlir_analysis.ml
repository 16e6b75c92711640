module Ast = Hlcs_hlir.Ast
module Interp = Hlcs_hlir.Interp
module Lint = Hlcs_hlir.Lint
module Typecheck = Hlcs_hlir.Typecheck
module Policy = Hlcs_osss.Policy
module Bitvec = Hlcs_logic.Bitvec
module SS = Set.Make (String)

let rule_typecheck = "typecheck"
let rule_deadlock = "guard-deadlock"
let rule_starvation = "arbitration-starvation"

(* ------------------------------------------------------------------ *)
(* migration of the legacy emitters                                     *)

(* "process engine" / "object bus_if" -> structured scope *)
let scope_of_where where =
  let strip prefix =
    if String.length where > String.length prefix
       && String.sub where 0 (String.length prefix) = prefix
    then Some (String.sub where (String.length prefix)
                 (String.length where - String.length prefix))
    else None
  in
  match strip "process " with Some s -> Some s | None -> strip "object "

let lint_severity = function
  | "port-contention" -> Diag.Error (* the synthesiser rejects these outright *)
  | _ -> Diag.Warning

let of_lint_warning ~design (w : Lint.warning) =
  Diag.make
    ~severity:(lint_severity w.Lint.w_rule)
    ?scope:(scope_of_where w.Lint.w_where)
    ?path:w.Lint.w_path ~design ~rule:w.Lint.w_rule w.Lint.w_detail

let lint_diags (d : Ast.design) =
  List.map (of_lint_warning ~design:d.Ast.d_name) (Lint.check d)

(* Typecheck messages lead with their scope ("process p: ..." or
   "object o.m: ..."); recover it so the diagnostic stays structured. *)
let of_typecheck_message ~design msg =
  let scope, message =
    match String.index_opt msg ':' with
    | Some i when i > 0 ->
        let head = String.sub msg 0 i in
        let rest = String.sub msg (i + 1) (String.length msg - i - 1) in
        let rest = String.trim rest in
        (match scope_of_where head with
        | Some s -> (Some s, rest)
        | None ->
            (* object scopes come through as "obj.meth[: ...]" *)
            if String.contains head '.' && not (String.contains head ' ') then
              (Some head, rest)
            else (None, msg))
    | _ -> (None, msg)
  in
  Diag.make ~severity:Diag.Error ?scope ~design ~rule:rule_typecheck message

let typecheck_diags (d : Ast.design) =
  match Typecheck.check d with
  | Ok () -> []
  | Error msgs -> List.map (of_typecheck_message ~design:d.Ast.d_name) msgs

(* ------------------------------------------------------------------ *)
(* guard structure of the object methods                                *)

(* fields/arrays read by an expression in method scope (Var = parameter,
   excluded: parameters are caller-supplied, not shared state) *)
let rec state_reads acc = function
  | Ast.Field n -> SS.add n acc
  | Ast.Index (n, i) -> state_reads (SS.add n acc) i
  | Ast.Var _ | Ast.Port _ | Ast.Const _ -> acc
  | Ast.Unop (_, e) | Ast.Slice (e, _, _) -> state_reads acc e
  | Ast.Binop (_, a, b) -> state_reads (state_reads acc a) b
  | Ast.Mux (c, a, b) -> state_reads (state_reads (state_reads acc c) a) b

let impl_guard_fields acc (impl : Ast.method_impl) = state_reads acc impl.Ast.mi_guard

let impl_writes acc (impl : Ast.method_impl) =
  let acc = List.fold_left (fun acc (f, _) -> SS.add f acc) acc impl.Ast.mi_updates in
  List.fold_left (fun acc (a, _, _) -> SS.add a acc) acc impl.Ast.mi_array_updates

let is_const_true = function
  | Ast.Const bv -> not (Bitvec.is_zero bv)
  | _ -> false

(* three-valued evaluation of a guard over the object's initial state:
   [Some bv] when every leaf is known, [None] (unknown) as soon as a
   parameter, array element or width violation is involved *)
let eval_initial fields expr =
  let exception Unknown in
  let leaf = function
    | Ast.Field n -> (
        match List.assoc_opt n fields with Some bv -> bv | None -> raise Unknown)
    | _ -> raise Unknown
  in
  try Some (Interp.eval leaf expr) with Unknown | Invalid_argument _ -> None

type minfo = {
  mn_obj : string;
  mn_name : string;
  mn_guard : Ast.expr list;  (** one per implementation *)
  mn_guard_fields : SS.t;
  mn_writes : SS.t;
  mn_blocking : bool;  (** guard not syntactically constant-true *)
  mn_init_false : bool;  (** every implementation's guard is false initially *)
}

let method_infos (obj : Ast.object_decl) =
  let fields = List.map (fun (n, _, init) -> (n, init)) obj.Ast.o_fields in
  List.map
    (fun (m : Ast.method_decl) ->
      let impls =
        match m.Ast.m_kind with
        | Ast.Plain i -> [ i ]
        | Ast.Virtual is -> List.map snd is
      in
      let guards = List.map (fun i -> i.Ast.mi_guard) impls in
      let guard_fields =
        List.fold_left impl_guard_fields SS.empty impls |> fun gf ->
        (* virtual dispatch also reads the tag field *)
        match (m.Ast.m_kind, obj.Ast.o_tag) with
        | Ast.Virtual _, Some tag -> SS.add tag gf
        | _ -> gf
      in
      {
        mn_obj = obj.Ast.o_name;
        mn_name = m.Ast.m_name;
        mn_guard = guards;
        mn_guard_fields = guard_fields;
        mn_writes = List.fold_left impl_writes SS.empty impls;
        mn_blocking = not (List.for_all is_const_true guards);
        mn_init_false =
          guards <> []
          && List.for_all
               (fun g ->
                 match eval_initial fields g with
                 | Some bv -> Bitvec.is_zero bv
                 | None -> false)
               guards;
      })
    obj.Ast.o_methods

(* methods of the same object that can flip M's guard by writing the
   state it reads *)
let enablers_of infos_by_obj (m : minfo) =
  match Hashtbl.find_opt infos_by_obj m.mn_obj with
  | None -> []
  | Some ms ->
      List.filter
        (fun (m' : minfo) ->
          m'.mn_name <> m.mn_name
          && not (SS.is_empty (SS.inter m'.mn_writes m.mn_guard_fields)))
        ms

(* ------------------------------------------------------------------ *)
(* per-process call structure                                           *)

(* pre-order walk over a statement list: [f rev_path i c] gets each call
   with the reversed statement path of the block it sits in and its index
   there, which {!path_string} joins for the one call a diagnostic names *)
let iter_calls body f =
  let rec walk rev_path i = function
    | [] -> ()
    | stmt :: rest ->
        (match stmt with
        | Ast.Call c -> f rev_path i c
        | Ast.If (_, t, e) ->
            let here = string_of_int i :: rev_path in
            walk ("then" :: here) 0 t;
            walk ("else" :: here) 0 e
        | Ast.Case (_, arms, default) ->
            let here = string_of_int i :: rev_path in
            List.iteri
              (fun j (_, b) -> walk (Printf.sprintf "case%d" j :: here) 0 b)
              arms;
            walk ("default" :: here) 0 default
        | Ast.While (_, b) -> walk ("while" :: string_of_int i :: rev_path) 0 b
        | Ast.Set _ | Ast.Emit _ | Ast.Wait _ | Ast.Halt -> ());
        walk rev_path (i + 1) rest
  in
  walk [] 0 body

(* "2.then.0": call [i] of the block at [rev_path] *)
let path_string rev_path i = String.concat "." (List.rev (string_of_int i :: rev_path))

(* does the process call [obj] from inside a loop that never terminates? *)
let calls_in_infinite_loop (proc : Ast.process_decl) obj =
  let found = ref false in
  let rec walk in_loop = function
    | Ast.Call c -> if in_loop && c.Ast.co_obj = obj then found := true
    | Ast.If (_, t, e) ->
        List.iter (walk in_loop) t;
        List.iter (walk in_loop) e
    | Ast.Case (_, arms, default) ->
        List.iter (fun (_, b) -> List.iter (walk in_loop) b) arms;
        List.iter (walk in_loop) default
    | Ast.While (c, b) -> List.iter (walk (in_loop || is_const_true c)) b
    | Ast.Set _ | Ast.Emit _ | Ast.Wait _ | Ast.Halt -> ()
  in
  List.iter (walk false) proc.Ast.p_body;
  !found

type first_block = {
  fb_minfo : minfo;
  fb_path : string;
  fb_prior : (string * string) list;
      (** calls the process makes, on any path, before first blocking *)
}

(* The first call, in pre-order, whose guard is false on the initial
   object state and whose guard fields no earlier call of this process
   could have written.  A process stopped there has made exactly
   [fb_prior] calls — the basis of the wait-for graph. *)
let first_block methods (proc : Ast.process_decl) =
  let prior = ref [] in
  let written : (string, SS.t) Hashtbl.t = Hashtbl.create 4 in
  let blocked = ref None in
  iter_calls proc.Ast.p_body (fun rev_path i (c : Ast.call) ->
      if Option.is_none !blocked then
        match Hashtbl.find_opt methods (c.Ast.co_obj, c.Ast.co_meth) with
        | None -> ()
        | Some mi ->
            let prior_writes =
              Option.value ~default:SS.empty (Hashtbl.find_opt written mi.mn_obj)
            in
            if
              mi.mn_init_false
              && SS.is_empty (SS.inter prior_writes mi.mn_guard_fields)
            then
              blocked :=
                Some
                  {
                    fb_minfo = mi;
                    fb_path = path_string rev_path i;
                    fb_prior = List.rev !prior;
                  }
            else begin
              prior := (c.Ast.co_obj, c.Ast.co_meth) :: !prior;
              Hashtbl.replace written mi.mn_obj (SS.union prior_writes mi.mn_writes)
            end);
  !blocked

let all_calls (proc : Ast.process_decl) =
  let acc = ref [] in
  iter_calls proc.Ast.p_body (fun _ _ c ->
      if not (List.mem (c.Ast.co_obj, c.Ast.co_meth) !acc) then
        acc := (c.Ast.co_obj, c.Ast.co_meth) :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* the wait-for graph and its cycles                                    *)

(* Tarjan's strongly connected components over an adjacency list keyed by
   process name. *)
let sccs nodes successors =
  let index = Hashtbl.create 8 and low = Hashtbl.create 8 in
  let on_stack = Hashtbl.create 8 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (successors v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

(* an explicit cycle inside an SCC, for the witness message *)
let witness_cycle scc successors =
  match scc with
  | [] -> []
  | start :: _ ->
      let in_scc v = List.mem v scc in
      let rec dfs visited v =
        if List.mem start (successors v) && visited <> [] then Some (List.rev (v :: visited))
        else
          List.fold_left
            (fun acc w ->
              match acc with
              | Some _ -> acc
              | None ->
                  if in_scc w && not (List.mem w (v :: visited)) && w <> start then
                    dfs (v :: visited) w
                  else None)
            None (successors v)
      in
      (match dfs [] start with Some cyc -> cyc | None -> scc)

let deadlock_diags (d : Ast.design) =
  let design = d.Ast.d_name in
  let infos_by_obj = Hashtbl.create 8 in
  let methods = Hashtbl.create 32 in
  List.iter
    (fun obj ->
      let ms = method_infos obj in
      Hashtbl.replace infos_by_obj obj.Ast.o_name ms;
      List.iter (fun mi -> Hashtbl.replace methods (mi.mn_obj, mi.mn_name) mi) ms)
    d.Ast.d_objects;
  let diags = ref [] in
  let add diag = diags := diag :: !diags in
  let blocks =
    List.filter_map
      (fun p ->
        Option.map (fun fb -> (p, fb)) (first_block methods p))
      d.Ast.d_processes
  in
  let fb_of name =
    List.find_opt (fun ((p : Ast.process_decl), _) -> p.Ast.p_name = name) blocks
  in
  (* each process's calls, listed once: (object, method) -> the processes
     calling it, in no particular order (every use sorts them) *)
  let callers = Hashtbl.create 16 in
  List.iter
    (fun (p : Ast.process_decl) ->
      List.iter
        (fun key ->
          let others = Option.value ~default:[] (Hashtbl.find_opt callers key) in
          Hashtbl.replace callers key (p.Ast.p_name :: others))
        (all_calls p))
    d.Ast.d_processes;
  let callers_of (mi : minfo) =
    Option.value ~default:[] (Hashtbl.find_opt callers (mi.mn_obj, mi.mn_name))
  in
  let qualified mi = mi.mn_obj ^ "." ^ mi.mn_name in
  let fields_str mi = String.concat ", " (SS.elements mi.mn_guard_fields) in
  (* 1. permanent blocks: the guard can never be (re-)enabled at all, or
     only by the blocked process itself *)
  List.iter
    (fun ((p : Ast.process_decl), fb) ->
      let mi = fb.fb_minfo in
      let enablers = enablers_of infos_by_obj mi in
      if enablers = [] then
        add
          (Diag.make ~severity:Diag.Error ~scope:p.Ast.p_name ~path:fb.fb_path ~design
             ~rule:rule_deadlock
             (Printf.sprintf
                "process blocks on %s: the guard reads {%s} but no other method of \
                 %S writes those fields, so it can never become true"
                (qualified mi) (fields_str mi) mi.mn_obj))
      else
        let other_callers =
          List.concat_map callers_of enablers
          |> List.filter (fun q -> q <> p.Ast.p_name)
          |> List.sort_uniq compare
        in
        if other_callers = [] then
          add
            (Diag.make ~severity:Diag.Error ~scope:p.Ast.p_name ~path:fb.fb_path
               ~design ~rule:rule_deadlock
               (Printf.sprintf
                  "process blocks on %s and only the blocked process itself calls \
                   the enabling method(s) %s"
                  (qualified mi)
                  (String.concat ", " (List.map qualified enablers)))))
    blocks;
  (* 2. circular waits: P is blocked and every process that could enable
     it is (transitively) blocked the same way *)
  let nodes = List.map (fun ((p : Ast.process_decl), _) -> p.Ast.p_name) blocks in
  let successors v =
    match fb_of v with
    | None -> []
    | Some (_, fb) ->
        enablers_of infos_by_obj fb.fb_minfo
        |> List.concat_map callers_of
        |> List.filter (fun q -> q <> v && List.mem q nodes)
        |> List.sort_uniq compare
  in
  let components = sccs nodes successors in
  List.iter
    (fun scc ->
      if List.length scc >= 2 then begin
        (* a process that performed an enabling call before blocking broke
           the circularity: some cycle member can be released *)
        let dismissed =
          List.exists
            (fun p ->
              match fb_of p with
              | None -> false
              | Some (_, fb) ->
                  List.exists
                    (fun q ->
                      match fb_of q with
                      | None -> false
                      | Some (_, fbq) ->
                          q <> p
                          && List.exists
                               (fun (o, m) ->
                                 List.exists
                                   (fun (e : minfo) ->
                                     e.mn_obj = o && e.mn_name = m)
                                   (enablers_of infos_by_obj fbq.fb_minfo))
                               fb.fb_prior)
                    scc)
            scc
        in
        if not dismissed then
          let cycle = witness_cycle scc successors in
          let leg p =
            match fb_of p with
            | None -> p
            | Some (_, fb) ->
                Printf.sprintf "%s waits on %s (guard reads {%s})" p
                  (qualified fb.fb_minfo)
                  (fields_str fb.fb_minfo)
          in
          let witness = String.concat " -> " (List.map leg cycle @ [ List.hd cycle ]) in
          add
            (Diag.make ~severity:Diag.Error ~scope:(List.hd cycle) ~design
               ~rule:rule_deadlock
               (Printf.sprintf
                  "potential deadlock: circular wait between guarded methods; \
                   witness cycle: %s"
                  witness))
      end)
    components;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* starvation under the object's arbitration policy                     *)

let starvation_diags (d : Ast.design) =
  let design = d.Ast.d_name in
  List.concat_map
    (fun (obj : Ast.object_decl) ->
      match obj.Ast.o_policy with
      | Policy.Fcfs | Policy.Round_robin ->
          (* age-ordered and rotating grants are starvation-free *)
          []
      | Policy.Static_priority ->
          let callers =
            List.filter
              (fun (p : Ast.process_decl) ->
                List.exists (fun (o, _) -> o = obj.Ast.o_name) (all_calls p))
              d.Ast.d_processes
          in
          let prios = List.sort_uniq compare (List.map (fun p -> p.Ast.p_priority) callers) in
          if List.length callers < 2 || List.length prios < 2 then []
          else
            let top = List.fold_left max min_int prios in
            let greedy =
              List.filter
                (fun (p : Ast.process_decl) ->
                  p.Ast.p_priority = top
                  && calls_in_infinite_loop p obj.Ast.o_name)
                callers
            in
            let losers =
              List.filter (fun (p : Ast.process_decl) -> p.Ast.p_priority < top) callers
            in
            List.concat_map
              (fun (g : Ast.process_decl) ->
                List.map
                  (fun (l : Ast.process_decl) ->
                    Diag.make ~severity:Diag.Warning ~scope:obj.Ast.o_name ~design
                      ~rule:rule_starvation
                      (Printf.sprintf
                         "static-priority arbitration: process %S (priority %d) calls \
                          %S from a non-terminating loop, so process %S (priority %d) \
                          may starve"
                         g.Ast.p_name g.Ast.p_priority obj.Ast.o_name l.Ast.p_name
                         l.Ast.p_priority))
                  losers)
              greedy)
    d.Ast.d_objects

(* ------------------------------------------------------------------ *)

let analyze (d : Ast.design) =
  typecheck_diags d @ lint_diags d @ deadlock_diags d @ starvation_diags d
