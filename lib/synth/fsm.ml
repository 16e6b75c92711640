module Ir = Hlcs_rtl.Ir
module Bitvec = Hlcs_logic.Bitvec

type edge = {
  e_cond : Ir.expr option;
  e_commits : (Ir.reg * Ir.expr) list;
  e_next : int;
}

type t = { mutable edges : edge list array; mutable count : int }

let create () = { edges = Array.make 8 []; count = 0 }

let fresh_state t =
  if t.count = Array.length t.edges then begin
    let bigger = Array.make (2 * t.count) [] in
    Array.blit t.edges 0 bigger 0 t.count;
    t.edges <- bigger
  end;
  let s = t.count in
  t.count <- s + 1;
  s

let add_edge t s e =
  if s < 0 || s >= t.count then invalid_arg "Fsm.add_edge: unknown state";
  let ids = List.map (fun ((r : Ir.reg), _) -> r.Ir.r_id) e.e_commits in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Fsm.add_edge: a register committed twice on one edge";
  t.edges.(s) <- t.edges.(s) @ [ e ]

let has_edges t s =
  if s < 0 || s >= t.count then invalid_arg "Fsm.has_edges: unknown state";
  t.edges.(s) <> []

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot t ~name =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "digraph \"%s\" {\n" (dot_escape name);
  Printf.bprintf buf "  rankdir=LR;\n  node [shape=circle, fontsize=10];\n";
  Printf.bprintf buf "  s0 [shape=doublecircle];\n";
  for s = 0 to t.count - 1 do
    List.iteri
      (fun i e ->
        let label =
          match e.e_cond with
          | None -> if i = 0 then "" else "else"
          | Some c -> dot_escape (Hlcs_rtl.Vhdl.expr_to_string c)
        in
        let commits =
          match List.length e.e_commits with
          | 0 -> ""
          | n -> Printf.sprintf " / %d" n
        in
        Printf.bprintf buf "  s%d -> s%d [label=\"%s%s\"];\n" s e.e_next label commits)
      t.edges.(s)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let state_count t = t.count

type request = { rq_name : string; rq_done : Ir.expr; rq_states : int list }
type realized = { rz_bits : Ir.reg array; rz_lines : Ir.expr list }

(* Every tree below reads at most [fan_in] nets per node, so one changed
   input re-evaluates a path of logarithmic length instead of a chain
   that grows with the machine. *)
let fan_in = 8

let b_false = Ir.Const (Bitvec.zero 1)
let and_ a b = Ir.Binop (Ir.And, a, b)
let or_ a b = Ir.Binop (Ir.Or, a, b)
let not_ a = Ir.Unop (Ir.Not, a)

let wire b name e =
  let w = Ir.fresh_wire b name (Ir.expr_width e) in
  Ir.assign b w e;
  Ir.Wire w

(* consecutive runs of at most [fan_in] *)
let runs xs =
  let rec go acc run n = function
    | [] -> List.rev (if run = [] then acc else List.rev run :: acc)
    | x :: rest ->
        if n = fan_in then go (List.rev run :: acc) [ x ] 1 rest
        else go acc (x :: run) (n + 1) rest
  in
  go [] [] 0 xs

(* the OR of the operands' expressions *)
let or_map expr = function
  | [] -> b_false
  | x :: rest -> List.fold_left (fun acc y -> or_ acc (expr y)) (expr x) rest

(* The top of an OR tree of fan-in 8 over [level], built bottom-up: runs
   of up to 8 operands become a wire named [name] until at most 8 are
   left.  [expr] reads an operand's expression, and [node w run] is the
   operand that stands for the wire [w] over the operands [run]. *)
let rec or_tree b ~name ~expr ~node level =
  if List.compare_length_with level fan_in <= 0 then level
  else
    or_tree b ~name ~expr ~node
      (List.map
         (function [ x ] -> x | run -> node (wire b name (or_map expr run)) run)
         (runs level))

let any b ~name xs =
  or_map Fun.id (or_tree b ~name ~expr:Fun.id ~node:(fun w _ -> w) xs)

(* The (enable, value) of whichever arm is enabled, for mutually
   exclusive enables: runs of arms become one enable wire (their OR) and
   one value wire (a mux chain closed by the run's last value, which is
   right whenever the run is enabled), until one arm is left. *)
let rec select b ~name = function
  | [] -> invalid_arg "Fsm.select: no arms"
  | [ arm ] -> arm
  | arms ->
      select b ~name
        (List.map
           (fun run ->
             match List.rev run with
             | [ arm ] -> arm
             | (_, last) :: earlier ->
                 let en = name ^ "_en" in
                 ( wire b en (any b ~name:en (List.map fst run)),
                   wire b (name ^ "_nx")
                     (List.fold_left (fun acc (en, v) -> Ir.Mux (en, v, acc)) last earlier) )
             | [] -> assert false)
           (runs arms))

(* A request's line is the OR tree of its states' bits.  Each inner node
   of that tree also gets a gate wire, its parent's gate (the root's is
   [rq_done] itself) ANDed with the node's OR, and [gates.(s)] receives
   state [s]'s: the gate of the node right above it. *)
let request_line builder bits gates rq =
  let gate_name = rq.rq_name ^ "_gate" in
  let node w run =
    ( w,
      fun g ->
        let g = wire builder gate_name (and_ g w) in
        List.iter (fun (_, down) -> down g) run )
  in
  let leaf s =
    if s < 0 || s >= Array.length bits then
      invalid_arg "Fsm.realize: a request names an unknown state";
    ( Ir.Reg bits.(s),
      fun g ->
        match gates.(s) with
        | Some _ -> invalid_arg "Fsm.realize: a state raises two requests"
        | None -> gates.(s) <- Some (rq.rq_done, g) )
  in
  let top =
    or_tree builder ~name:rq.rq_name ~expr:fst ~node (List.map leaf rq.rq_states)
  in
  List.iter (fun (_, down) -> down rq.rq_done) top;
  or_map fst top

let realize builder ~name ~requests t =
  if t.count = 0 then invalid_arg "Fsm.realize: machine has no states";
  let bits =
    Array.init t.count (fun s ->
        Ir.fresh_reg builder
          ~init:(Bitvec.of_int ~width:1 (if s = 0 then 1 else 0))
          (Printf.sprintf "%s_s%d" name s)
          1)
  in
  let gates = Array.make t.count None in
  let lines = List.map (request_line builder bits gates) requests in
  (* "Taken" per edge: in this state, this condition true, and no earlier
     condition of the same state true.  Edges after an unconditional one
     are dead and dropped.  A request state tests its request's [done]
     through its gate, which equals [done] whenever the state is set. *)
  let incoming = Array.make t.count [] in
  let own = Array.make t.count [] in
  let always_leaves = Array.make t.count false in
  let commits = Hashtbl.create 32 in
  for s = 0 to t.count - 1 do
    let here = Ir.Reg bits.(s) in
    let rec walk i blocked = function
      | [] -> ()
      | e :: rest -> (
          let cond =
            match (e.e_cond, gates.(s)) with
            | Some c, Some (done_, gate) when c == done_ -> Some gate
            | cond, _ -> cond
          in
          let guard =
            match (cond, blocked) with
            | None, None -> here
            | Some c, None -> and_ here c
            | None, Some b -> and_ here (not_ b)
            | Some c, Some b -> and_ (and_ here c) (not_ b)
          in
          let taken =
            if guard == here then here
            else wire builder (Printf.sprintf "%s_s%d_e%d" name s i) guard
          in
          own.(s) <- taken :: own.(s);
          incoming.(e.e_next) <- taken :: incoming.(e.e_next);
          List.iter
            (fun ((r : Ir.reg), v) ->
              match Hashtbl.find_opt commits r.Ir.r_id with
              | Some (_, sites) -> sites := (taken, v) :: !sites
              | None -> Hashtbl.replace commits r.Ir.r_id (r, ref [ (taken, v) ]))
            e.e_commits;
          match cond with
          | None -> always_leaves.(s) <- true
          | Some c ->
              walk (i + 1) (Some (match blocked with None -> c | Some b -> or_ b c)) rest)
    in
    walk 0 None t.edges.(s)
  done;
  (* A state bit is set next cycle when one of its incoming edges is
     taken, or when it is set and none of its own edges is taken (a state
     with an unconditional edge always leaves).  A bit with no way in and
     no way out holds its reset value. *)
  for s = 0 to t.count - 1 do
    let here = Ir.Reg bits.(s) in
    let stay =
      if always_leaves.(s) then []
      else
        match own.(s) with
        | [] -> [ here ]
        | takens ->
            let name = Printf.sprintf "%s_s%d_o" name s in
            [ and_ here (not_ (any builder ~name (List.rev takens))) ]
    in
    match (incoming.(s), stay) with
    | [], [ e ] when e == here -> ()
    | ins, stay ->
        let name = Printf.sprintf "%s_s%d_i" name s in
        Ir.update builder bits.(s) (any builder ~name (List.rev_append ins stay))
  done;
  (* Per committed register: sites grouped by committed value, one OR of
     their takens enabling each group, then a select over the groups.
     Takens are mutually exclusive, so at most one group is enabled.
     Deterministic output order: by register id, groups by first site. *)
  Hashtbl.fold (fun rid cell acc -> (rid, cell) :: acc) commits []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, ((r : Ir.reg), sites)) ->
         let name = r.Ir.r_name in
         let groups = Hashtbl.create 8 in
         let order = ref [] in
         List.iter
           (fun (taken, v) ->
             match Hashtbl.find_opt groups v with
             | Some ens -> ens := taken :: !ens
             | None ->
                 let ens = ref [ taken ] in
                 Hashtbl.replace groups v ens;
                 order := (v, ens) :: !order)
           (List.rev !sites);
         let arm (v, ens) =
           match List.rev !ens with
           | [ en ] -> (en, v)
           | ens ->
               let name = name ^ "_en" in
               (wire builder name (any builder ~name ens), v)
         in
         let en, v = select builder ~name (List.rev_map arm !order) in
         Ir.update builder r (Ir.Mux (en, v, Ir.Reg r)));
  { rz_bits = bits; rz_lines = lines }

let in_state rz s = Ir.Reg rz.rz_bits.(s)
let request_lines rz = rz.rz_lines
