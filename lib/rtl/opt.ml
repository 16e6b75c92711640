module Bitvec = Hlcs_logic.Bitvec
module Op = Hlcs_logic.Op
open Ir

(* --- constant folding -------------------------------------------------- *)

(* Structural identity of cheap leaves: safe to treat as the same value. *)
let same_leaf a b =
  match (a, b) with
  | Wire x, Wire y -> x.w_id = y.w_id
  | Reg x, Reg y -> x.r_id = y.r_id
  | Input (x, _), Input (y, _) -> x = y
  | Const x, Const y -> Bitvec.equal x y
  | _ -> false

let rec fold_expr e =
  match e with
  | Const _ | Wire _ | Reg _ | Input _ -> e
  | Unop (op, x) -> (
      match fold_expr x with
      | Const c -> Const (Op.eval_unop op c)
      | Unop (Not, inner) when op = Not -> inner
      | x' -> Unop (op, x'))
  | Binop (op, x, y) -> fold_binop op (fold_expr x) (fold_expr y)
  | Mux (c, a, b) -> (
      let c = fold_expr c and a = fold_expr a and b = fold_expr b in
      match c with
      | Const v -> if Bitvec.is_zero v then b else a
      | _ -> if same_leaf a b then a else Mux (c, a, b))
  | Slice (x, hi, lo) -> (
      let x = fold_expr x in
      match x with
      | Const c -> Const (Bitvec.slice c ~hi ~lo)
      | _ when lo = 0 && hi = expr_width x - 1 -> x
      | _ -> Slice (x, hi, lo))

and fold_binop op x y =
  let w = expr_width x in
  let is_zero = function Const c -> Bitvec.is_zero c | _ -> false in
  let is_ones = function Const c -> Bitvec.equal c (Bitvec.ones w) | _ -> false in
  match (op, x, y) with
  | _, Const a, Const b -> Const (Op.eval_binop op a b)
  (* identities *)
  | Add, a, b when is_zero b -> a
  | Add, a, b when is_zero a -> b
  | Sub, a, b when is_zero b -> a
  | And, a, b when is_zero a || is_zero b -> Const (Bitvec.zero w)
  | And, a, b when is_ones b -> a
  | And, a, b when is_ones a -> b
  | Or, a, b when is_zero b -> a
  | Or, a, b when is_zero a -> b
  | Or, a, b when is_ones a || is_ones b -> Const (Bitvec.ones w)
  | Xor, a, b when is_zero b -> a
  | Xor, a, b when is_zero a -> b
  | (Shl | Shr), a, b when is_zero b -> a
  | And, a, b when same_leaf a b -> a
  | Or, a, b when same_leaf a b -> a
  | Xor, a, b when same_leaf a b -> Const (Bitvec.zero w)
  | Eq, a, b when same_leaf a b -> Const (Bitvec.of_bool true)
  | Ne, a, b when same_leaf a b -> Const (Bitvec.of_bool false)
  | _ -> Binop (op, x, y)

let map_design f d =
  {
    d with
    rd_assigns = List.map (fun (w, e) -> (w, f e)) d.rd_assigns;
    rd_drives = List.map (fun (n, e) -> (n, f e)) d.rd_drives;
    rd_updates = List.map (fun (r, e) -> (r, f e)) d.rd_updates;
  }

let constant_fold d = map_design fold_expr d

(* --- copy propagation --------------------------------------------------- *)

let rec subst alias e =
  match e with
  | Wire w -> (
      match Hashtbl.find_opt alias w.w_id with Some e' -> e' | None -> e)
  | Const _ | Reg _ | Input _ -> e
  | Unop (op, x) -> Unop (op, subst alias x)
  | Binop (op, x, y) -> Binop (op, subst alias x, subst alias y)
  | Mux (c, a, b) -> Mux (subst alias c, subst alias a, subst alias b)
  | Slice (x, hi, lo) -> Slice (subst alias x, hi, lo)

let propagate_copies d =
  let alias : (int, expr) Hashtbl.t = Hashtbl.create (List.length d.rd_wires) in
  List.iter
    (fun (w, e) ->
      match e with
      | Const _ | Reg _ | Input _ -> Hashtbl.replace alias w.w_id e
      | Wire _ | Unop _ | Binop _ | Mux _ | Slice _ -> ())
    d.rd_assigns;
  (* chase wire -> wire chains through already-resolved aliases *)
  List.iter
    (fun (w, e) ->
      match e with
      | Wire inner -> (
          match Hashtbl.find_opt alias inner.w_id with
          | Some resolved -> Hashtbl.replace alias w.w_id resolved
          | None -> Hashtbl.replace alias w.w_id e)
      | Const _ | Reg _ | Input _ | Unop _ | Binop _ | Mux _ | Slice _ -> ())
    d.rd_assigns;
  if Hashtbl.length alias = 0 then d
  else
    let d = map_design (subst alias) d in
    (* aliased wires become dead; eliminate_dead removes them *)
    d

(* --- common-subexpression elimination ------------------------------------ *)

(* Hash-cons structurally identical wire expressions: walking the assigns
   in dependency order, the first wire computing a given right-hand side
   becomes the canonical one and every later duplicate is rewritten to a
   plain [Wire] copy of it (copy propagation then folds the copy away and
   dead-elimination drops the duplicate wire).  Expressions are pure data —
   [Bitvec.t] is kept normalised, so polymorphic equality and hashing agree
   with {!Bitvec.equal} — which makes the expression itself the table key.
   Substituting already-merged wires before keying makes sharing transitive:
   two adders over two merged copies collide too.  Leaves are skipped (a
   leaf right-hand side is an alias, copy propagation's job, not a shared
   computation). *)
let share_common d =
  (* sized from the design: growing a table keyed by expressions rehashes
     every expression in it *)
  let n = List.length d.rd_wires in
  let repl : (int, expr) Hashtbl.t = Hashtbl.create n in
  let seen : (expr, expr) Hashtbl.t = Hashtbl.create n in
  let assigns =
    List.map
      (fun (w, e) ->
        let e = if Hashtbl.length repl = 0 then e else subst repl e in
        match e with
        | Const _ | Wire _ | Reg _ | Input _ -> (w, e)
        | Unop _ | Binop _ | Mux _ | Slice _ -> (
            match Hashtbl.find_opt seen e with
            | Some canon ->
                Hashtbl.replace repl w.w_id canon;
                (w, canon)
            | None ->
                Hashtbl.replace seen e (Wire w);
                (w, e)))
      (Ir.topo_order d)
  in
  if Hashtbl.length repl = 0 then d
  else
    {
      d with
      rd_assigns = assigns;
      rd_drives = List.map (fun (n, e) -> (n, subst repl e)) d.rd_drives;
      rd_updates = List.map (fun (r, e) -> (r, subst repl e)) d.rd_updates;
    }

(* --- dead wire elimination ----------------------------------------------- *)

let eliminate_dead d =
  let n = List.length d.rd_wires in
  let live : (int, unit) Hashtbl.t = Hashtbl.create n in
  let by_id = Hashtbl.create n in
  List.iter (fun (w, e) -> Hashtbl.replace by_id w.w_id e) d.rd_assigns;
  (* transitively: a live wire's assignment keeps its sources live — one
     depth-first sweep from the root reads expands each wire at most once,
     so the pass is linear in the expression graph (the relink path calls
     it on every cache hit, where the old fixpoint's repeated re-marking
     was the single most expensive step) *)
  let rec reach e =
    match e with
    | Wire w ->
        if not (Hashtbl.mem live w.w_id) then begin
          Hashtbl.replace live w.w_id ();
          match Hashtbl.find_opt by_id w.w_id with
          | Some e' -> reach e'
          | None -> ()
        end
    | Const _ | Reg _ | Input _ -> ()
    | Unop (_, x) | Slice (x, _, _) -> reach x
    | Binop (_, x, y) ->
        reach x;
        reach y
    | Mux (c, a, b) ->
        reach c;
        reach a;
        reach b
  in
  List.iter (fun (_, e) -> reach e) d.rd_drives;
  List.iter (fun (_, e) -> reach e) d.rd_updates;
  {
    d with
    rd_wires = List.filter (fun w -> Hashtbl.mem live w.w_id) d.rd_wires;
    rd_assigns = List.filter (fun (w, _) -> Hashtbl.mem live w.w_id) d.rd_assigns;
  }

let passes =
  [
    ("constant_fold", constant_fold);
    ("propagate_copies", propagate_copies);
    ("share_common", share_common);
    ("eliminate_dead", eliminate_dead);
  ]

exception Verification_failed of string * string list

let optimize ?verify d =
  let apply d (name, f) =
    let d' = f d in
    (match verify with
    | None -> ()
    | Some check -> (
        match check ~pass:name ~before:d ~after:d' with
        | [] -> ()
        | msgs -> raise (Verification_failed (name, msgs))));
    d'
  in
  let pass d = List.fold_left apply d passes in
  let rec go n d =
    if n = 0 then d
    else
      let d' = pass d in
      if List.length d'.rd_wires = List.length d.rd_wires
         && d'.rd_assigns = d.rd_assigns
      then d'
      else go (n - 1) d'
  in
  go 8 d
