module Bitvec = Hlcs_logic.Bitvec
open Ir

(* Lowering of a validated design into dense integer-indexed tables, and the
   levelized incremental evaluator that runs over them.

   Net numbering packs every value-carrying entity into one id space:

     [0, ni)            the inputs, in rd_inputs order
     [ni, ni+nr)        the registers, offset by r_id
     [ni+nr, ...)       the wires, offset by w_id

   Each assigned wire becomes one evaluation node.  Nodes carry a
   combinational level (1 + max level of the nets they read; inputs,
   registers and constants sit at level 0), and the node array is sorted by
   (level, topological position) so a single ascending pass respects every
   dependency.  A settle drains per-level dirty buckets: evaluating a node
   whose value changed queues the nodes reading its target net, and since a
   reader's level is strictly greater than its writer's, the one ascending
   pass visits each queued node at most once and never revisits a level.

   Values of nets up to [max_fast] bits live unboxed as raw ints in a flat
   array; only wider nets carry Bitvec.t slots.  OCaml's native int
   arithmetic wraps modulo 2^62 (or more), so masking with [2^w - 1] after
   every operation is exact for any fast width.

   The static part of the lowering — validation, levelization, fanout
   adjacency and the compiled evaluation closures — is split into an
   immutable [plan] shared by every simulation of the same design (the
   synthesis cache hands out physically identical designs, so repeated runs
   hit the plan memo and instantiation reduces to allocating the per-run
   value arrays).  Closures read and write state through the instance they
   are passed, never through captured mutable cells, so a plan can be
   shared across domains. *)

let max_fast = min 62 (Sys.int_size - 1)

(* [w <= max_fast <= 62]: [1 lsl 62 - 1] wraps to [max_int] on 64-bit,
   which is exactly the 62-bit mask. *)
let mask_of w = (1 lsl w) - 1

let parity v =
  let v = v lxor (v lsr 32) in
  let v = v lxor (v lsr 16) in
  let v = v lxor (v lsr 8) in
  let v = v lxor (v lsr 4) in
  let v = v lxor (v lsr 2) in
  let v = v lxor (v lsr 1) in
  v land 1

type t = {
  c_plan : plan;
  c_ival : int array;
  c_bval : Bitvec.t array;
  c_u_queued : bool array;
  c_u_stack : int array;
  c_u_cur : int array;  (** scratch: the updates drained this edge *)
  mutable c_u_len : int;
  c_u_ni : int array;  (** staged next values, fast updates *)
  c_u_nb : Bitvec.t array;  (** staged next values, wide updates *)
  mutable c_drives : (string * (unit -> Bitvec.t)) array;
  c_buckets : int array array;
  c_bucket_len : int array;
  c_queued : bool array;
  mutable c_pending : int;
  mutable k_settles : int;
  mutable k_evaluated : int;
  mutable k_skipped : int;
  mutable k_cone_max : int;
  mutable k_fast : int;
  mutable k_wide : int;
  mutable k_upd_evals : int;
  mutable k_upd_skipped : int;
}

and plan = {
  p_design : design;
  p_ni : int;
  p_net_fast : bool array;
  p_width : int array;
  p_init_ival : int array;
  p_init_bval : Bitvec.t array;
  p_nodes : node array;
  p_fanout : int array array;  (** net id -> node indices reading it *)
  p_ufanout : int array array;  (** net id -> update indices reading it *)
  p_updates : upd array;
  p_drives : pdrive array;
  p_max_level : int;
  p_per_level : int array;  (** nodes at each level, [0..max_level] *)
}

(* A compiled expression is [Fast] exactly when its result width fits the
   unboxed representation; sub-trees convert at the boundary (a reduction
   of a wide vector is Fast, a concat of two fast halves into a wide result
   boxes its halves). *)
and fn = Fast of (t -> int) | Wide of (t -> Bitvec.t)

and node = {
  n_net : int;  (** target net id *)
  n_level : int;
  n_fast : bool;  (** the whole tree evaluates unboxed *)
  n_eval : t -> bool;  (** evaluate and store; true iff the value changed *)
}

and upd = {
  up_net : int;
  up_fast : bool;
  up_f : t -> int;  (** meaningful iff [up_fast] *)
  up_g : t -> Bitvec.t;  (** meaningful iff [not up_fast] *)
}

and pdrive = { d_name : string; d_width : int; d_kind : dkind }

and dkind =
  | D_wide of (t -> Bitvec.t)
  | D_bool of (t -> int)  (** width-1 fast drive: interned of_bool boxing *)
  | D_int of (t -> int)  (** fast drive with per-instance memoized boxing *)

let broken_invariant () = invalid_arg "Rtl.Compile: width invariant broken"

let build_plan design =
  (match Ir.validate design with
  | Ok () -> ()
  | Error (d :: _) -> invalid_arg ("Rtl.Compile.compile: " ^ d)
  | Error [] -> ());
  let ni = List.length design.rd_inputs in
  let nr = List.fold_left (fun m r -> max m (r.r_id + 1)) 0 design.rd_regs in
  let nw = List.fold_left (fun m w -> max m (w.w_id + 1)) 0 design.rd_wires in
  let n_nets = ni + nr + nw in
  let net_of_reg r = ni + r.r_id in
  let net_of_wire w = ni + nr + w.w_id in
  let input_index = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace input_index name i) design.rd_inputs;
  let width = Array.make (max 1 n_nets) 1 in
  List.iteri (fun i (_, w) -> width.(i) <- w) design.rd_inputs;
  List.iter (fun r -> width.(net_of_reg r) <- r.r_width) design.rd_regs;
  List.iter (fun w -> width.(net_of_wire w) <- w.w_width) design.rd_wires;
  let net_fast = Array.map (fun w -> w <= max_fast) width in
  let init_ival = Array.make (max 1 n_nets) 0 in
  let init_bval = Array.make (max 1 n_nets) (Bitvec.zero 1) in
  for n = 0 to n_nets - 1 do
    if not net_fast.(n) then init_bval.(n) <- Bitvec.zero width.(n)
  done;
  List.iter
    (fun r ->
      let n = net_of_reg r in
      if net_fast.(n) then init_ival.(n) <- Bitvec.to_int r.r_init
      else init_bval.(n) <- r.r_init)
    design.rd_regs;
  (* levelization over the validated (acyclic) assignment order *)
  let order = Ir.topo_order design in
  let wire_level = Array.make (max 1 nw) 0 in
  let rec lvl = function
    | Wire w -> wire_level.(w.w_id)
    | Const _ | Reg _ | Input _ -> 0
    | Unop (_, x) | Slice (x, _, _) -> lvl x
    | Binop (_, x, y) -> max (lvl x) (lvl y)
    | Mux (c, a, b) -> max (lvl c) (max (lvl a) (lvl b))
  in
  List.iter (fun (w, e) -> wire_level.(w.w_id) <- 1 + lvl e) order;
  let nodes_src =
    Array.of_list
      (List.stable_sort
         (fun (w1, _) (w2, _) -> compare wire_level.(w1.w_id) wire_level.(w2.w_id))
         order)
  in
  (* per-net fanout: which node indices read each net *)
  let rec deps acc = function
    | Wire w -> net_of_wire w :: acc
    | Reg r -> net_of_reg r :: acc
    | Input (name, _) -> Hashtbl.find input_index name :: acc
    | Const _ -> acc
    | Unop (_, x) | Slice (x, _, _) -> deps acc x
    | Binop (_, x, y) -> deps (deps acc x) y
    | Mux (c, a, b) -> deps (deps (deps acc c) a) b
  in
  let fanout_l = Array.make (max 1 n_nets) [] in
  Array.iteri
    (fun i (_, e) ->
      List.iter
        (fun n -> fanout_l.(n) <- i :: fanout_l.(n))
        (List.sort_uniq compare (deps [] e)))
    nodes_src;
  let fanout = Array.map (fun l -> Array.of_list (List.rev l)) fanout_l in
  (* register update-cone maps: which updates must re-evaluate when a net
     changes.  A register reading itself re-queues its own update on
     commit, which is exactly the re-evaluation the next edge needs. *)
  let ufanout_l = Array.make (max 1 n_nets) [] in
  List.iteri
    (fun i (_, e) ->
      List.iter
        (fun n -> ufanout_l.(n) <- i :: ufanout_l.(n))
        (List.sort_uniq compare (deps [] e)))
    design.rd_updates;
  let ufanout = Array.map (fun l -> Array.of_list (List.rev l)) ufanout_l in
  (* expression compiler; [wide_seen] classifies whole trees for the
     fast/wide evaluation counters *)
  let wide_seen = ref false in
  let wide g =
    wide_seen := true;
    Wide g
  in
  let as_bitvec w = function
    | Wide g -> g
    | Fast f ->
        if w = 1 then fun t -> Bitvec.of_bool (f t <> 0)
        else fun t -> Bitvec.of_int ~width:w (f t)
  in
  let rec comp e =
    let w = expr_width e in
    match e with
    | Const bv ->
        if w <= max_fast then
          let v = Bitvec.to_int bv in
          Fast (fun _ -> v)
        else wide (fun _ -> bv)
    | Wire wr ->
        let n = net_of_wire wr in
        if w <= max_fast then Fast (fun t -> t.c_ival.(n))
        else wide (fun t -> t.c_bval.(n))
    | Reg r ->
        let n = net_of_reg r in
        if w <= max_fast then Fast (fun t -> t.c_ival.(n))
        else wide (fun t -> t.c_bval.(n))
    | Input (name, _) ->
        let n = Hashtbl.find input_index name in
        if w <= max_fast then Fast (fun t -> t.c_ival.(n))
        else wide (fun t -> t.c_bval.(n))
    | Unop (op, x) -> (
        match op with
        | Not -> (
            match comp x with
            | Fast f ->
                let m = mask_of w in
                Fast (fun t -> lnot (f t) land m)
            | Wide g -> wide (fun t -> Bitvec.lognot (g t)))
        | Neg -> (
            match comp x with
            | Fast f ->
                let m = mask_of w in
                Fast (fun t -> -f t land m)
            | Wide g -> wide (fun t -> Bitvec.neg (g t)))
        | Reduce_or -> (
            match comp x with
            | Fast f -> Fast (fun t -> if f t <> 0 then 1 else 0)
            | Wide g -> Fast (fun t -> if Bitvec.reduce_or (g t) then 1 else 0))
        | Reduce_and -> (
            match comp x with
            | Fast f ->
                let m = mask_of (expr_width x) in
                Fast (fun t -> if f t = m then 1 else 0)
            | Wide g -> Fast (fun t -> if Bitvec.reduce_and (g t) then 1 else 0))
        | Reduce_xor -> (
            match comp x with
            | Fast f -> Fast (fun t -> parity (f t))
            | Wide g -> Fast (fun t -> if Bitvec.reduce_xor (g t) then 1 else 0)))
    | Binop (op, x, y) -> (
        match op with
        | (Add | Sub | Mul | And | Or | Xor) as op -> (
            match (comp x, comp y) with
            | Fast f, Fast g -> (
                let m = mask_of w in
                match op with
                | Add -> Fast (fun t -> (f t + g t) land m)
                | Sub -> Fast (fun t -> (f t - g t) land m)
                | Mul -> Fast (fun t -> f t * g t land m)
                | And -> Fast (fun t -> f t land g t)
                | Or -> Fast (fun t -> f t lor g t)
                | Xor -> Fast (fun t -> f t lxor g t)
                | _ -> broken_invariant ())
            | Wide f, Wide g -> (
                match op with
                | Add -> wide (fun t -> Bitvec.add (f t) (g t))
                | Sub -> wide (fun t -> Bitvec.sub (f t) (g t))
                | Mul -> wide (fun t -> Bitvec.mul (f t) (g t))
                | And -> wide (fun t -> Bitvec.logand (f t) (g t))
                | Or -> wide (fun t -> Bitvec.logor (f t) (g t))
                | Xor -> wide (fun t -> Bitvec.logxor (f t) (g t))
                | _ -> broken_invariant ())
            | _ -> broken_invariant ())
        | (Eq | Ne | Lt | Le | Gt | Ge) as op -> (
            match (comp x, comp y) with
            | Fast f, Fast g -> (
                (* fast values are masked and non-negative: native compare
                   is the unsigned compare *)
                match op with
                | Eq -> Fast (fun t -> if f t = g t then 1 else 0)
                | Ne -> Fast (fun t -> if f t <> g t then 1 else 0)
                | Lt -> Fast (fun t -> if f t < g t then 1 else 0)
                | Le -> Fast (fun t -> if f t <= g t then 1 else 0)
                | Gt -> Fast (fun t -> if f t > g t then 1 else 0)
                | Ge -> Fast (fun t -> if f t >= g t then 1 else 0)
                | _ -> broken_invariant ())
            | Wide f, Wide g -> (
                match op with
                | Eq -> Fast (fun t -> if Bitvec.equal (f t) (g t) then 1 else 0)
                | Ne -> Fast (fun t -> if Bitvec.equal (f t) (g t) then 0 else 1)
                | Lt ->
                    Fast (fun t -> if Bitvec.compare_unsigned (f t) (g t) < 0 then 1 else 0)
                | Le ->
                    Fast (fun t -> if Bitvec.compare_unsigned (f t) (g t) <= 0 then 1 else 0)
                | Gt ->
                    Fast (fun t -> if Bitvec.compare_unsigned (f t) (g t) > 0 then 1 else 0)
                | Ge ->
                    Fast (fun t -> if Bitvec.compare_unsigned (f t) (g t) >= 0 then 1 else 0)
                | _ -> broken_invariant ())
            | _ -> broken_invariant ())
        | Shl | Shr -> (
            let amount =
              match comp y with
              | Fast g -> g
              | Wide g -> fun t -> shift_amount (g t)
            in
            match comp x with
            | Fast f -> (
                let m = mask_of w in
                match op with
                | Shl ->
                    Fast
                      (fun t ->
                        let n = amount t in
                        if n >= w then 0 else f t lsl n land m)
                | Shr ->
                    Fast
                      (fun t ->
                        let n = amount t in
                        if n >= w then 0 else f t lsr n)
                | _ -> broken_invariant ())
            | Wide g -> (
                match op with
                | Shl ->
                    wide
                      (fun t ->
                        let a = g t in
                        Bitvec.shift_left a (min (Bitvec.width a) (amount t)))
                | Shr ->
                    wide
                      (fun t ->
                        let a = g t in
                        Bitvec.shift_right a (min (Bitvec.width a) (amount t)))
                | _ -> broken_invariant ()))
        | Concat ->
            if w <= max_fast then (
              match (comp x, comp y) with
              | Fast f, Fast g ->
                  let wy = expr_width y in
                  Fast (fun t -> (f t lsl wy) lor g t)
              | _ -> broken_invariant ())
            else
              let bx = as_bitvec (expr_width x) (comp x) in
              let by = as_bitvec (expr_width y) (comp y) in
              wide (fun t -> Bitvec.concat (bx t) (by t)))
    | Mux (c, a, b) -> (
        let fc = match comp c with Fast f -> f | Wide _ -> broken_invariant () in
        match (comp a, comp b) with
        | Fast fa, Fast fb -> Fast (fun t -> if fc t = 0 then fb t else fa t)
        | Wide ga, Wide gb -> wide (fun t -> if fc t = 0 then gb t else ga t)
        | _ -> broken_invariant ())
    | Slice (x, hi, lo) -> (
        match comp x with
        | Fast f ->
            let m = mask_of w in
            Fast (fun t -> (f t lsr lo) land m)
        | Wide g ->
            if w <= max_fast then
              Fast (fun t -> Bitvec.to_int (Bitvec.slice (g t) ~hi ~lo))
            else wide (fun t -> Bitvec.slice (g t) ~hi ~lo))
  in
  let comp_root e =
    wide_seen := false;
    let fn = comp e in
    (fn, not !wide_seen)
  in
  let nodes =
    Array.map
      (fun (wr, e) ->
        let net = net_of_wire wr in
        let fn, pure = comp_root e in
        let eval =
          match fn with
          | Fast f ->
              fun t ->
                let v = f t in
                if v = t.c_ival.(net) then false
                else begin
                  t.c_ival.(net) <- v;
                  true
                end
          | Wide g ->
              fun t ->
                let v = g t in
                if Bitvec.equal t.c_bval.(net) v then false
                else begin
                  t.c_bval.(net) <- v;
                  true
                end
        in
        { n_net = net; n_level = wire_level.(wr.w_id); n_fast = pure; n_eval = eval })
      nodes_src
  in
  let max_level = Array.fold_left (fun m nd -> max m nd.n_level) 0 nodes in
  let per_level = Array.make (max_level + 1) 0 in
  Array.iter (fun nd -> per_level.(nd.n_level) <- per_level.(nd.n_level) + 1) nodes;
  let updates =
    Array.of_list
      (List.map
         (fun (r, e) ->
           let net = net_of_reg r in
           let fn, _ = comp_root e in
           match fn with
           | Fast f ->
               { up_net = net; up_fast = true; up_f = f; up_g = (fun _ -> Bitvec.zero 1) }
           | Wide g ->
               { up_net = net; up_fast = false; up_f = (fun _ -> 0); up_g = g })
         design.rd_updates)
  in
  let drives =
    Array.of_list
      (List.map
         (fun (name, e) ->
           let w = expr_width e in
           let fn, _ = comp_root e in
           let kind =
             match fn with
             | Wide g -> D_wide g
             | Fast f -> if w = 1 then D_bool f else D_int f
           in
           { d_name = name; d_width = w; d_kind = kind })
         design.rd_drives)
  in
  {
    p_design = design;
    p_ni = ni;
    p_net_fast = net_fast;
    p_width = width;
    p_init_ival = init_ival;
    p_init_bval = init_bval;
    p_nodes = nodes;
    p_fanout = fanout;
    p_ufanout = ufanout;
    p_updates = updates;
    p_drives = drives;
    p_max_level = max_level;
    p_per_level = per_level;
  }

(* Plan memo, keyed on the *physical* design: the synthesis cache returns
   the same report object for repeated runs, so re-simulating a cached
   design skips validation, levelization and closure compilation entirely.
   The memo keeps the last [max_plans] designs in a list under a mutex:
   it pays off for runs that repeat a recent design, not for a cache
   that cycles through hundreds of them, and a racy duplicate build is
   only wasted work, never wrong. *)
let plans_lock = Mutex.create ()
let plans : (design * plan) list ref = ref []
let max_plans = 8

let plan_of design =
  Mutex.lock plans_lock;
  let hit =
    List.find_map (fun (d, p) -> if d == design then Some p else None) !plans
  in
  Mutex.unlock plans_lock;
  match hit with
  | Some p -> p
  | None ->
      let p = build_plan design in
      Mutex.lock plans_lock;
      plans := (design, p) :: List.filteri (fun i _ -> i < max_plans - 1) !plans;
      Mutex.unlock plans_lock;
      p

let instantiate p =
  let n_nodes = Array.length p.p_nodes in
  let n_updates = Array.length p.p_updates in
  let t =
    {
      c_plan = p;
      c_ival = Array.copy p.p_init_ival;
      c_bval = Array.copy p.p_init_bval;
      (* every update starts queued: the first edge evaluates them all *)
      c_u_queued = Array.make (max 1 n_updates) true;
      c_u_stack = Array.init (max 1 n_updates) (fun i -> i);
      c_u_cur = Array.make (max 1 n_updates) 0;
      c_u_len = n_updates;
      c_u_ni = Array.make (max 1 n_updates) 0;
      c_u_nb = Array.make (max 1 n_updates) (Bitvec.zero 1);
      c_drives = [||];
      c_buckets =
        Array.init (p.p_max_level + 1) (fun l -> Array.make (max 1 p.p_per_level.(l)) 0);
      c_bucket_len = Array.make (p.p_max_level + 1) 0;
      c_queued = Array.make (max 1 n_nodes) false;
      c_pending = 0;
      k_settles = 0;
      k_evaluated = 0;
      k_skipped = 0;
      k_cone_max = 0;
      k_fast = 0;
      k_wide = 0;
      k_upd_evals = 0;
      k_upd_skipped = 0;
    }
  in
  t.c_drives <-
    Array.map
      (fun d ->
        match d.d_kind with
        | D_wide g -> (d.d_name, fun () -> g t)
        | D_bool f -> (d.d_name, fun () -> Bitvec.of_bool (f t <> 0))
        | D_int f ->
            (* memoize the boxing: in the steady state a stable output
               re-uses the previous Bitvec, so driving costs no
               allocation *)
            let last_i = ref min_int in
            let last_b = ref (Bitvec.zero d.d_width) in
            ( d.d_name,
              fun () ->
                let v = f t in
                if v <> !last_i then begin
                  last_i := v;
                  last_b := Bitvec.of_int ~width:d.d_width v
                end;
                !last_b ))
      p.p_drives;
  t

let compile design = instantiate (plan_of design)

(* [net] changed value: queue the nodes and the register updates reading it *)
let mark t net =
  let fo = t.c_plan.p_fanout.(net) in
  let nodes = t.c_plan.p_nodes and queued = t.c_queued in
  for k = 0 to Array.length fo - 1 do
    let i = fo.(k) in
    if not queued.(i) then begin
      queued.(i) <- true;
      t.c_pending <- t.c_pending + 1;
      let lv = nodes.(i).n_level in
      let len = t.c_bucket_len.(lv) in
      t.c_buckets.(lv).(len) <- i;
      t.c_bucket_len.(lv) <- len + 1
    end
  done;
  let ufo = t.c_plan.p_ufanout.(net) in
  let uq = t.c_u_queued in
  for k = 0 to Array.length ufo - 1 do
    let i = ufo.(k) in
    if not uq.(i) then begin
      uq.(i) <- true;
      t.c_u_stack.(t.c_u_len) <- i;
      t.c_u_len <- t.c_u_len + 1
    end
  done

let settle t =
  if t.c_pending > 0 then begin
    let nodes = t.c_plan.p_nodes in
    let evaluated = ref 0 in
    (* dirty nodes propagate strictly upward in level, so one ascending
       pass drains everything; within a level the order is irrelevant *)
    for lv = 1 to t.c_plan.p_max_level do
      let b = t.c_buckets.(lv) in
      let n = t.c_bucket_len.(lv) in
      t.c_bucket_len.(lv) <- 0;
      for k = 0 to n - 1 do
        let i = b.(k) in
        t.c_queued.(i) <- false;
        let nd = nodes.(i) in
        incr evaluated;
        if nd.n_fast then t.k_fast <- t.k_fast + 1 else t.k_wide <- t.k_wide + 1;
        if nd.n_eval t then mark t nd.n_net
      done
    done;
    t.c_pending <- 0;
    t.k_settles <- t.k_settles + 1;
    t.k_evaluated <- t.k_evaluated + !evaluated;
    t.k_skipped <- t.k_skipped + (Array.length nodes - !evaluated);
    if !evaluated > t.k_cone_max then t.k_cone_max <- !evaluated
  end

let full_settle t =
  let nodes = t.c_plan.p_nodes in
  for i = 0 to Array.length nodes - 1 do
    let nd = nodes.(i) in
    if nd.n_fast then t.k_fast <- t.k_fast + 1 else t.k_wide <- t.k_wide + 1;
    ignore (nd.n_eval t)
  done;
  (* everything is freshly evaluated: drop any queued dirt *)
  Array.fill t.c_bucket_len 0 (Array.length t.c_bucket_len) 0;
  Array.fill t.c_queued 0 (Array.length t.c_queued) false;
  t.c_pending <- 0;
  t.k_settles <- t.k_settles + 1;
  t.k_evaluated <- t.k_evaluated + Array.length nodes

let set_input t i v =
  if t.c_plan.p_net_fast.(i) then begin
    let x = Bitvec.to_int v in
    if x <> t.c_ival.(i) then begin
      t.c_ival.(i) <- x;
      mark t i
    end
  end
  else if not (Bitvec.equal t.c_bval.(i) v) then begin
    t.c_bval.(i) <- v;
    mark t i
  end

let step_registers t =
  let ups = t.c_plan.p_updates in
  (* drain the queue of updates whose support changed since they last
     evaluated; an unqueued update would recompute the value its register
     already holds.  The queue snapshot is taken first because commits
     below re-queue updates (including self-loops) for the next edge. *)
  let n = t.c_u_len in
  Array.blit t.c_u_stack 0 t.c_u_cur 0 n;
  t.c_u_len <- 0;
  for k = 0 to n - 1 do
    t.c_u_queued.(t.c_u_cur.(k)) <- false
  done;
  t.k_upd_evals <- t.k_upd_evals + n;
  t.k_upd_skipped <- t.k_upd_skipped + (Array.length ups - n);
  (* all next-values from the pre-edge state first, then commit: a
     register's update must not see another register's new value *)
  for k = 0 to n - 1 do
    let i = t.c_u_cur.(k) in
    let u = ups.(i) in
    if u.up_fast then t.c_u_ni.(i) <- u.up_f t else t.c_u_nb.(i) <- u.up_g t
  done;
  let changed = ref false in
  for k = 0 to n - 1 do
    let i = t.c_u_cur.(k) in
    let u = ups.(i) in
    if u.up_fast then begin
      if t.c_u_ni.(i) <> t.c_ival.(u.up_net) then begin
        t.c_ival.(u.up_net) <- t.c_u_ni.(i);
        changed := true;
        mark t u.up_net
      end
    end
    else if not (Bitvec.equal t.c_u_nb.(i) t.c_bval.(u.up_net)) then begin
      t.c_bval.(u.up_net) <- t.c_u_nb.(i);
      changed := true;
      mark t u.up_net
    end
  done;
  !changed

let drives t = t.c_drives

let reg_value t (r : reg) =
  let net = t.c_plan.p_ni + r.r_id in
  if t.c_plan.p_net_fast.(net) then Bitvec.of_int ~width:r.r_width t.c_ival.(net)
  else t.c_bval.(net)

let design t = t.c_plan.p_design
let levels t = t.c_plan.p_max_level
let node_count t = Array.length t.c_plan.p_nodes
let level_histogram t = Array.copy t.c_plan.p_per_level

let counters t =
  [
    ("rtl_levels", t.c_plan.p_max_level);
    ("rtl_nodes", Array.length t.c_plan.p_nodes);
    ("rtl_settles", t.k_settles);
    ("rtl_nodes_evaluated", t.k_evaluated);
    ("rtl_nodes_skipped", t.k_skipped);
    ("rtl_cone_max", t.k_cone_max);
    ("rtl_fast_evals", t.k_fast);
    ("rtl_wide_evals", t.k_wide);
    ("rtl_update_evals", t.k_upd_evals);
    ("rtl_updates_skipped", t.k_upd_skipped);
  ]
