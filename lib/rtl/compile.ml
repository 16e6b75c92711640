module Bitvec = Hlcs_logic.Bitvec
module Op = Hlcs_logic.Op
open Ir

(* Lowering of a validated design into dense integer-indexed tables, and the
   levelized incremental evaluator that runs over them.

   Net numbering packs every value-carrying entity into one id space:

     [0, ni)            the inputs, in rd_inputs order
     [ni, ni+nr)        the registers, offset by r_id
     [ni+nr, ...)       the wires, offset by w_id

   Each assigned wire becomes one evaluation node.  Nodes carry a
   combinational level (1 + max level of the nets they read; inputs,
   registers and constants sit at level 0), and the node array is ordered
   by (level, position in an evaluation order) so a single ascending pass
   respects every dependency.  A settle drains per-level dirty buckets:
   evaluating a node whose value changed queues the nodes reading its
   target net, and since a reader's level is strictly greater than its
   writer's, the one ascending pass visits each queued node at most once
   and never revisits a level.

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
   shared across domains.

   Every edit-loop flow links a new netlist and so builds a new plan, and
   the build is one walk per pass: validation answers with the linker's
   own evaluation order (no sort), nodes are bucketed by level, each tree
   is compiled once with its width carried up from the operands, and the
   readers of each net are laid out as rows of one flat array.

   One OCaml 5.1 pitfall shapes the allocation.  [caml_make_vect] builds
   an array above 256 words (Max_young_wosize) in the major heap, and when
   its initial value is a young block it first runs a whole minor
   collection, so that the new array holds no pointer into the minor heap.
   [Array.make n v] with a fresh [v] pays that, and so do [Array.map],
   [Array.of_list] and [Array.init], which start the array from their
   first (fresh) element: a plan has several such arrays per build, an
   instance of a count-400 netlist one more.  So every pointer array of a
   plan or an instance starts from an immediate or from one of the
   long-lived fillers below, and has its slots written after. *)

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
  c_drives : (string * (unit -> Bitvec.t)) array;
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
  p_fanout : int array;
      (** node indices reading each net, as rows: net [n]'s are
          [p_fanout.(p_fanout_at.(n)) .. p_fanout.(p_fanout_at.(n + 1) - 1)],
          ascending *)
  p_fanout_at : int array;
  p_ufanout : int array;  (** update indices reading each net, as rows *)
  p_ufanout_at : int array;
  p_updates : upd array;
  p_drives : pdrive array;
  p_max_level : int;
  p_per_level : int array;  (** nodes at each level, [0..max_level] *)
}

(* A compiled expression, with the width of its result.  It is [Fast]
   exactly when that width fits the unboxed representation; sub-trees
   convert at the boundary (a reduction of a wide vector is Fast, a concat
   of two fast halves into a wide result boxes its halves). *)
and fn = Fast of int * (t -> int) | Wide of int * (t -> Bitvec.t)

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

let width_of = function Fast (w, _) | Wide (w, _) -> w

(* Fillers for the pointer arrays of plans and instances: allocated once,
   so never young when an array starts from them (see the header). *)
let no_bitvec = Bitvec.zero 1
let no_fn = Fast (0, fun _ -> 0)
let no_node = { n_net = 0; n_level = 0; n_fast = true; n_eval = (fun _ -> false) }
let no_update =
  { up_net = 0; up_fast = true; up_f = (fun _ -> 0); up_g = (fun _ -> no_bitvec) }
let no_drive = { d_name = ""; d_width = 1; d_kind = D_bool (fun _ -> 0) }
let no_drive_fn = ("", fun () -> no_bitvec)

(* A tree whose carried-up widths disagree: raise what [Ir.expr_width]
   says about it.  Validation has measured every root the plan compiles
   (each output has one driver, and no undeclared output has any), so
   only a broken invariant gets here. *)
let width_violation e =
  ignore (Ir.expr_width e : int);
  broken_invariant ()

(* Readers of each net as compressed rows: the [(net, reader)] pairs of
   [pairs.(0 .. 2 * len - 1)], recorded in descending reader order, laid
   out so that net [n]'s readers are [rows.(at.(n)) .. rows.(at.(n+1) - 1)],
   ascending. *)
let rows_of_pairs n_nets pairs len =
  let at = Array.make (n_nets + 1) 0 in
  for k = 0 to len - 1 do
    let n = pairs.(2 * k) in
    at.(n + 1) <- at.(n + 1) + 1
  done;
  for n = 1 to n_nets do
    at.(n) <- at.(n) + at.(n - 1)
  done;
  let rows = Array.make (max 1 len) 0 in
  let next = Array.sub at 1 n_nets in
  for k = 0 to len - 1 do
    let n = pairs.(2 * k) in
    next.(n) <- next.(n) - 1;
    rows.(next.(n)) <- pairs.((2 * k) + 1)
  done;
  (rows, at)

let build_plan design =
  (* levelization runs over the evaluation order validation checked: the
     linker's [rd_assigns] as they stand, a depth-first sort only for a
     netlist out of order *)
  let order =
    match Ir.validate_order design with
    | Ok order -> order
    | Error ds -> invalid_arg ("Rtl.Compile.compile: " ^ List.hd ds)
  in
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
  let init_bval = Array.make (max 1 n_nets) no_bitvec in
  for n = 0 to n_nets - 1 do
    if not net_fast.(n) then init_bval.(n) <- Bitvec.zero width.(n)
  done;
  List.iter
    (fun r ->
      let n = net_of_reg r in
      if net_fast.(n) then init_ival.(n) <- Bitvec.to_int r.r_init
      else init_bval.(n) <- r.r_init)
    design.rd_regs;
  let wire_level = Array.make (max 1 nw) 0 in
  let rec lvl = function
    | Wire w -> wire_level.(w.w_id)
    | Const _ | Reg _ | Input _ -> 0
    | Unop (_, x) | Slice (x, _, _) -> lvl x
    | Binop (_, x, y) -> max (lvl x) (lvl y)
    | Mux (c, a, b) -> max (lvl c) (max (lvl a) (lvl b))
  in
  let max_level = ref 0 in
  List.iter
    (fun (w, e) ->
      let l = 1 + lvl e in
      wire_level.(w.w_id) <- l;
      if l > !max_level then max_level := l)
    order;
  let max_level = !max_level in
  (* nodes bucketed by level: the node array is ordered by (level,
     evaluation order), each bucket list in reverse evaluation order *)
  let per_level = Array.make (max_level + 1) 0 in
  let buckets = Array.make (max_level + 1) [] in
  List.iter
    (fun ((w, _) as a) ->
      let l = wire_level.(w.w_id) in
      per_level.(l) <- per_level.(l) + 1;
      buckets.(l) <- a :: buckets.(l))
    order;
  (* expression compiler.  [comp] carries each sub-tree's width up from
     its operands, shares one reader closure per net, and records the
     nets the current [root] reads, once each ([stamp] holds the last
     root that recorded a net), as [(net, root)] pairs; [wide_seen]
     classifies whole trees for the fast/wide evaluation counters *)
  let wide_seen = ref false in
  let wide w g =
    wide_seen := true;
    Wide (w, g)
  in
  let as_bitvec = function
    | Wide (_, g) -> g
    | Fast (w, f) ->
        if w = 1 then fun t -> Bitvec.of_bool (f t <> 0)
        else fun t -> Bitvec.of_int ~width:w (f t)
  in
  let leaf = Array.make (max 1 n_nets) no_fn in
  let root = ref (-1) and stamp = Array.make (max 1 n_nets) (-1) in
  let pairs = ref (Array.make 1024 0) and n_pairs = ref 0 in
  let read n w =
    let r = !root in
    if r >= 0 && stamp.(n) <> r then begin
      stamp.(n) <- r;
      let k = 2 * !n_pairs in
      if k + 2 > Array.length !pairs then begin
        let grown = Array.make (2 * k) 0 in
        Array.blit !pairs 0 grown 0 k;
        pairs := grown
      end;
      !pairs.(k) <- n;
      !pairs.(k + 1) <- r;
      incr n_pairs
    end;
    if w > max_fast then wide_seen := true;
    if leaf.(n) == no_fn then
      leaf.(n) <-
        (if w <= max_fast then Fast (w, fun t -> t.c_ival.(n))
         else Wide (w, fun t -> t.c_bval.(n)));
    leaf.(n)
  in
  let rec comp e =
    match e with
    | Const bv ->
        let w = Bitvec.width bv in
        if w <= max_fast then
          let v = Bitvec.to_int bv in
          Fast (w, fun _ -> v)
        else wide w (fun _ -> bv)
    | Wire wr -> read (net_of_wire wr) wr.w_width
    | Reg r -> read (net_of_reg r) r.r_width
    | Input (name, w) -> (
        (* [Ir.validate] accepts both (a fragment reads undeclared link
           symbols), but a simulated netlist must declare what it reads *)
        match Hashtbl.find_opt input_index name with
        | None ->
            invalid_arg
              (Printf.sprintf "Rtl.Compile.compile: input %s is read but not declared"
                 name)
        | Some n ->
            if width.(n) <> w then
              invalid_arg
                (Printf.sprintf
                   "Rtl.Compile.compile: input %s is read at width %d but declared with \
                    width %d"
                   name w width.(n));
            read n w)
    | Unop (op, x) -> (
        match (op, comp x) with
        | Not, Fast (w, f) ->
            let m = mask_of w in
            Fast (w, fun t -> lnot (f t) land m)
        | Not, Wide (w, g) -> wide w (fun t -> Bitvec.lognot (g t))
        | Neg, Fast (w, f) ->
            let m = mask_of w in
            Fast (w, fun t -> -f t land m)
        | Neg, Wide (w, g) -> wide w (fun t -> Bitvec.neg (g t))
        | Reduce_or, Fast (_, f) -> Fast (1, fun t -> if f t <> 0 then 1 else 0)
        | Reduce_or, Wide (_, g) ->
            Fast (1, fun t -> if Bitvec.reduce_or (g t) then 1 else 0)
        | Reduce_and, Fast (wx, f) ->
            let m = mask_of wx in
            Fast (1, fun t -> if f t = m then 1 else 0)
        | Reduce_and, Wide (_, g) ->
            Fast (1, fun t -> if Bitvec.reduce_and (g t) then 1 else 0)
        | Reduce_xor, Fast (_, f) -> Fast (1, fun t -> parity (f t))
        | Reduce_xor, Wide (_, g) ->
            Fast (1, fun t -> if Bitvec.reduce_xor (g t) then 1 else 0))
    | Binop (op, x, y) -> (
        let fx = comp x in
        let fy = comp y in
        let w = Op.binop_width op (width_of fx) (width_of fy) in
        if w = Op.bad_width then width_violation e;
        match op with
        | (Add | Sub | Mul | And | Or | Xor) as op -> (
            match (fx, fy) with
            | Fast (_, f), Fast (_, g) -> (
                let m = mask_of w in
                match op with
                | Add -> Fast (w, fun t -> (f t + g t) land m)
                | Sub -> Fast (w, fun t -> (f t - g t) land m)
                | Mul -> Fast (w, fun t -> f t * g t land m)
                | And -> Fast (w, fun t -> f t land g t)
                | Or -> Fast (w, fun t -> f t lor g t)
                | Xor -> Fast (w, fun t -> f t lxor g t)
                | _ -> broken_invariant ())
            | Wide (_, f), Wide (_, g) -> (
                match op with
                | Add -> wide w (fun t -> Bitvec.add (f t) (g t))
                | Sub -> wide w (fun t -> Bitvec.sub (f t) (g t))
                | Mul -> wide w (fun t -> Bitvec.mul (f t) (g t))
                | And -> wide w (fun t -> Bitvec.logand (f t) (g t))
                | Or -> wide w (fun t -> Bitvec.logor (f t) (g t))
                | Xor -> wide w (fun t -> Bitvec.logxor (f t) (g t))
                | _ -> broken_invariant ())
            | _ -> broken_invariant ())
        | (Eq | Ne | Lt | Le | Gt | Ge) as op -> (
            match (fx, fy) with
            | Fast (_, f), Fast (_, g) -> (
                (* fast values are masked and non-negative: native compare
                   is the unsigned compare *)
                match op with
                | Eq -> Fast (1, fun t -> if f t = g t then 1 else 0)
                | Ne -> Fast (1, fun t -> if f t <> g t then 1 else 0)
                | Lt -> Fast (1, fun t -> if f t < g t then 1 else 0)
                | Le -> Fast (1, fun t -> if f t <= g t then 1 else 0)
                | Gt -> Fast (1, fun t -> if f t > g t then 1 else 0)
                | Ge -> Fast (1, fun t -> if f t >= g t then 1 else 0)
                | _ -> broken_invariant ())
            | Wide (_, f), Wide (_, g) -> (
                let cmp t = Bitvec.compare_unsigned (f t) (g t) in
                match op with
                | Eq -> Fast (1, fun t -> if Bitvec.equal (f t) (g t) then 1 else 0)
                | Ne -> Fast (1, fun t -> if Bitvec.equal (f t) (g t) then 0 else 1)
                | Lt -> Fast (1, fun t -> if cmp t < 0 then 1 else 0)
                | Le -> Fast (1, fun t -> if cmp t <= 0 then 1 else 0)
                | Gt -> Fast (1, fun t -> if cmp t > 0 then 1 else 0)
                | Ge -> Fast (1, fun t -> if cmp t >= 0 then 1 else 0)
                | _ -> broken_invariant ())
            | _ -> broken_invariant ())
        | Shl | Shr -> (
            let amount =
              match fy with
              | Fast (_, g) -> g
              | Wide (_, g) -> fun t -> Op.shift_amount (g t)
            in
            match fx with
            | Fast (_, f) -> (
                let m = mask_of w in
                match op with
                | Shl ->
                    Fast
                      ( w,
                        fun t ->
                          let n = amount t in
                          if n >= w then 0 else f t lsl n land m )
                | Shr ->
                    Fast
                      ( w,
                        fun t ->
                          let n = amount t in
                          if n >= w then 0 else f t lsr n )
                | _ -> broken_invariant ())
            | Wide (_, g) -> (
                match op with
                | Shl ->
                    wide w (fun t ->
                        let a = g t in
                        Bitvec.shift_left a (min (Bitvec.width a) (amount t)))
                | Shr ->
                    wide w (fun t ->
                        let a = g t in
                        Bitvec.shift_right a (min (Bitvec.width a) (amount t)))
                | _ -> broken_invariant ()))
        | Concat -> (
            if w > max_fast then
              let bx = as_bitvec fx and by = as_bitvec fy in
              wide w (fun t -> Bitvec.concat (bx t) (by t))
            else
              match (fx, fy) with
              | Fast (_, f), Fast (wy, g) -> Fast (w, fun t -> (f t lsl wy) lor g t)
              | _ -> broken_invariant ()))
    | Mux (c, a, b) -> (
        let fc = comp c in
        let fa = comp a in
        let fb = comp b in
        let w = Op.mux_width (width_of fc) (width_of fa) (width_of fb) in
        if w = Op.bad_width then width_violation e;
        let fc = match fc with Fast (_, f) -> f | Wide _ -> broken_invariant () in
        match (fa, fb) with
        | Fast (_, fa), Fast (_, fb) -> Fast (w, fun t -> if fc t = 0 then fb t else fa t)
        | Wide (_, ga), Wide (_, gb) -> wide w (fun t -> if fc t = 0 then gb t else ga t)
        | _ -> broken_invariant ())
    | Slice (x, hi, lo) -> (
        let fx = comp x in
        let w = Op.slice_width (width_of fx) ~hi ~lo in
        if w = Op.bad_width then width_violation e;
        match fx with
        | Fast (_, f) ->
            let m = mask_of w in
            Fast (w, fun t -> (f t lsr lo) land m)
        | Wide (_, g) ->
            if w <= max_fast then
              Fast (w, fun t -> Bitvec.to_int (Bitvec.slice (g t) ~hi ~lo))
            else wide w (fun t -> Bitvec.slice (g t) ~hi ~lo))
  in
  (* one root: its compiled tree, and whether it evaluates unboxed *)
  let comp_root r e =
    root := r;
    wide_seen := false;
    let fn = comp e in
    (fn, not !wide_seen)
  in
  (* the nodes, compiled in descending index order, as [rows_of_pairs]
     wants the pairs *)
  let n_nodes = Array.fold_left ( + ) 0 per_level in
  let nodes = Array.make n_nodes no_node in
  let next = ref n_nodes in
  for l = max_level downto 1 do
    List.iter
      (fun (wr, e) ->
        decr next;
        let i = !next in
        let net = net_of_wire wr in
        let fn, pure = comp_root i e in
        let eval =
          match fn with
          | Fast (_, f) ->
              fun t ->
                let v = f t in
                if v = t.c_ival.(net) then false
                else begin
                  t.c_ival.(net) <- v;
                  true
                end
          | Wide (_, g) ->
              fun t ->
                let v = g t in
                if Bitvec.equal t.c_bval.(net) v then false
                else begin
                  t.c_bval.(net) <- v;
                  true
                end
        in
        nodes.(i) <- { n_net = net; n_level = l; n_fast = pure; n_eval = eval })
      buckets.(l)
  done;
  let fanout, fanout_at = rows_of_pairs n_nets !pairs !n_pairs in
  (* register update-cone maps: which updates must re-evaluate when a net
     changes.  A register reading itself re-queues its own update on
     commit, which is exactly the re-evaluation the next edge needs. *)
  let n_updates = List.length design.rd_updates in
  let updates = Array.make n_updates no_update in
  Array.fill stamp 0 (Array.length stamp) (-1);
  n_pairs := 0;
  List.iteri
    (fun k (r, e) ->
      let i = n_updates - 1 - k in
      let net = net_of_reg r in
      updates.(i) <-
        (match comp_root i e with
        | Fast (_, f), _ ->
            { up_net = net; up_fast = true; up_f = f; up_g = (fun _ -> no_bitvec) }
        | Wide (_, g), _ ->
            { up_net = net; up_fast = false; up_f = (fun _ -> 0); up_g = g }))
    (List.rev design.rd_updates);
  let ufanout, ufanout_at = rows_of_pairs n_nets !pairs !n_pairs in
  (* output drives schedule nothing *)
  let drives = Array.make (List.length design.rd_drives) no_drive in
  List.iteri
    (fun i (name, e) ->
      let kind, w =
        match comp_root (-1) e with
        | Wide (w, g), _ -> (D_wide g, w)
        | Fast (w, f), _ -> ((if w = 1 then D_bool f else D_int f), w)
      in
      drives.(i) <- { d_name = name; d_width = w; d_kind = kind })
    design.rd_drives;
  {
    p_design = design;
    p_ni = ni;
    p_net_fast = net_fast;
    p_width = width;
    p_init_ival = init_ival;
    p_init_bval = init_bval;
    p_nodes = nodes;
    p_fanout = fanout;
    p_fanout_at = fanout_at;
    p_ufanout = ufanout;
    p_ufanout_at = ufanout_at;
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
      c_u_nb = Array.make (max 1 n_updates) no_bitvec;
      c_drives = Array.make (Array.length p.p_drives) no_drive_fn;
      c_buckets = Array.make (p.p_max_level + 1) [||];
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
  for l = 0 to p.p_max_level do
    t.c_buckets.(l) <- Array.make (max 1 p.p_per_level.(l)) 0
  done;
  Array.iteri
    (fun i d ->
      t.c_drives.(i) <-
        (match d.d_kind with
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
                !last_b )))
    p.p_drives;
  t

let compile design = instantiate (plan_of design)

(* [net] changed value: queue the nodes and the register updates reading it *)
let mark t net =
  let p = t.c_plan in
  let fo = p.p_fanout and nodes = p.p_nodes and queued = t.c_queued in
  for k = p.p_fanout_at.(net) to p.p_fanout_at.(net + 1) - 1 do
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
  let ufo = p.p_ufanout and uq = t.c_u_queued in
  for k = p.p_ufanout_at.(net) to p.p_ufanout_at.(net + 1) - 1 do
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
