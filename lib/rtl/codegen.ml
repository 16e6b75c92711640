module Bitvec = Hlcs_logic.Bitvec
module Store = Hlcs_store.Store
open Ir

(* Code-generating backend: a levelized netlist printed as straight-line
   OCaml, compiled out-of-process with ocamlopt into a .cmxs, loaded with
   Dynlink and cached on disk under the design's content hash.

   The emitted module mirrors the {!Compile} interpreter's value model
   exactly — the same dense net numbering ([0,ni) inputs in rd_inputs
   order, [ni,ni+nr) registers by r_id, [ni+nr,..) wires by w_id), the
   same fast/wide split at {!max_fast} bits, and operator semantics copied
   op for op — so `Compiled and `Levelized produce byte-identical traces.
   Where the interpreter pays a closure dispatch per assignment, the
   generated code is one function per combinational level holding the
   level's assignments as straight-line expressions over flat [int] /
   [Bitvec.t] arrays.

   Dirtiness is tracked at node granularity: every node owns one bit in a
   flat word array (62 bits per word, padded so each level starts a fresh
   word), every net carries precomputed constant masks naming the exact
   dirty bits of its reader nodes and of the register updates it supports,
   and a changed value ORs those constants in.  A settle walks the dirty
   levels in ascending order (a second, level-granular bitmask gives the
   cheap whole-level skip); within a level each word is tested once and
   each set bit guards that node's straight-line evaluation, so the
   evaluated set is the same dirty cone the interpreter visits — at a
   fraction of the per-node cost.  Marks made while evaluating level l
   only ever target strictly higher levels, so the single pass is
   complete.  Levels at or above bit 61 share the top level-mask bit
   (spurious level visits, never a missed node — the node bits decide).
   Register updates are support-tracked the same way: an edge evaluates
   only the updates whose support changed since they last ran, exactly
   like the interpreter's rtl_update_evals / rtl_updates_skipped split.

   Artefacts are entries of a [Hlcs_store.Store] (store.mli describes
   names, fingerprints, pruning and corruption recovery), keyed by the MD5
   of the marshalled design and fingerprinted by the toolchain (the .cmi
   digests the plugin is compiled against, the compiler version and the
   emitter version), so a rebuilt library or upgraded compiler misses the
   cache instead of loading an incompatible artefact.  Every failure path
   (no ocamlopt, bytecode runtime, unusable cache dir, compile or load
   error) surfaces as [Error reason] so {!Sim} can degrade to
   `Levelized. *)

let emitter_version = "4"
let max_fast = min 62 (Sys.int_size - 1)

(* [w <= max_fast <= 62]: [1 lsl 62 - 1] wraps to [max_int] on 64-bit,
   which is exactly the 62-bit mask. *)
let mask_of w = (1 lsl w) - 1
let lbit l = 1 lsl (min l 61)
let sp = Printf.sprintf

let design_key d = Store.key (Marshal.to_string d [ Marshal.No_sharing ])

(* ------------------------------------------------------------------ *)
(* Emission *)

type gen = F of string | W of string

let emit_ocaml ?key design =
  (match Ir.validate design with
  | Ok () -> ()
  | Error (d :: _) -> invalid_arg ("Rtl.Codegen.emit_ocaml: " ^ d)
  | Error [] -> ());
  let key = match key with Some k -> k | None -> design_key design in
  let ni = List.length design.rd_inputs in
  let nr = List.fold_left (fun m r -> max m (r.r_id + 1)) 0 design.rd_regs in
  let nw = List.fold_left (fun m w -> max m (w.w_id + 1)) 0 design.rd_wires in
  let n_nets = max 1 (ni + nr + nw) in
  let net_of_reg r = ni + r.r_id in
  let net_of_wire w = ni + nr + w.w_id in
  let input_index = Hashtbl.create 16 in
  List.iteri (fun i (name, _) -> Hashtbl.replace input_index name i) design.rd_inputs;
  let width = Array.make n_nets 1 in
  List.iteri (fun i (_, w) -> width.(i) <- w) design.rd_inputs;
  List.iter (fun r -> width.(net_of_reg r) <- r.r_width) design.rd_regs;
  List.iter (fun w -> width.(net_of_wire w) <- w.w_width) design.rd_wires;
  let net_fast = Array.map (fun w -> w <= max_fast) width in
  (* levelization, identical to Compile.build_plan *)
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
  let nodes =
    Array.of_list
      (List.stable_sort
         (fun (w1, _) (w2, _) -> compare wire_level.(w1.w_id) wire_level.(w2.w_id))
         order)
  in
  let max_level =
    Array.fold_left (fun m (w, _) -> max m wire_level.(w.w_id)) 0 nodes
  in
  let rec deps acc = function
    | Wire w -> net_of_wire w :: acc
    | Reg r -> net_of_reg r :: acc
    | Input (name, _) -> Hashtbl.find input_index name :: acc
    | Const _ -> acc
    | Unop (_, x) | Slice (x, _, _) -> deps acc x
    | Binop (_, x, y) -> deps (deps acc x) y
    | Mux (c, a, b) -> deps (deps (deps acc c) a) b
  in
  (* node dirty-bit numbering: 62 bits per word (every mask constant stays
     a non-negative OCaml literal), padded so each level starts a fresh
     word and a level owns a contiguous word range *)
  let bits_per_word = 62 in
  let n_nodes = Array.length nodes in
  let node_word = Array.make (max 1 n_nodes) 0 in
  let node_bit = Array.make (max 1 n_nodes) 0 in
  let level_word_lo = Array.make (max_level + 1) 0 in
  let level_word_hi = Array.make (max_level + 1) 0 in
  let wctr = ref 0 in
  for l = 1 to max_level do
    level_word_lo.(l) <- !wctr;
    let i = ref 0 in
    Array.iteri
      (fun k (w, _) ->
        if wire_level.(w.w_id) = l then begin
          node_word.(k) <- !wctr + (!i / bits_per_word);
          node_bit.(k) <- !i mod bits_per_word;
          incr i
        end)
      nodes;
    wctr := !wctr + ((!i + bits_per_word - 1) / bits_per_word);
    level_word_hi.(l) <- !wctr
  done;
  let nd_words = max 1 !wctr in
  let nupd = List.length design.rd_updates in
  let ud_words = max 1 ((nupd + bits_per_word - 1) / bits_per_word) in
  (* per-net constants: the dirty bits of its reader nodes, the dirty bits
     of the register updates it supports, and the levels its readers sit
     at (the whole-level skip mask) *)
  let node_marks = Array.make n_nets [] in
  let upd_marks = Array.make n_nets [] in
  let level_mask = Array.make n_nets 0 in
  let add marks n w b =
    let m = 1 lsl b in
    marks.(n) <-
      (match List.assoc_opt w marks.(n) with
      | Some old -> (w, old lor m) :: List.remove_assoc w marks.(n)
      | None -> (w, m) :: marks.(n))
  in
  Array.iteri
    (fun k (w, e) ->
      List.iter
        (fun n ->
          add node_marks n node_word.(k) node_bit.(k);
          level_mask.(n) <- level_mask.(n) lor lbit wire_level.(w.w_id))
        (deps [] e))
    nodes;
  List.iteri
    (fun j (_, e) ->
      List.iter
        (fun n -> add upd_marks n (j / bits_per_word) (j mod bits_per_word))
        (deps [] e))
    design.rd_updates;
  let sorted_marks l = List.sort compare l in
  (* the straight-line mark statements a change to net [n] executes *)
  let mark_code n =
    String.concat ""
      (List.map
         (fun (w, m) -> sp " nd.%%(%d) <- nd.%%(%d) lor %d;" w w m)
         (sorted_marks node_marks.(n))
      @ List.map
          (fun (w, m) -> sp " ud.%%(%d) <- ud.%%(%d) lor %d;" w w m)
          (sorted_marks upd_marks.(n))
      @ (match upd_marks.(n) with
        | [] -> []
        | marks ->
            [
              sp " udirty := !udirty lor %d;"
                (List.fold_left (fun m (w, _) -> m lor lbit w) 0 marks);
            ])
      @
      if level_mask.(n) = 0 then []
      else [ sp " dirty := !dirty lor %d;" level_mask.(n) ])
  in
  let has_marks n =
    node_marks.(n) <> [] || upd_marks.(n) <> []
  in
  (* wide constants are hoisted to module-level bindings *)
  let consts = Buffer.create 256 in
  let const_tbl = Hashtbl.create 16 in
  let nconsts = ref 0 in
  let wide_const bv =
    let lit = sp "%d'h%s" (Bitvec.width bv) (Bitvec.to_hex_string bv) in
    match Hashtbl.find_opt const_tbl lit with
    | Some n -> n
    | None ->
        let n = sp "_c%d" !nconsts in
        incr nconsts;
        Hashtbl.add const_tbl lit n;
        Buffer.add_string consts (sp "let %s = B.of_string %S\n" n lit);
        n
  in
  (* the expression printer mirrors Compile.comp case by case; an
     expression is fast exactly when its width fits unboxed, so equal-width
     operands always share a class.  [wide_seen] classifies whole trees for
     the fast/wide evaluation counters, as in the interpreter. *)
  let wide_seen = ref false in
  let rec gen e =
    let w = expr_width e in
    let wide s =
      wide_seen := true;
      W s
    in
    match e with
    | Const bv ->
        if w <= max_fast then F (string_of_int (Bitvec.to_int bv))
        else wide (wide_const bv)
    | Wire wr ->
        let n = net_of_wire wr in
        if w <= max_fast then F (sp "iv.%%(%d)" n) else wide (sp "bv.%%(%d)" n)
    | Reg r ->
        let n = net_of_reg r in
        if w <= max_fast then F (sp "iv.%%(%d)" n) else wide (sp "bv.%%(%d)" n)
    | Input (name, _) ->
        let n = Hashtbl.find input_index name in
        if w <= max_fast then F (sp "iv.%%(%d)" n) else wide (sp "bv.%%(%d)" n)
    | Unop (Not, x) -> (
        match gen x with
        | F a -> F (sp "((lnot %s) land %d)" a (mask_of w))
        | W a -> wide (sp "(B.lognot %s)" a))
    | Unop (Neg, x) -> (
        match gen x with
        | F a -> F (sp "((- %s) land %d)" a (mask_of w))
        | W a -> wide (sp "(B.neg %s)" a))
    | Unop (Reduce_or, x) -> (
        match gen x with
        | F a -> F (sp "(if %s <> 0 then 1 else 0)" a)
        | W a -> F (sp "(if B.reduce_or %s then 1 else 0)" a))
    | Unop (Reduce_and, x) -> (
        match gen x with
        | F a -> F (sp "(if %s = %d then 1 else 0)" a (mask_of (expr_width x)))
        | W a -> F (sp "(if B.reduce_and %s then 1 else 0)" a))
    | Unop (Reduce_xor, x) -> (
        match gen x with
        | F a -> F (sp "(parity %s)" a)
        | W a -> F (sp "(if B.reduce_xor %s then 1 else 0)" a))
    | Binop (((Add | Sub | Mul | And | Or | Xor) as op), x, y) -> (
        match (gen x, gen y) with
        | F a, F b ->
            let m = mask_of w in
            F
              (match op with
              | Add -> sp "((%s + %s) land %d)" a b m
              | Sub -> sp "((%s - %s) land %d)" a b m
              | Mul -> sp "((%s * %s) land %d)" a b m
              | And -> sp "(%s land %s)" a b
              | Or -> sp "(%s lor %s)" a b
              | Xor -> sp "(%s lxor %s)" a b
              | _ -> assert false)
        | W a, W b ->
            let f =
              match op with
              | Add -> "add"
              | Sub -> "sub"
              | Mul -> "mul"
              | And -> "logand"
              | Or -> "logor"
              | Xor -> "logxor"
              | _ -> assert false
            in
            wide (sp "(B.%s %s %s)" f a b)
        | _ -> assert false)
    | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), x, y) -> (
        match (gen x, gen y) with
        | F a, F b ->
            (* fast values are masked and non-negative: native compare is
               the unsigned compare *)
            let s =
              match op with
              | Eq -> "="
              | Ne -> "<>"
              | Lt -> "<"
              | Le -> "<="
              | Gt -> ">"
              | Ge -> ">="
              | _ -> assert false
            in
            F (sp "(if %s %s %s then 1 else 0)" a s b)
        | W a, W b -> (
            match op with
            | Eq -> F (sp "(if B.equal %s %s then 1 else 0)" a b)
            | Ne -> F (sp "(if B.equal %s %s then 0 else 1)" a b)
            | Lt | Le | Gt | Ge ->
                let s =
                  match op with
                  | Lt -> "<"
                  | Le -> "<="
                  | Gt -> ">"
                  | Ge -> ">="
                  | _ -> assert false
                in
                F (sp "(if B.compare_unsigned %s %s %s 0 then 1 else 0)" a b s)
            | _ -> assert false)
        | _ -> assert false)
    | Binop (((Shl | Shr) as op), x, y) -> (
        let amt =
          match gen y with
          | F b -> b
          | W b ->
              sp "(match B.to_int_opt %s with Some _n -> _n | None -> max_int / 2)" b
        in
        match gen x with
        | F a -> (
            let m = mask_of w in
            match op with
            | Shl ->
                F (sp "(let _n = %s in if _n >= %d then 0 else (%s lsl _n) land %d)" amt w a m)
            | Shr -> F (sp "(let _n = %s in if _n >= %d then 0 else %s lsr _n)" amt w a)
            | _ -> assert false)
        | W a ->
            let f = match op with Shl -> "shift_left" | _ -> "shift_right" in
            wide (sp "(let _s = %s in B.%s _s (min (B.width _s) %s))" a f amt))
    | Binop (Concat, x, y) ->
        if w <= max_fast then (
          match (gen x, gen y) with
          | F a, F b -> F (sp "((%s lsl %d) lor %s)" a (expr_width y) b)
          | _ -> assert false)
        else
          let bx = as_b (expr_width x) (gen x) in
          let by = as_b (expr_width y) (gen y) in
          wide (sp "(B.concat %s %s)" bx by)
    | Mux (c, a, b) -> (
        let fc = match gen c with F s -> s | W _ -> assert false in
        match (gen a, gen b) with
        | F ga, F gb -> F (sp "(if %s = 0 then %s else %s)" fc gb ga)
        | W ga, W gb -> wide (sp "(if %s = 0 then %s else %s)" fc gb ga)
        | _ -> assert false)
    | Slice (x, hi, lo) -> (
        match gen x with
        | F a -> F (sp "((%s lsr %d) land %d)" a lo (mask_of w))
        | W a ->
            if w <= max_fast then F (sp "(B.to_int (B.slice %s ~hi:%d ~lo:%d))" a hi lo)
            else wide (sp "(B.slice %s ~hi:%d ~lo:%d)" a hi lo))
  and as_b w g =
    match g with
    | W s -> s
    | F s ->
        if w = 1 then sp "(B.of_bool (%s <> 0))" s
        else sp "(B.of_int ~width:%d %s)" w s
  in
  let gen_root e =
    wide_seen := false;
    let g = gen e in
    (g, not !wide_seen)
  in
  let body = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string body) fmt in
  pf "let factory () =\n";
  pf "  let iv = Array.make %d 0 in\n" n_nets;
  pf "  let bv = Array.make %d (B.zero 1) in\n" n_nets;
  pf "  ignore iv; ignore bv;\n";
  for n = 0 to ni + nr + nw - 1 do
    if not net_fast.(n) then pf "  bv.%%(%d) <- B.zero %d;\n" n width.(n)
  done;
  List.iter
    (fun r ->
      let n = net_of_reg r in
      if net_fast.(n) then begin
        let v = Bitvec.to_int r.r_init in
        if v <> 0 then pf "  iv.%%(%d) <- %d;\n" n v
      end
      else pf "  bv.%%(%d) <- %s;\n" n (wide_const r.r_init))
    design.rd_regs;
  pf "  let nd = Array.make %d 0 in\n" nd_words;
  pf "  let ud = Array.make %d 0 in\n" ud_words;
  pf "  let nvi = Array.make %d 0 in\n" (max 1 nupd);
  pf "  let nvb = Array.make %d (B.zero 1) in\n" (max 1 nupd);
  pf "  ignore nd; ignore ud; ignore nvi; ignore nvb;\n";
  pf "  let dirty = ref 0 in\n";
  pf "  let settles = ref 0 and evaluated = ref 0 and skipped = ref 0 in\n";
  pf "  let cone_max = ref 0 and fast = ref 0 and wide = ref 0 in\n";
  pf "  let udirty = ref 0 and us = Array.make %d 0 and changed = ref false in\n" ud_words;
  pf "  ignore udirty; ignore us; ignore changed;\n";
  pf "  let upd_evals = ref 0 and steps = ref 0 in\n";
  (* render every node once; reused by the guarded level functions and the
     unguarded full settle *)
  let node_eval = Array.make (max 1 n_nodes) "" in
  let node_plain = Array.make (max 1 n_nodes) "" in
  let node_pure = Array.make (max 1 n_nodes) true in
  Array.iteri
    (fun k (w, e) ->
      let n = net_of_wire w in
      let g, pure = gen_root e in
      node_pure.(k) <- pure;
      (match g with
      | F a ->
          node_plain.(k) <- sp "iv.%%(%d) <- %s" n a;
          node_eval.(k) <-
            (if not (has_marks n) then node_plain.(k)
             else
               sp "let _v = %s in if _v <> iv.%%(%d) then begin iv.%%(%d) <- _v;%s end"
                 a n n (mark_code n))
      | W a ->
          node_plain.(k) <- sp "bv.%%(%d) <- %s" n a;
          node_eval.(k) <-
            (if not (has_marks n) then node_plain.(k)
             else
               sp
                 "let _v = %s in if not (B.equal _v bv.%%(%d)) then begin bv.%%(%d) <- _v;%s end"
                 a n n (mark_code n))))
    nodes;
  (* one function per level: each dirty word tested once, then only its
     set bits are visited — lowest bit extracted and dispatched straight
     to that node's evaluation, so a settle never walks the code of clean
     nodes (the netlists' mux chains make that spine expensive even as
     not-taken branches); popcounts feed the evaluated / fast / wide
     counters at word granularity *)
  for l = 1 to max_level do
    pf "  let level_%d () =\n" l;
    for w = level_word_lo.(l) to level_word_hi.(l) - 1 do
      let in_word =
        List.filter
          (fun k -> node_word.(k) = w)
          (List.init n_nodes (fun k -> k))
        |> List.sort (fun a b -> compare node_bit.(a) node_bit.(b))
      in
      let fast_mask =
        List.fold_left
          (fun m k -> if node_pure.(k) then m lor (1 lsl node_bit.(k)) else m)
          0 in_word
      in
      pf "    (let b = ref nd.%%(%d) in\n" w;
      pf "     if !b <> 0 then begin\n";
      pf "       nd.%%(%d) <- 0;\n" w;
      pf "       let _pc = popcount !b in let _pf = popcount (!b land %d) in\n"
        fast_mask;
      pf
        "       evaluated := !evaluated + _pc; fast := !fast + _pf; wide := !wide + (_pc - _pf);\n";
      pf "       while !b <> 0 do\n";
      pf "         let _bit = !b land (0 - !b) in\n";
      pf "         b := !b lxor _bit;\n";
      pf "         (match _bit with\n";
      List.iter
        (fun k -> pf "         | %d -> (%s)\n" (1 lsl node_bit.(k)) node_eval.(k))
        in_word;
      pf "         | _ -> ())\n";
      pf "       done\n";
      pf "     end);\n"
    done;
    pf "    ()\n  in\n"
  done;
  pf "  let settle () =\n";
  pf "    if !dirty <> 0 then begin\n";
  pf "      let _before = !evaluated in\n";
  for l = 1 to max_level do
    pf "      if !dirty land %d <> 0 then level_%d ();\n" (lbit l) l
  done;
  pf "      dirty := 0;\n";
  pf "      settles := !settles + 1;\n";
  pf "      let _cone = !evaluated - _before in\n";
  pf "      skipped := !skipped + (%d - _cone);\n" n_nodes;
  pf "      if _cone > !cone_max then cone_max := _cone\n";
  pf "    end\n  in\n";
  (* full settle: every node evaluated unguarded in level order; pending
     dirty state is cleared and every register update armed, so the first
     edge evaluates all updates from fully settled wires *)
  let n_pure = Array.fold_left (fun c p -> if p then c + 1 else c) 0 node_pure in
  pf "  let full_settle () =\n";
  Array.iteri (fun k _ -> pf "    %s;\n" node_plain.(k)) nodes;
  pf "    Array.fill nd 0 %d 0;\n" nd_words;
  for w = 0 to ud_words - 1 do
    let full =
      List.fold_left
        (fun m j -> if j / bits_per_word = w then m lor (1 lsl (j mod bits_per_word)) else m)
        0
        (List.init nupd (fun j -> j))
    in
    pf "    ud.%%(%d) <- %d;\n" w full
  done;
  pf "    udirty := %d;\n"
    (List.fold_left (fun m w -> m lor lbit w) 0 (List.init ud_words Fun.id));
  pf "    dirty := 0;\n";
  pf "    evaluated := !evaluated + %d; fast := !fast + %d; wide := !wide + %d;\n"
    n_nodes n_pure (n_nodes - n_pure);
  pf "    settles := !settles + 1\n  in\n";
  (* inputs *)
  if ni = 0 then pf "  let set_input _ _ = () in\n"
  else begin
    pf "  let set_input _i _v =\n    match _i with\n";
    List.iteri
      (fun i (_, _) ->
        let dirt = mark_code i in
        if net_fast.(i) then
          pf
            "    | %d -> let _x = B.to_int _v in if _x <> iv.%%(%d) then begin iv.%%(%d) <- _x;%s end\n"
            i i i dirt
        else
          pf
            "    | %d -> if not (B.equal bv.%%(%d) _v) then begin bv.%%(%d) <- _v;%s end\n"
            i i i dirt)
      design.rd_inputs;
    pf "    | _ -> ()\n  in\n"
  end;
  (* registers: support-tracked like the interpreter, which drains a
     queue of the updates whose support changed.  Here each update owns a
     dirty bit, and a second mask ([udirty], one bit per word, words at or
     above bit 61 sharing the top bit) names the words holding any, so an
     edge visits only the dirty words and, in each, only the set bits.  A
     first pass snapshots each dirty word into [us] and computes its
     next-values from pre-edge state into the nvi/nvb staging slots; a
     second pass over the snapshots commits them together.  A clean update
     cannot change its register (unchanged support recomputes the held
     value), so skipping it is value-faithful. *)
  if nupd = 0 then pf "  let step_registers () = incr steps; false in\n"
  else begin
    let upd = Array.of_list design.rd_updates in
    let word_range w =
      List.init
        (min nupd ((w + 1) * bits_per_word) - (w * bits_per_word))
        (fun k -> (w * bits_per_word) + k)
    in
    (* the set-bit walk of [word]: each set bit, lowest first, runs
       [per_bit] and then the arm its bit value names *)
    let walk ?(per_bit = "") word arms =
      pf "      let b = ref %s in\n" word;
      pf "      while !b <> 0 do\n";
      pf "        let _bit = !b land (0 - !b) in\n";
      pf "        b := !b lxor _bit;%s\n" per_bit;
      pf "        (match _bit with\n";
      List.iter (fun (bit, code) -> pf "        | %d -> %s\n" bit code) arms;
      pf "        | _ -> ())\n";
      pf "      done"
    in
    let in_word w f =
      List.map (fun j -> (1 lsl (j mod bits_per_word), f j)) (word_range w)
    in
    for w = 0 to ud_words - 1 do
      pf "  let compute_%d () =\n" w;
      pf "    let u = ud.%%(%d) in\n" w;
      pf "    if u <> 0 then begin\n";
      pf "      ud.%%(%d) <- 0;\n      us.%%(%d) <- u;\n" w w;
      walk ~per_bit:" incr upd_evals;" "u"
        (in_word w (fun j ->
             let r, e = upd.(j) in
             let slot = if net_fast.(net_of_reg r) then "nvi" else "nvb" in
             match fst (gen_root e) with F a | W a -> sp "%s.%%(%d) <- %s" slot j a));
      pf "\n    end\n  in\n";
      pf "  let commit_%d () =\n" w;
      pf "    let u = us.%%(%d) in\n" w;
      pf "    if u <> 0 then begin\n";
      pf "      us.%%(%d) <- 0;\n" w;
      walk "u"
        (in_word w (fun j ->
             let n = net_of_reg (fst upd.(j)) in
             if net_fast.(n) then
               sp
                 "if nvi.%%(%d) <> iv.%%(%d) then begin iv.%%(%d) <- nvi.%%(%d); changed := true;%s end"
                 j n n j (mark_code n)
             else
               sp
                 "if not (B.equal nvb.%%(%d) bv.%%(%d)) then begin bv.%%(%d) <- nvb.%%(%d); changed := true;%s end"
                 j n n j (mark_code n)));
      pf "\n    end\n  in\n"
    done;
    (* one arm per dirty-word bit; the shared top bit covers the rest *)
    let word_pass fn =
      walk "_w"
        (List.init (min ud_words 61) (fun w -> (lbit w, sp "%s_%d ()" fn w))
        @
        if ud_words <= 61 then []
        else
          [
            ( lbit 61,
              String.concat "; "
                (List.init (ud_words - 61) (fun k -> sp "%s_%d ()" fn (61 + k))) );
          ]);
      pf ";\n"
    in
    pf "  let step_registers () =\n";
    pf "    incr steps;\n";
    pf "    let _w = !udirty in\n";
    pf "    if _w = 0 then false\n";
    pf "    else begin\n";
    pf "      udirty := 0;\n";
    pf "      changed := false;\n";
    word_pass "compute";
    word_pass "commit";
    pf "      !changed\n";
    pf "    end\n  in\n"
  end;
  (* output drives, in rd_drives order; narrow drives memoize their boxing
     exactly like the interpreter's D_int case *)
  if design.rd_drives = [] then pf "  let drives = [||] in\n"
  else begin
    pf "  let drives = [|\n";
    List.iter
      (fun (name, e) ->
        let w = expr_width e in
        let g, _ = gen_root e in
        match g with
        | W a -> pf "    (%S, (fun () -> %s));\n" name a
        | F a when w = 1 -> pf "    (%S, (fun () -> B.of_bool (%s <> 0)));\n" name a
        | F a ->
            pf
              "    (%S,\n\
              \     (let _li = ref min_int and _lb = ref (B.zero %d) in\n\
              \      fun () ->\n\
              \        let _v = %s in\n\
              \        if _v <> !_li then begin _li := _v; _lb := B.of_int ~width:%d _v end;\n\
              \        !_lb));\n"
              name w a w)
      design.rd_drives;
    pf "  |] in\n"
  end;
  (* register read-back, by r_id *)
  if design.rd_regs = [] then
    pf "  let reg_value _ = invalid_arg \"Codegen.reg_value\" in\n"
  else begin
    pf "  let reg_value _id =\n    match _id with\n";
    List.iter
      (fun r ->
        let n = net_of_reg r in
        if net_fast.(n) then
          pf "    | %d -> B.of_int ~width:%d iv.%%(%d)\n" r.r_id r.r_width n
        else pf "    | %d -> bv.%%(%d)\n" r.r_id n)
      design.rd_regs;
    pf "    | _ -> invalid_arg \"Codegen.reg_value\"\n  in\n"
  end;
  pf "  let counters () = [\n";
  pf "    (\"rtl_levels\", %d); (\"rtl_nodes\", %d); (\"rtl_settles\", !settles);\n"
    max_level n_nodes;
  pf "    (\"rtl_nodes_evaluated\", !evaluated); (\"rtl_nodes_skipped\", !skipped);\n";
  pf "    (\"rtl_cone_max\", !cone_max); (\"rtl_fast_evals\", !fast);\n";
  pf "    (\"rtl_wide_evals\", !wide); (\"rtl_update_evals\", !upd_evals);\n";
  pf "    (\"rtl_updates_skipped\", (!steps * %d) - !upd_evals);\n  ] in\n" nupd;
  pf "  {\n";
  pf "    R.cg_set_input = set_input; cg_settle = settle; cg_full_settle = full_settle;\n";
  pf "    cg_step_registers = step_registers; cg_drives = drives;\n";
  pf "    cg_reg_value = reg_value; cg_counters = counters;\n";
  pf "  }\n\n";
  pf "let () = R.register ~key:%S factory\n" key;
  let out = Buffer.create (Buffer.length body + 1024) in
  Buffer.add_string out
    (sp
       "(* Generated by hlcs Codegen for design %S — do not edit. *)\n\
        module B = Hlcs_logic.Bitvec\n\
        module R = Hlcs_rtl.Codegen_registry\n\
        let ( .%%() ) = Array.unsafe_get\n\
        let ( .%%()<- ) = Array.unsafe_set\n\
        let parity v =\n\
       \  let v = v lxor (v lsr 32) in\n\
       \  let v = v lxor (v lsr 16) in\n\
       \  let v = v lxor (v lsr 8) in\n\
       \  let v = v lxor (v lsr 4) in\n\
       \  let v = v lxor (v lsr 2) in\n\
       \  let v = v lxor (v lsr 1) in\n\
       \  v land 1\n\
        let _ = parity\n\
        let popcount v =\n\
       \  let c = ref 0 and v = ref v in\n\
       \  while !v <> 0 do incr c; v := !v land (!v - 1) done;\n\
       \  !c\n\
        let _ = popcount\n\n"
       design.rd_name);
  Buffer.add_buffer out consts;
  Buffer.add_char out '\n';
  Buffer.add_buffer out body;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Toolchain discovery *)

type toolchain = { tc_cc : string; tc_incs : string list; tc_fpr : string }

let run_quiet cmd = Sys.command (cmd ^ " > /dev/null 2>&1") = 0

let absolute p =
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* the four interfaces the plugin is compiled against; their digests (plus
   compiler and emitter versions) are the artefact fingerprint *)
let needed_cmis =
  [ "hlcs_logic.cmi"; "hlcs_logic__Bitvec.cmi"; "hlcs_rtl.cmi";
    "hlcs_rtl__Codegen_registry.cmi" ]

let include_dirs () =
  match Sys.getenv_opt "HLCS_CODEGEN_INC" with
  | Some s ->
      let dirs = List.filter (fun d -> d <> "") (String.split_on_char ':' s) in
      if dirs = [] then Error "HLCS_CODEGEN_INC is empty" else Ok dirs
  | None -> (
      (* executables run out of dune's _build tree; the library build
         artifacts the plugin must be compiled against live beside them *)
      let rec up d =
        if Filename.basename d = "_build" then Some d
        else
          let p = Filename.dirname d in
          if p = d then None else up p
      in
      match up (Filename.dirname (absolute Sys.executable_name)) with
      | None ->
          Error
            "cannot locate the _build tree from the executable path (set HLCS_CODEGEN_INC)"
      | Some root ->
          let objs lib sub =
            List.fold_left Filename.concat root
              [ "default"; "lib"; lib; sp ".hlcs_%s.objs" lib; sub ]
          in
          Ok
            [ objs "logic" "byte"; objs "logic" "native";
              objs "rtl" "byte"; objs "rtl" "native" ])

let find_in_dirs dirs file =
  List.find_map
    (fun d ->
      let p = Filename.concat d file in
      if Sys.file_exists p then Some p else None)
    dirs

let toolchain : (toolchain, string) result Lazy.t =
  lazy
    (if not Dynlink.is_native then
       Error "bytecode runtime: native plugin loading unavailable"
     else
       match include_dirs () with
       | Error e -> Error e
       | Ok dirs -> (
           match
             List.map
               (fun cmi ->
                 match find_in_dirs dirs cmi with
                 | Some p -> Ok (Digest.to_hex (Digest.file p))
                 | None -> Error cmi)
               needed_cmis
           with
           | digests when List.exists Result.is_error digests ->
               let missing =
                 List.filter_map (function Error c -> Some c | Ok _ -> None) digests
               in
               Error
                 (sp "library interfaces not found under the include path: %s"
                    (String.concat ", " missing))
           | digests ->
               let cc =
                 if run_quiet "command -v ocamlopt.opt" then Some "ocamlopt.opt"
                 else if run_quiet "command -v ocamlopt" then Some "ocamlopt"
                 else None
               in
               (match cc with
               | None -> Error "no ocamlopt on PATH"
               | Some cc ->
                   let fpr =
                     Store.fingerprint
                       (emitter_version :: List.map Result.get_ok digests)
                   in
                   Ok { tc_cc = cc; tc_incs = dirs; tc_fpr = fpr })))

let available () = Result.is_ok (Lazy.force toolchain)

(* ------------------------------------------------------------------ *)
(* Compile, load, memoize: artefacts are entries of a Store *)

type provenance = Store.provenance = Memo | Disk | Built

let open_store tc =
  let dir = Store.default_dir ~env_var:"HLCS_CODEGEN_CACHE" "codegen" in
  match Store.open_dir ~prefix:"hlcs_cg_" ~ext:".cmxs" ~fingerprint:tc.tc_fpr dir with
  | Some store -> Ok store
  | None -> Error (sp "cache directory %s is not writable" dir)

let read_head path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      let n = min 400 (in_channel_length ic) in
      let s = really_input_string ic n in
      close_in ic;
      String.map (function '\n' -> ' ' | c -> c) (String.trim s)

(* the lock serialises ocamlopt and Dynlink; the memo is not a Store table
   because a failed build must be retried, not replayed *)
let lock = Mutex.create ()
let memo : (string, unit -> Codegen_registry.inst) Hashtbl.t = Hashtbl.create 8

let clear_memo () =
  Mutex.lock lock;
  Hashtbl.reset memo;
  Mutex.unlock lock

let load_artefact ~key path =
  match Dynlink.loadfile_private path with
  | () -> (
      match Codegen_registry.take () with
      | Some (k, f) when k = key -> Ok f
      | Some _ -> Error "artefact registered under the wrong design key"
      | None -> Error "artefact loaded but did not register a factory")
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | exception e -> Error (Printexc.to_string e)

let compile_artefact tc store ~key design =
  Store.put store key (fun stage ->
      let modname = "hlcs_cg_" ^ key in
      let ml = Filename.concat stage (modname ^ ".ml") in
      let cmxs = Filename.concat stage (modname ^ ".cmxs") in
      let errf = Filename.concat stage "stderr" in
      Out_channel.with_open_bin ml (fun oc -> output_string oc (emit_ocaml ~key design));
      (* -no-alias-deps: the plugin references the libraries through their
         wrapper aliases (Hlcs_logic.Bitvec); without it the cmxs would
         carry an implementation dependency on the wrapper units, which
         host executables do not necessarily link *)
      let cmd =
        sp "%s -shared -no-alias-deps -o %s %s -w -a %s 2> %s" tc.tc_cc
          (Filename.quote cmxs)
          (String.concat " "
             (List.map (fun d -> "-I " ^ Filename.quote d) tc.tc_incs))
          (Filename.quote ml) (Filename.quote errf)
      in
      if Sys.command cmd <> 0 then Error (sp "ocamlopt failed: %s" (read_head errf))
      else Ok cmxs)

let ( let* ) = Result.bind

(* The content keys of the last few designs, by physical identity: a
   flow, sweep or bench re-simulates the same (cached) design object, and
   marshalling and digesting it costs more than simulating a short run.
   Guarded by [lock]. *)
let recent_keys : (Ir.design * string) list ref = ref []
let max_recent_keys = 8

let key_of design =
  match List.assq_opt design !recent_keys with
  | Some key -> key
  | None ->
      let key = design_key design in
      recent_keys :=
        (design, key) :: List.filteri (fun i _ -> i < max_recent_keys - 1) !recent_keys;
      key

(* [f toolchain key] under the lock *)
let locked design f =
  let* tc = Lazy.force toolchain in
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> f tc (key_of design))

let instance design =
  locked design (fun tc key ->
      match Hashtbl.find_opt memo key with
      | Some f -> Ok (f (), Memo)
      | None ->
          (* once per design content: a memo hit was validated here *)
          (match Ir.validate design with
          | Ok () | Error [] -> ()
          | Error (d :: _) -> invalid_arg ("Rtl.Codegen.instance: " ^ d));
          let* store = open_store tc in
          let* f, prov =
            (* an artefact that fails to load despite its fingerprint is
               deleted by [find] and rebuilt once *)
            match Store.find store key (load_artefact ~key) with
            | Some f -> Ok (f, Disk)
            | None -> (
                let* () = compile_artefact tc store ~key design in
                match load_artefact ~key (Store.path store key) with
                | Ok f -> Ok (f, Built)
                | Error e -> Error (sp "loading freshly built artefact: %s" e))
          in
          Hashtbl.replace memo key f;
          Ok (f (), prov))

let prepare design =
  locked design (fun tc key ->
      let* store = open_store tc in
      let art = Store.path store key in
      if Sys.file_exists art then Ok (art, Disk)
      else
        let* () = compile_artefact tc store ~key design in
        Ok (art, Built))
