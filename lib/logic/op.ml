type unop = Not | Neg | Reduce_or | Reduce_and | Reduce_xor

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Shl
  | Shr
  | Concat

let shift_amount bv =
  match Bitvec.to_int_opt bv with Some n -> n | None -> max_int / 2

let eval_unop op a =
  match op with
  | Not -> Bitvec.lognot a
  | Neg -> Bitvec.neg a
  | Reduce_or -> Bitvec.of_bool (Bitvec.reduce_or a)
  | Reduce_and -> Bitvec.of_bool (Bitvec.reduce_and a)
  | Reduce_xor -> Bitvec.of_bool (Bitvec.reduce_xor a)

let eval_binop op a b =
  match op with
  | Add -> Bitvec.add a b
  | Sub -> Bitvec.sub a b
  | Mul -> Bitvec.mul a b
  | And -> Bitvec.logand a b
  | Or -> Bitvec.logor a b
  | Xor -> Bitvec.logxor a b
  | Eq -> Bitvec.of_bool (Bitvec.equal a b)
  | Ne -> Bitvec.of_bool (not (Bitvec.equal a b))
  | Lt -> Bitvec.of_bool (Bitvec.compare_unsigned a b < 0)
  | Le -> Bitvec.of_bool (Bitvec.compare_unsigned a b <= 0)
  | Gt -> Bitvec.of_bool (Bitvec.compare_unsigned a b > 0)
  | Ge -> Bitvec.of_bool (Bitvec.compare_unsigned a b >= 0)
  | Shl -> Bitvec.shift_left a (min (Bitvec.width a) (shift_amount b))
  | Shr -> Bitvec.shift_right a (min (Bitvec.width a) (shift_amount b))
  | Concat -> Bitvec.concat a b

let bad_width = -1

let unop_width op w =
  if w = bad_width then bad_width
  else match op with Not | Neg -> w | Reduce_or | Reduce_and | Reduce_xor -> 1

let binop_width op wa wb =
  if wa = bad_width || wb = bad_width then bad_width
  else
    match op with
    | Add | Sub | Mul | And | Or | Xor -> if wa = wb then wa else bad_width
    | Eq | Ne | Lt | Le | Gt | Ge -> if wa = wb then 1 else bad_width
    | Shl | Shr -> wa
    | Concat -> wa + wb

let mux_width wc wa wb = if wc <> 1 || wa = bad_width || wa <> wb then bad_width else wa

let slice_width w ~hi ~lo =
  if w = bad_width || lo < 0 || hi < lo || hi >= w then bad_width else hi - lo + 1
