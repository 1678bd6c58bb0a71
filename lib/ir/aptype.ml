type t = { signed : bool; width : int; int_bits : int; is_bool : bool; fixed : bool }

let of_dtype = function
  | Dtype.Bool -> { signed = false; width = 1; int_bits = 1; is_bool = true; fixed = false }
  | Dtype.UInt w -> { signed = false; width = w; int_bits = w; is_bool = false; fixed = false }
  | Dtype.SInt w -> { signed = true; width = w; int_bits = w; is_bool = false; fixed = false }
  | Dtype.UFixed { width; int_bits } -> { signed = false; width; int_bits; is_bool = false; fixed = true }
  | Dtype.SFixed { width; int_bits } -> { signed = true; width; int_bits; is_bool = false; fixed = true }

(* A computed result: Value canonicalizes it, so it is an integer type
   exactly when it has no fraction bits. *)
let result ~signed ~width ~int_bits = { signed; width; int_bits; is_bool = false; fixed = false }

let to_dtype t =
  if t.is_bool then Dtype.Bool
  else if t.width = t.int_bits && not t.fixed then if t.signed then Dtype.SInt t.width else Dtype.UInt t.width
  else if t.signed then Dtype.SFixed { width = t.width; int_bits = t.int_bits }
  else Dtype.UFixed { width = t.width; int_bits = t.int_bits }

let frac t = t.width - t.int_bits

(* Mirrors Ap_fixed.align. *)
let align_params a b =
  let s = a.signed || b.signed in
  let f = max (frac a) (frac b) in
  let need v = (if s && not v.signed then 1 else 0) + v.int_bits in
  let i = max (need a) (need b) in
  (s, i, f)

let add a b =
  let s, i, f = align_params a b in
  result ~signed:s ~width:(i + f + 1) ~int_bits:(i + 1)

let sub a b =
  let _, i, f = align_params a b in
  result ~signed:true ~width:(i + f + 1) ~int_bits:(i + 1)

let mul a b = result ~signed:(a.signed || b.signed) ~width:(a.width + b.width) ~int_bits:(a.int_bits + b.int_bits)

(* Mirrors Ap_int.promote: the common width of integer operands. *)
let promote_width a b =
  let s = a.signed || b.signed in
  let extra v = if s && not v.signed then 1 else 0 in
  (s, max (a.width + extra a) (b.width + extra b))

(* Value.div's rule (the Vitis one): a declared ap_[u]fixed operand
   divides as fixed point even when it has no fraction bits. *)
let is_integer t = t.width = t.int_bits && not t.fixed

let div a b =
  if is_integer a && is_integer b then begin
    let s, w = promote_width a b in
    result ~signed:s ~width:w ~int_bits:w
  end
  else begin
    (* Mirrors Ap_fixed.div. *)
    let s = a.signed || b.signed in
    let fa = frac a and fb = frac b in
    let shift = max 0 (b.width + fb) in
    let fr = fa - fb + shift in
    let ir = a.int_bits + fb + 1 in
    let wr = max 1 (ir + fr) in
    result ~signed:s ~width:wr ~int_bits:ir
  end

let rem a b =
  let s, w = promote_width a b in
  result ~signed:s ~width:w ~int_bits:w

let bitwise a b =
  let s, w = promote_width a b in
  result ~signed:s ~width:w ~int_bits:w

let shift a = a

let compare_result = of_dtype Dtype.Bool
let lognot_result a = result ~signed:a.signed ~width:a.width ~int_bits:a.int_bits
let neg a = result ~signed:true ~width:(a.width + 1) ~int_bits:(a.int_bits + 1)

type env = string -> Dtype.t

let rec infer env (e : Expr.t) =
  match e with
  | Const v -> of_dtype (Value.dtype v)
  | Var v -> of_dtype (env v)
  | Idx (a, i) ->
      ignore (infer env i);
      of_dtype (env a)
  | Bin (op, x, y) -> begin
      let tx = infer env x and ty = infer env y in
      match op with
      | Add -> add tx ty
      | Sub -> sub tx ty
      | Mul -> mul tx ty
      | Div -> div tx ty
      | Rem -> rem tx ty
      | And | Or | Xor -> bitwise tx ty
      | Shl | Shr -> shift tx
      | Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr -> compare_result
    end
  | Un (Neg, x) -> neg (infer env x)
  | Un (BNot, x) -> lognot_result (infer env x)
  | Un (LNot, x) ->
      ignore (infer env x);
      compare_result
  | Cast (dt, x) ->
      ignore (infer env x);
      of_dtype dt
  | Bitcast (dt, x) ->
      ignore (infer env x);
      of_dtype dt
  | Select (c, x, y) ->
      ignore (infer env c);
      let tx = infer env x and ty = infer env y in
      if tx <> ty then
        invalid_arg
          (Printf.sprintf "Aptype.infer: select arms have different types (%s vs %s)"
             (Dtype.to_string (to_dtype tx))
             (Dtype.to_string (to_dtype ty)));
      tx
