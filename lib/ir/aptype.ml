(* A result is canonical: an integer type exactly when it has no
   fraction bits. *)
let result ~signed ~width ~int_bits : Dtype.t =
  if width = int_bits then if signed then SInt width else UInt width
  else if signed then SFixed { width; int_bits }
  else UFixed { width; int_bits }

let integer ~signed w = result ~signed ~width:w ~int_bits:w

(* The common signedness, integer bits and fraction bits that hold both
   operands exactly: an unsigned operand mixed with a signed one needs
   one more integer bit. *)
let align a b =
  let s = Dtype.is_signed a || Dtype.is_signed b in
  let need v = (if s && not (Dtype.is_signed v) then 1 else 0) + Dtype.int_bits v in
  (s, max (need a) (need b), max (Dtype.frac a) (Dtype.frac b))

(* One growth bit so the sum or difference cannot wrap; differences are
   signed even for unsigned operands. *)
let add a b =
  let s, i, f = align a b in
  result ~signed:s ~width:(i + f + 1) ~int_bits:(i + 1)

let sub a b =
  let _, i, f = align a b in
  result ~signed:true ~width:(i + f + 1) ~int_bits:(i + 1)

let mul a b =
  result
    ~signed:(Dtype.is_signed a || Dtype.is_signed b)
    ~width:(Dtype.width a + Dtype.width b)
    ~int_bits:(Dtype.int_bits a + Dtype.int_bits b)

(* The common type of integer operands: the wider width, plus one bit
   for an unsigned operand mixed with a signed one. *)
let promote a b =
  let s = Dtype.is_signed a || Dtype.is_signed b in
  let extra v = if s && not (Dtype.is_signed v) then 1 else 0 in
  integer ~signed:s (max (Dtype.width a + extra a) (Dtype.width b + extra b))

(* A fixed-point quotient: the dividend's raw pattern, shifted left by
   [shift], is divided as an integer of the quotient's [width], whose
   [int_bits] hold the exact quotient's magnitude: [shift] more fraction
   bits than the dividend, less the divisor's. *)
let fixed_div a b =
  let shift = max 0 (Dtype.width b + Dtype.frac b) in
  (shift, Dtype.width a + shift + 1, Dtype.int_bits a + Dtype.frac b + 1)

(* Integer/integer division truncates toward zero at the common type (C
   semantics); a declared ap_[u]fixed operand divides as fixed point
   even with no fraction bits. *)
let div a b =
  if Dtype.is_integer a && Dtype.is_integer b then promote a b
  else
    let _, width, int_bits = fixed_div a b in
    result ~signed:(Dtype.is_signed a || Dtype.is_signed b) ~width ~int_bits

let div_work a b =
  let shift, width, _ = fixed_div a b in
  (shift, integer ~signed:(Dtype.is_signed a || Dtype.is_signed b) width)

let rem = promote
let bitwise = promote
let lognot a = result ~signed:(Dtype.is_signed a) ~width:(Dtype.width a) ~int_bits:(Dtype.int_bits a)
let neg a = result ~signed:true ~width:(Dtype.width a + 1) ~int_bits:(Dtype.int_bits a + 1)
