(* Fixed-point arithmetic with Xilinx ap_fixed/ap_ufixed semantics,
   written out on Bits: the reference [Test_value.Ref] checks Value and
   the evaluator against. A value has width [W] and integer bits [I]
   (its numeric value is [raw * 2^(I - W)]); every operation derives its
   result's format on its own, independently of Aptype, and {!convert}
   truncates toward negative infinity and wraps, as an assignment
   does. *)

open Pld_apfixed

type t = { signed : bool; int_bits : int; bits : Bits.t }

let width t = Bits.width t.bits
let int_bits t = t.int_bits
let frac_bits t = width t - t.int_bits
let signed t = t.signed
let raw t = t.bits
let make ~signed ~int_bits bits = { signed; int_bits; bits }

let of_ap_int a = { signed = Ap_int.signed a; int_bits = Ap_int.width a; bits = Ap_int.bits a }

(* Shift the raw pattern so the value gains [diff] fraction bits
   (positive widens to the right, negative truncates toward -inf), at a
   result width of [w], then reinterpret under the caller's sign. *)
let reraw ~own_signed ~w raw diff =
  if diff >= 0 then begin
    let ext = Bits.resize ~signed:own_signed ~width:(max w (Bits.width raw + diff)) raw in
    Bits.resize ~signed:own_signed ~width:w (Bits.shift_left ext diff)
  end
  else begin
    let shifted =
      if own_signed then Bits.shift_right_arith raw (-diff) else Bits.shift_right_logical raw (-diff)
    in
    Bits.resize ~signed:own_signed ~width:w shifted
  end

let convert ~signed ~width:w ~int_bits t =
  let diff = (w - int_bits) - frac_bits t in
  { signed; int_bits; bits = reraw ~own_signed:t.signed ~w t.bits diff }

let to_ap_int t =
  let w = max t.int_bits 1 in
  let c = convert ~signed:t.signed ~width:w ~int_bits:w t in
  Ap_int.make ~signed:t.signed c.bits

(* Bring two operands to a common signedness, fraction and width large
   enough to represent both exactly. *)
let align a b =
  let s = a.signed || b.signed in
  let f = max (frac_bits a) (frac_bits b) in
  let need v = (if s && not v.signed then 1 else 0) + v.int_bits in
  let i = max (need a) (need b) in
  let w = i + f in
  let w = max w 1 in
  let conv v = convert ~signed:s ~width:w ~int_bits:(w - f) v in
  (conv a, conv b, s, i, f)

let addsub op a b =
  let a', b', s, i, f = align a b in
  (* One growth bit so the sum/difference cannot wrap. *)
  let w = i + f + 1 in
  let widen v = Bits.resize ~signed:s ~width:w v.bits in
  { signed = s; int_bits = i + 1; bits = op (widen a') (widen b') }

let add = addsub Bits.add

(* Differences are signed even for unsigned operands. *)
let sub a b =
  let a', b', s, i, f = align a b in
  let w = i + f + 1 in
  let widen v = Bits.resize ~signed:s ~width:w v.bits in
  { signed = true; int_bits = i + 1; bits = Bits.sub (widen a') (widen b') }

let mul a b =
  let s = a.signed || b.signed in
  let w = width a + width b in
  let wa = Bits.resize ~signed:a.signed ~width:w a.bits in
  let wb = Bits.resize ~signed:b.signed ~width:w b.bits in
  { signed = s; int_bits = a.int_bits + b.int_bits; bits = Bits.mul wa wb }

let div a b =
  let s = a.signed || b.signed in
  let fa = frac_bits a and fb = frac_bits b in
  let shift = max 0 (width b + fb) in
  let fr = fa - fb + shift in
  let ir = a.int_bits + fb + 1 in
  let wr = max 1 (ir + fr) in
  let wwork = max wr (width a + shift + 1) in
  let araw = Bits.shift_left (Bits.resize ~signed:a.signed ~width:wwork a.bits) shift in
  let braw = Bits.resize ~signed:b.signed ~width:wwork b.bits in
  let q = if s then Bits.sdiv araw braw else Bits.udiv araw braw in
  { signed = s; int_bits = ir; bits = Bits.resize ~signed:s ~width:wr q }

let neg t =
  let w = width t + 1 in
  { signed = true; int_bits = t.int_bits + 1; bits = Bits.neg (Bits.resize ~signed:t.signed ~width:w t.bits) }

let compare a b =
  let a', b', s, _, _ = align a b in
  if s then Bits.compare_signed a'.bits b'.bits else Bits.compare_unsigned a'.bits b'.bits

let is_zero t = Bits.is_zero t.bits
