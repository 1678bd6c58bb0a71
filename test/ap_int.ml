(* Integer arithmetic with Xilinx ap_int/ap_uint semantics, written out
   on Bits: the integer half of the reference [Test_value.Ref] checks
   Value and the evaluator against. It derives each result's width on
   its own, independently of Aptype. *)

open Pld_apfixed

type t = { signed : bool; bits : Bits.t }

let width t = Bits.width t.bits
let signed t = t.signed
let bits t = t.bits
let make ~signed bits = { signed; bits }

let to_int64 t = if t.signed then Bits.to_int64_signed t.bits else Bits.to_int64_unsigned t.bits
let to_int t = Int64.to_int (to_int64 t)

let resize ~signed ~width t = { signed; bits = Bits.resize ~signed:t.signed ~width t.bits }

(* Promote both operands to a common (width, signedness) per the HLS
   rules: mixing signedness yields signed, and an unsigned operand
   promoted to signed needs one extra bit. *)
let promote a b =
  let s = a.signed || b.signed in
  let extra av = if s && not av.signed then 1 else 0 in
  let w = max (width a + extra a) (width b + extra b) in
  (resize ~signed:s ~width:w a, resize ~signed:s ~width:w b, s, w)

let grow2 f extra a b =
  let a', b', s, w = promote a b in
  let w' = w + extra in
  { signed = s; bits = f (Bits.resize ~signed:s ~width:w' a'.bits) (Bits.resize ~signed:s ~width:w' b'.bits) }

let div a b =
  let a', b', s, _ = promote a b in
  { signed = s; bits = (if s then Bits.sdiv else Bits.udiv) a'.bits b'.bits }

let rem a b =
  let a', b', s, _ = promote a b in
  { signed = s; bits = (if s then Bits.srem else Bits.urem) a'.bits b'.bits }

let logand = grow2 Bits.logand 0
let logor = grow2 Bits.logor 0
let logxor = grow2 Bits.logxor 0
let lognot t = { t with bits = Bits.lognot t.bits }
