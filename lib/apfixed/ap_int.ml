type t = { signed : bool; bits : Bits.t }

let width t = Bits.width t.bits
let signed t = t.signed
let bits t = t.bits
let make ~signed bits = { signed; bits }

let of_int ?(signed = true) ~width v = { signed; bits = Bits.of_int ~width v }

let to_int64 t = if t.signed then Bits.to_int64_signed t.bits else Bits.to_int64_unsigned t.bits
let to_int t = Int64.to_int (to_int64 t)

let to_float t =
  (* Accurate for widths <= 64; wider values fold limb by limb. *)
  if width t <= 64 then
    if t.signed then Int64.to_float (to_int64 t)
    else begin
      let v = Bits.to_int64_unsigned t.bits in
      if Int64.compare v 0L >= 0 then Int64.to_float v
      else Int64.to_float (Int64.shift_right_logical v 1) *. 2.0 +. Int64.to_float (Int64.logand v 1L)
    end
  else begin
    let mag = if t.signed && Bits.msb t.bits then Bits.neg t.bits else t.bits in
    let w = Bits.width mag in
    let rec fold acc i =
      if i >= w then acc
      else begin
        let chunk_w = min 32 (w - i) in
        let chunk = Bits.to_int_trunc (Bits.extract mag ~hi:(i + chunk_w - 1) ~lo:i) in
        fold (acc +. (float_of_int chunk *. Float.pow 2.0 (float_of_int i))) (i + chunk_w)
      end
    in
    let m = fold 0.0 0 in
    if t.signed && Bits.msb t.bits then -.m else m
  end

let resize ~signed ~width t = { signed; bits = Bits.resize ~signed:t.signed ~width t.bits }

(* Promote both operands to a common (width, signedness) per the HLS
   rules: mixing signedness yields signed, and an unsigned operand
   promoted to signed needs one extra bit. *)
let promote a b =
  let s = a.signed || b.signed in
  let extra av = if s && not av.signed then 1 else 0 in
  let w = max (width a + extra a) (width b + extra b) in
  (resize ~signed:s ~width:w a, resize ~signed:s ~width:w b, s, w)

(* Arithmetic results grow so they cannot overflow, as in ap_int:
   assignment back to a declared variable truncates via [resize]. *)
let grow2 f extra a b =
  let a', b', s, w = promote a b in
  let w' = w + extra in
  { signed = s; bits = f (Bits.resize ~signed:s ~width:w' a'.bits) (Bits.resize ~signed:s ~width:w' b'.bits) }

let add = grow2 Bits.add 1
let sub a b = { (grow2 Bits.sub 1 a b) with signed = true }

let mul a b =
  let s = a.signed || b.signed in
  let w = width a + width b in
  let wa = Bits.resize ~signed:a.signed ~width:w a.bits in
  let wb = Bits.resize ~signed:b.signed ~width:w b.bits in
  { signed = s; bits = Bits.mul wa wb }

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

let shift_left t n = { t with bits = Bits.shift_left t.bits n }

let compare a b =
  let a', b', s, _ = promote a b in
  if s then Bits.compare_signed a'.bits b'.bits else Bits.compare_unsigned a'.bits b'.bits


let min_value ~signed ~width =
  if signed then { signed; bits = Bits.set (Bits.zero width) (width - 1) true }
  else { signed; bits = Bits.zero width }

let max_value ~signed ~width =
  if signed then { signed; bits = Bits.set (Bits.ones width) (width - 1) false }
  else { signed; bits = Bits.ones width }

let to_string t =
  if t.signed then Bits.to_decimal_signed t.bits else Bits.to_decimal_unsigned t.bits
