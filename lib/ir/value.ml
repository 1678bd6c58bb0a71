open Pld_apfixed

(* A value of at most [narrow_bits] bits holds its raw pattern as an
   immediate: the pattern read under the dtype's sign (sign-extended
   when signed, zero-extended otherwise), so its numeric value is
   [raw * 2^-frac]. Wider values keep the pattern as Bits limbs. The split
   is canonical: the dtype alone decides it. *)
type t = N of { dtype : Dtype.t; raw : int } | W of { dtype : Dtype.t; bits : Bits.t }

let narrow_bits = 62
let is_narrow dt = Dtype.width dt <= narrow_bits
let dtype = function N { dtype; _ } | W { dtype; _ } -> dtype

(* ---------- immediates ---------- *)

let fit dt x =
  let width = Dtype.width dt in
  if Dtype.is_signed dt then (x lsl (63 - width)) asr (63 - width) else x land ((1 lsl width) - 1)

let rescale d x = if d >= 63 then 0 else if d >= 0 then x lsl d else x asr min (-d) narrow_bits

let raw_cast ~src ~dst x = fit dst (rescale (Dtype.frac dst - Dtype.frac src) x)

(* Narrowing keeps the low bits; widening zero-extends the pattern. *)
let raw_bitcast ~src ~dst x =
  let ws = Dtype.width src in
  if Dtype.width dst <= ws then fit dst x else x land ((1 lsl ws) - 1)

(* [to_int] of an integer-valued dtype is its value modulo 2^63, which
   is its image at any width. *)
let int_of_low dt =
  let int_bits = Dtype.int_bits dt in
  if int_bits = Dtype.width dt then Some (fun x -> x)
  else if is_narrow dt && int_bits <= narrow_bits then Some (rescale (-Dtype.frac dt))
  else None

(* ---------- the limb path ---------- *)

let to_bits = function
  | N { dtype; raw } -> Bits.of_int ~width:(Dtype.width dtype) raw
  | W { bits; _ } -> bits

(* The value of [dtype] whose raw pattern is [bits], exactly [dtype]'s
   width. *)
let at dtype bits =
  if Bits.width bits <= narrow_bits then N { dtype; raw = fit dtype (Bits.to_int_trunc bits) }
  else W { dtype; bits }

let resized ~signed width bits = if Bits.width bits = width then bits else Bits.resize ~signed ~width bits

(* [v]'s raw pattern extended under its own sign (or truncated) to
   [width]. *)
let extend width = function
  | N { raw; _ } -> Bits.of_int ~width raw
  | W { dtype; bits } -> resized ~signed:(Dtype.is_signed dtype) width bits

(* The raw pattern of [v] cast to [dst], at [dst]'s width: the value
   gains [d] fraction bits (a negative [d] truncates toward negative
   infinity), and integer bits beyond the width wrap. *)
let cast_bits dst v =
  let src = dtype v and w = Dtype.width dst in
  let d = Dtype.frac dst - Dtype.frac src in
  if d = 0 then extend w v
  else if d > 0 then resized ~signed:false w (Bits.shift_left (extend (max w (Dtype.width src + d)) v) d)
  else begin
    let signed = Dtype.is_signed src and raw = to_bits v in
    let shifted = if signed then Bits.shift_right_arith raw (-d) else Bits.shift_right_logical raw (-d) in
    resized ~signed w shifted
  end

(* ---------- construction and conversion ---------- *)

let of_low dtype raw = N { dtype; raw }
let vfalse = N { dtype = Dtype.Bool; raw = 0 }
let vtrue = N { dtype = Dtype.Bool; raw = 1 }
let of_bool b = if b then vtrue else vfalse

let cast dtype t =
  match t with
  | N { dtype = src; raw } when is_narrow dtype -> N { dtype; raw = raw_cast ~src ~dst:dtype raw }
  | _ -> at dtype (cast_bits dtype t)

let of_int dtype v =
  if is_narrow dtype then N { dtype; raw = fit dtype (rescale (Dtype.frac dtype) v) }
  else begin
    let wide = max 64 (Dtype.width dtype + 1) in
    cast dtype (W { dtype = Dtype.SInt wide; bits = Bits.of_int ~width:wide v })
  end

(* Round to nearest and wrap: the workload-boundary constructor, for
   values that fit in 64 bits. *)
let of_float dtype x =
  let scaled = Float.round (x *. Float.pow 2.0 (float_of_int (Dtype.frac dtype))) in
  at dtype (Bits.of_int64 ~width:(Dtype.width dtype) (Int64.of_float scaled))

let of_bits dtype bits = at dtype (resized ~signed:false (Dtype.width dtype) bits)

let low = function
  | N { raw; _ } -> raw
  | W { bits; _ } -> Int64.to_int (Bits.to_int64_unsigned bits)

let to_bool = function N { raw; _ } -> raw <> 0 | W { bits; _ } -> not (Bits.is_zero bits)

(* Otherwise the floor at the integer type of the value's integer
   bits. *)
let to_int t =
  match int_of_low (dtype t) with
  | Some floor -> floor (low t)
  | None ->
      let w = max 1 (Dtype.int_bits (dtype t)) in
      if Dtype.is_signed (dtype t) then Int64.to_int (Bits.to_int64_signed (cast_bits (Dtype.SInt w) t))
      else Int64.to_int (Bits.to_int64_unsigned (cast_bits (Dtype.UInt w) t))

(* The integer a wide raw pattern holds under [signed]: its magnitude's
   32-bit chunks summed lowest first, so a pattern of at most 64 bits
   rounds once, to the nearest float. *)
let float_of_bits ~signed bits =
  let negative = signed && Bits.msb bits in
  let mag = if negative then Bits.neg bits else bits in
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
  if negative then -.m else m

let to_float t =
  let dt = dtype t in
  let v =
    match t with
    | N { raw; _ } -> float_of_int raw
    | W { bits; _ } -> float_of_bits ~signed:(Dtype.is_signed dt) bits
  in
  v *. Float.pow 2.0 (float_of_int (-Dtype.frac dt))

let bitcast dtype t =
  match t with
  | N { dtype = src; raw } when is_narrow dtype -> N { dtype; raw = raw_bitcast ~src ~dst:dtype raw }
  | _ -> of_bits dtype (to_bits t)

let zero dtype = of_int dtype 0

(* ---------- arithmetic (the limb path; the evaluator's compiled
   kernels take the immediate path where the types allow). Each
   operation takes its result type from Aptype, brings the operands to
   it and does one Bits operation. ---------- *)

let aligned f r a b = at r (f (cast_bits r a) (cast_bits r b))
let add a b = aligned Bits.add (Aptype.add (dtype a) (dtype b)) a b
let sub a b = aligned Bits.sub (Aptype.sub (dtype a) (dtype b)) a b

(* The product of the raw patterns, each sign-extended to the sum of
   the widths. *)
let mul a b =
  let r = Aptype.mul (dtype a) (dtype b) in
  let w = Dtype.width r in
  at r (Bits.mul (extend w a) (extend w b))

let neg a =
  let r = Aptype.neg (dtype a) in
  at r (Bits.neg (cast_bits r a))

let require_integer name v =
  if not (Dtype.is_integer (dtype v)) then
    invalid_arg (Printf.sprintf "Value.%s: %s is not an integer type" name (Dtype.to_string (dtype v)))

let divide r = if Dtype.is_signed r then Bits.sdiv else Bits.udiv

let div a b =
  let da = dtype a and db = dtype b in
  let r = Aptype.div da db in
  if Dtype.is_integer da && Dtype.is_integer db then aligned (divide r) r a b
  else begin
    let shift, work = Aptype.div_work da db in
    let w = Dtype.width work in
    at r (divide work (Bits.shift_left (extend w a) shift) (extend w b))
  end

let rem a b =
  require_integer "rem" a;
  require_integer "rem" b;
  let r = Aptype.rem (dtype a) (dtype b) in
  aligned (if Dtype.is_signed r then Bits.srem else Bits.urem) r a b

let bitwise name f a b =
  require_integer name a;
  require_integer name b;
  aligned f (Aptype.bitwise (dtype a) (dtype b)) a b

let logand = bitwise "logand" Bits.logand
let logor = bitwise "logor" Bits.logor
let logxor = bitwise "logxor" Bits.logxor

let lognot a =
  require_integer "lognot" a;
  at (Aptype.lognot (dtype a)) (Bits.lognot (to_bits a))

(* Width-preserving shifts on the raw pattern (Xilinx semantics). *)
let shift_left t n = at (dtype t) (Bits.shift_left (to_bits t) n)

let shift_right t n =
  let raw = to_bits t in
  at (dtype t) (if Dtype.is_signed (dtype t) then Bits.shift_right_arith raw n else Bits.shift_right_logical raw n)

(* Both operands hold their values exactly in their difference's
   type. *)
let compare a b =
  match (a, b) with
  | N x, N y when Dtype.frac x.dtype = Dtype.frac y.dtype -> Int.compare x.raw y.raw
  | _ ->
      let r = Aptype.sub (dtype a) (dtype b) in
      Bits.compare_signed (cast_bits r a) (cast_bits r b)

let equal_value a b = compare a b = 0

let equal a b =
  match (a, b) with
  | N a, N b -> Dtype.equal a.dtype b.dtype && a.raw = b.raw
  | _ -> Dtype.equal (dtype a) (dtype b) && Bits.equal (to_bits a) (to_bits b)

let to_string t =
  match (dtype t, t) with
  | Dtype.Bool, _ -> if to_bool t then "true" else "false"
  | (Dtype.UInt _ | Dtype.SInt _), N { raw; _ } -> string_of_int raw
  | Dtype.UInt _, W { bits; _ } -> Bits.to_decimal_unsigned bits
  | Dtype.SInt _, W { bits; _ } -> Bits.to_decimal_signed bits
  | (Dtype.UFixed _ | Dtype.SFixed _), _ -> Printf.sprintf "%.9g" (to_float t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
