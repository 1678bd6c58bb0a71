open Pld_apfixed

(* A value of at most [narrow_bits] bits holds its raw pattern as an
   immediate: the pattern read under the dtype's sign (sign-extended
   when signed, zero-extended otherwise), so its numeric value is
   [raw * 2^-frac]. Wider values keep the limb representation. The
   split is canonical: the dtype alone decides it. *)
type t = N of { dtype : Dtype.t; raw : int } | W of { dtype : Dtype.t; fx : Ap_fixed.t }

let narrow_bits = 62
let is_narrow dt = Dtype.width dt <= narrow_bits
let dtype = function N { dtype; _ } | W { dtype; _ } -> dtype

let fx_params = function
  | Dtype.Bool -> (false, 1, 1)
  | Dtype.UInt w -> (false, w, w)
  | Dtype.SInt w -> (true, w, w)
  | Dtype.UFixed { width; int_bits } -> (false, width, int_bits)
  | Dtype.SFixed { width; int_bits } -> (true, width, int_bits)

let frac dt =
  let _, w, i = fx_params dt in
  w - i

(* ---------- immediates ---------- *)

let fit dt x =
  let signed, width, _ = fx_params dt in
  if signed then (x lsl (63 - width)) asr (63 - width) else x land ((1 lsl width) - 1)

let rescale d x = if d >= 63 then 0 else if d >= 0 then x lsl d else x asr min (-d) narrow_bits

let raw_cast ~src ~dst x = fit dst (rescale (frac dst - frac src) x)

(* Narrowing keeps the low bits; widening zero-extends the pattern. *)
let raw_bitcast ~src ~dst x =
  let ws = Dtype.width src in
  if Dtype.width dst <= ws then fit dst x else x land ((1 lsl ws) - 1)

(* [to_int] of an integer-valued dtype is its value modulo 2^63, which
   is its image at any width. *)
let int_of_low dt =
  let _, width, int_bits = fx_params dt in
  if int_bits = width then Some (fun x -> x)
  else if is_narrow dt && int_bits <= narrow_bits then Some (rescale (-frac dt))
  else None

(* ---------- the limb path ---------- *)

let to_fx = function
  | W { fx; _ } -> fx
  | N { dtype; raw } ->
      let signed, width, int_bits = fx_params dtype in
      Ap_fixed.make ~signed ~int_bits (Bits.of_int ~width raw)

(* [fx] already carries [dtype]'s sign, width and integer bits. *)
let at dtype fx =
  let width = Ap_fixed.width fx in
  if width <= narrow_bits then N { dtype; raw = fit dtype (Bits.to_int_trunc (Ap_fixed.raw fx)) }
  else W { dtype; fx }

(* Recover the canonical dtype of a full-precision intermediate. *)
let dtype_of_fx fx =
  let w = Ap_fixed.width fx and i = Ap_fixed.int_bits fx and s = Ap_fixed.signed fx in
  if w = i then if s then Dtype.SInt w else Dtype.UInt w
  else if s then Dtype.SFixed { width = w; int_bits = i }
  else Dtype.UFixed { width = w; int_bits = i }

let of_fx fx = at (dtype_of_fx fx) fx

let normalize dtype fx =
  let signed, width, int_bits = fx_params dtype in
  at dtype (Ap_fixed.convert ~signed ~width ~int_bits fx)

(* ---------- construction and conversion ---------- *)

let of_low dtype raw = N { dtype; raw }
let vfalse = N { dtype = Dtype.Bool; raw = 0 }
let vtrue = N { dtype = Dtype.Bool; raw = 1 }
let of_bool b = if b then vtrue else vfalse

let of_int dtype v =
  if is_narrow dtype then N { dtype; raw = fit dtype (rescale (frac dtype) v) }
  else begin
    let _, width, _ = fx_params dtype in
    let wide = max 64 (width + 1) in
    normalize dtype (Ap_fixed.make ~signed:true ~int_bits:wide (Bits.of_int ~width:wide v))
  end

let of_float dtype x =
  let signed, width, int_bits = fx_params dtype in
  at dtype (Ap_fixed.of_float ~signed ~width ~int_bits x)

let of_bits dtype bits =
  let signed, width, int_bits = fx_params dtype in
  at dtype (Ap_fixed.make ~signed ~int_bits (Bits.resize ~signed:false ~width bits))

let low = function
  | N { raw; _ } -> raw
  | W { fx; _ } -> Int64.to_int (Bits.to_int64_unsigned (Ap_fixed.raw fx))

let to_bits = function
  | N { dtype; raw } -> Bits.of_int ~width:(Dtype.width dtype) raw
  | W { fx; _ } -> Ap_fixed.raw fx

let to_bool = function N { raw; _ } -> raw <> 0 | W { fx; _ } -> not (Ap_fixed.is_zero fx)

let to_int t =
  match int_of_low (dtype t) with
  | Some floor -> floor (low t)
  | None -> Ap_int.to_int (Ap_fixed.to_ap_int (to_fx t))

let to_float t = Ap_fixed.to_float (to_fx t)

let cast dtype t =
  match t with
  | N { dtype = src; raw } when is_narrow dtype -> N { dtype; raw = raw_cast ~src ~dst:dtype raw }
  | _ -> normalize dtype (to_fx t)

let bitcast dtype t =
  match t with
  | N { dtype = src; raw } when is_narrow dtype -> N { dtype; raw = raw_bitcast ~src ~dst:dtype raw }
  | _ -> of_bits dtype (to_bits t)

let zero dtype = of_int dtype 0

(* ---------- arithmetic (the limb path; the evaluator's compiled
   kernels take the immediate path where the types allow) ---------- *)

let add a b = of_fx (Ap_fixed.add (to_fx a) (to_fx b))
let sub a b = of_fx (Ap_fixed.sub (to_fx a) (to_fx b))
let mul a b = of_fx (Ap_fixed.mul (to_fx a) (to_fx b))
let neg a = of_fx (Ap_fixed.neg (to_fx a))

let require_integer name v =
  if not (Dtype.is_integer (dtype v)) then
    invalid_arg (Printf.sprintf "Value.%s: %s is not an integer type" name (Dtype.to_string (dtype v)))

let to_ap_int v = Ap_int.make ~signed:(Dtype.is_signed (dtype v)) (to_bits v)

(* Integer/integer division truncates toward zero (C semantics);
   anything involving fixed-point uses the full-precision quotient. *)
let div a b =
  if Dtype.is_integer (dtype a) && Dtype.is_integer (dtype b) then
    of_fx (Ap_fixed.of_ap_int (Ap_int.div (to_ap_int a) (to_ap_int b)))
  else of_fx (Ap_fixed.div (to_fx a) (to_fx b))

let rem a b =
  require_integer "rem" a;
  require_integer "rem" b;
  of_fx (Ap_fixed.of_ap_int (Ap_int.rem (to_ap_int a) (to_ap_int b)))

let bitwise name f a b =
  require_integer name a;
  require_integer name b;
  of_fx (Ap_fixed.of_ap_int (f (to_ap_int a) (to_ap_int b)))

let logand = bitwise "logand" Ap_int.logand
let logor = bitwise "logor" Ap_int.logor
let logxor = bitwise "logxor" Ap_int.logxor

let lognot a =
  require_integer "lognot" a;
  of_fx (Ap_fixed.of_ap_int (Ap_int.lognot (to_ap_int a)))

(* Width-preserving shifts on the raw pattern (Xilinx semantics). *)
let shift_left t n =
  let dtype = dtype t in
  let signed, _, int_bits = fx_params dtype in
  at dtype (Ap_fixed.make ~signed ~int_bits (Bits.shift_left (to_bits t) n))

let shift_right t n =
  let dtype = dtype t in
  let signed, _, int_bits = fx_params dtype in
  let shifted =
    if signed then Bits.shift_right_arith (to_bits t) n else Bits.shift_right_logical (to_bits t) n
  in
  at dtype (Ap_fixed.make ~signed ~int_bits shifted)

let compare a b =
  match (a, b) with
  | N x, N y when frac x.dtype = frac y.dtype -> Int.compare x.raw y.raw
  | _ -> Ap_fixed.compare (to_fx a) (to_fx b)

let equal_value a b = compare a b = 0

let equal a b =
  match (a, b) with
  | N a, N b -> Dtype.equal a.dtype b.dtype && a.raw = b.raw
  | _ -> Dtype.equal (dtype a) (dtype b) && Bits.equal (to_bits a) (to_bits b)

let to_string t =
  match (dtype t, t) with
  | Dtype.Bool, _ -> if to_bool t then "true" else "false"
  | (Dtype.UInt _ | Dtype.SInt _), N { raw; _ } -> string_of_int raw
  | (Dtype.UInt _ | Dtype.SInt _), W _ -> Ap_int.to_string (to_ap_int t)
  | (Dtype.UFixed _ | Dtype.SFixed _), _ -> Ap_fixed.to_string (to_fx t)

let pp fmt t = Format.pp_print_string fmt (to_string t)
