open Pld_apfixed
open Pld_ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_str = Alcotest.(check string)

(* ---------- Bits ---------- *)

let b w v = Bits.of_int ~width:w v

let test_bits_roundtrip_int64 () =
  List.iter
    (fun (w, v) ->
      let t = Bits.of_int64 ~width:w v in
      let back = Bits.to_int64_signed t in
      let expect =
        if w >= 64 then v
        else begin
          let shifted = Int64.shift_left v (64 - w) in
          Int64.shift_right shifted (64 - w)
        end
      in
      check_i64 (Printf.sprintf "w=%d v=%Ld" w v) expect back)
    [ (8, 127L); (8, -128L); (8, 255L); (1, 1L); (32, -1L); (64, Int64.min_int); (40, 0xFFFFFFFFFFL); (17, 70000L) ]

let test_bits_add_wrap () =
  let r = Bits.add (b 8 200) (b 8 100) in
  check_int "200+100 mod 256" 44 (Bits.to_int_trunc r)

let test_bits_sub_neg () =
  let r = Bits.sub (b 8 5) (b 8 7) in
  check_i64 "5-7 = -2" (-2L) (Bits.to_int64_signed r);
  check_i64 "neg 1 = -1" (-1L) (Bits.to_int64_signed (Bits.neg (b 16 1)))

let test_bits_mul () =
  let r = Bits.mul (b 16 300) (b 16 500) in
  check_int "300*500 mod 2^16" (300 * 500 mod 65536) (Bits.to_int_trunc r);
  let full = Bits.mul_full (b 16 300) (b 16 500) in
  check_int "full product width" 32 (Bits.width full);
  check_int "full product value" 150000 (Bits.to_int_trunc full)

let test_bits_wide_mul () =
  (* 2^40 * 2^40 = 2^80 exactly — needs multi-limb carries. *)
  let a = Bits.shift_left (Bits.one 100) 40 in
  let r = Bits.mul a a in
  check_bool "bit 80 set" true (Bits.get r 80);
  check_int "popcount 1" 1 (Bits.popcount r)

let test_bits_divmod () =
  let q = Bits.udiv (b 32 1000) (b 32 7) in
  let r = Bits.urem (b 32 1000) (b 32 7) in
  check_int "1000/7" 142 (Bits.to_int_trunc q);
  check_int "1000 mod 7" 6 (Bits.to_int_trunc r)

let test_bits_sdiv_signs () =
  let t a bv q r =
    let qq = Bits.sdiv (b 32 a) (b 32 bv) and rr = Bits.srem (b 32 a) (b 32 bv) in
    check_i64 (Printf.sprintf "%d/%d" a bv) (Int64.of_int q) (Bits.to_int64_signed qq);
    check_i64 (Printf.sprintf "%d%%%d" a bv) (Int64.of_int r) (Bits.to_int64_signed rr)
  in
  t 7 2 3 1;
  t (-7) 2 (-3) (-1);
  t 7 (-2) (-3) 1;
  t (-7) (-2) 3 (-1)

let test_bits_div_by_zero () =
  let q = Bits.udiv (b 8 5) (b 8 0) in
  check_int "div by zero = all ones" 255 (Bits.to_int_trunc q)

let test_bits_shifts () =
  check_int "shl" 40 (Bits.to_int_trunc (Bits.shift_left (b 16 5) 3));
  check_int "shr" 5 (Bits.to_int_trunc (Bits.shift_right_logical (b 16 40) 3));
  check_i64 "sra keeps sign" (-1L) (Bits.to_int64_signed (Bits.shift_right_arith (b 8 (-4)) 2));
  check_int "shift beyond width" 0 (Bits.to_int_trunc (Bits.shift_left (b 8 255) 8));
  (* Cross-limb shifts. *)
  let wide = Bits.shift_left (Bits.one 80) 70 in
  check_bool "bit 70" true (Bits.get wide 70);
  let back = Bits.shift_right_logical wide 70 in
  check_bool "back to 1" true (Bits.equal back (Bits.one 80))

let test_bits_resize () =
  let v = b 8 (-3) in
  check_i64 "sign extend 8->32" (-3L) (Bits.to_int64_signed (Bits.resize ~signed:true ~width:32 v));
  check_int "zero extend 8->32" 253 (Bits.to_int_trunc (Bits.resize ~signed:false ~width:32 v));
  check_int "truncate 32->4" 13 (Bits.to_int_trunc (Bits.resize ~signed:true ~width:4 v));
  (* Partial top limb sign extension: width 40 negative to 100. *)
  let v40 = Bits.of_int ~width:40 (-5) in
  check_i64 "40->100 signed" (-5L) (Bits.to_int64_signed (Bits.resize ~signed:true ~width:100 v40))

let test_bits_extract () =
  let v = Bits.of_int ~width:16 0xABCD in
  check_int "extract nibble" 0xB (Bits.to_int_trunc (Bits.extract v ~hi:11 ~lo:8))

let test_bits_compare () =
  check_bool "unsigned 255 > 1" true (Bits.compare_unsigned (b 8 255) (b 8 1) > 0);
  check_bool "signed -1 < 1" true (Bits.compare_signed (b 8 255) (b 8 1) < 0)

let test_bits_hex_decimal () =
  let v = Bits.of_hex ~width:16 "abcd" in
  check_str "hex roundtrip" "abcd" (Bits.to_hex v);
  check_str "decimal unsigned" "43981" (Bits.to_decimal_unsigned v);
  check_str "decimal signed" "-21555" (Bits.to_decimal_signed v);
  check_str "big decimal" "1208925819614629174706176"
    (Bits.to_decimal_unsigned (Bits.shift_left (Bits.one 100) 80))

(* ---------- integer values ---------- *)

let ai ?(signed = true) w v = Value.of_int (if signed then Dtype.SInt w else Dtype.UInt w) v
let check_value msg dt n v =
  check_str (msg ^ " type") (Dtype.to_string dt) (Dtype.to_string (Value.dtype v));
  check_int msg n (Value.to_int v)

let test_apint_basic () =
  let x = ai 8 100 and y = ai 8 50 in
  check_value "add grows" (Dtype.SInt 9) 150 (Value.add x y);
  check_value "mul" (Dtype.SInt 16) 5000 (Value.mul x y);
  check_value "sub negative" (Dtype.SInt 9) (-50) (Value.sub y x)

let test_apint_mixed_sign () =
  let s = ai 8 (-1) and u = ai ~signed:false 8 200 in
  (* -1 + 200 must be 199, not a wrap artifact: the unsigned operand
     needs a ninth bit beside a signed one. *)
  check_value "mixed add" (Dtype.SInt 10) 199 (Value.add s u);
  check_value "mixed and" (Dtype.SInt 9) 200 (Value.logand s u);
  check_bool "compare mixed" true (Value.compare s u < 0)

let test_apint_div () =
  check_value "signed div" (Dtype.SInt 16) (-3) (Value.div (ai 16 (-7)) (ai 16 2));
  check_value "rem" (Dtype.SInt 16) 1 (Value.rem (ai 16 7) (ai 16 2));
  check_value "wide div" (Dtype.SInt 100) (-3) (Value.div (ai 100 (-7)) (ai 16 2))

let test_apint_minmax () =
  let pattern dt n = Value.to_int (Value.of_bits dt (Bits.of_int ~width:(Dtype.width dt) n)) in
  check_int "max s8" 127 (pattern (Dtype.SInt 8) 0x7F);
  check_int "min s8" (-128) (pattern (Dtype.SInt 8) 0x80);
  check_int "max u8" 255 (pattern (Dtype.UInt 8) 0xFF);
  check_int "s8 wraps" (-128) (Value.to_int (Value.cast (Dtype.SInt 8) (ai 16 128)))

let test_apint_to_float () =
  Alcotest.(check (float 1e-6)) "small" (-42.0) (Value.to_float (ai 16 (-42)));
  let big = Value.shift_left (ai 100 1) 80 in
  Alcotest.(check (float 1e18)) "2^80" (Float.pow 2.0 80.0) (Value.to_float big);
  Alcotest.(check (float 1e18)) "-2^80" (-.Float.pow 2.0 80.0) (Value.to_float (Value.neg big));
  Alcotest.(check (float 1e3)) "u64 max" 18446744073709551615.0
    (Value.to_float (Value.of_bits (Dtype.UInt 64) (Bits.ones 64)));
  (* 2^63 + 1025 lies just above the midpoint of 2^63 and the next
     float, 2^63 + 2048: one rounding reaches it, two would not. *)
  let above_tie = Bits.logor (Bits.shift_left (Bits.one 64) 63) (Bits.of_int ~width:64 1025) in
  Alcotest.(check (float 0.0)) "u64 rounds once" (Float.of_string "9223372036854777856")
    (Value.to_float (Value.of_bits (Dtype.UInt 64) above_tie))

(* ---------- fixed-point values ---------- *)

let fx ?(signed = true) width int_bits =
  if signed then Dtype.SFixed { width; int_bits } else Dtype.UFixed { width; int_bits }

let af ?signed w i x = Value.of_float (fx ?signed w i) x
let to_f = Value.to_float

let test_apfixed_roundtrip () =
  let x = af 32 17 3.14159 in
  check_bool "close" true (Float.abs (to_f x -. 3.14159) < 1e-4);
  let y = af 32 17 (-2.5) in
  Alcotest.(check (float 1e-4)) "negative" (-2.5) (to_f y)

let test_apfixed_add_mul () =
  let a = af 16 8 1.5 and bb = af 16 8 2.25 in
  Alcotest.(check (float 1e-6)) "add" 3.75 (to_f (Value.add a bb));
  Alcotest.(check (float 1e-6)) "sub" (-0.75) (to_f (Value.sub a bb));
  Alcotest.(check (float 1e-6)) "mul" 3.375 (to_f (Value.mul a bb));
  check_str "mul type" "ap_fixed<32,16>" (Dtype.to_string (Value.dtype (Value.mul a bb)))

let test_apfixed_div () =
  let a = af 32 17 7.0 and bb = af 32 17 2.0 in
  Alcotest.(check (float 1e-4)) "7/2" 3.5 (to_f (Value.div a bb));
  let n = af 32 17 (-1.0) and d = af 32 17 3.0 in
  check_bool "-1/3 near" true (Float.abs (to_f (Value.div n d) +. 0.33333) < 1e-3);
  (* A declared ap_ufixed<8,8> divides as fixed point, not as an
     integer. *)
  let q = Value.div (af ~signed:false 8 8 7.0) (ai ~signed:false 8 2) in
  check_str "fixed / integer type" "ap_ufixed<17,9>" (Dtype.to_string (Value.dtype q));
  Alcotest.(check (float 1e-9)) "7/2 unsigned" 3.5 (to_f q)

let test_apfixed_convert_truncates () =
  let x = af 32 16 1.999 in
  let y = Value.cast (fx 8 4) x in
  (* 4 fraction bits -> nearest-below multiple of 1/16. *)
  Alcotest.(check (float 1e-9)) "truncated" 1.9375 (to_f y);
  Alcotest.(check (float 1e-9)) "negative truncates down" (-2.0) (to_f (Value.cast (fx 8 4) (af 32 16 (-1.999))));
  Alcotest.(check (float 1e-9)) "wide source" 1.9375 (to_f (Value.cast (fx 8 4) (af 80 50 1.999)))

let test_apfixed_paper_types () =
  (* The optical-flow operator uses ap_fixed<64,40> intermediates:
     denom = t1*t2 - t4*t4 with ap_fixed<32,17> inputs. *)
  let t1 = af 32 17 12.25 and t2 = af 32 17 3.5 and t4 = af 32 17 (-2.0) in
  let denom = Value.sub (Value.mul t1 t2) (Value.mul t4 t4) in
  let denom64 = Value.cast (fx 64 40) denom in
  Alcotest.(check (float 1e-6)) "denom" 38.875 (to_f denom64)

let test_apfixed_compare () =
  check_bool "lt" true (Value.compare (af 16 8 1.0) (af 16 8 2.0) < 0);
  check_bool "eq across formats" true (Value.equal_value (af 16 8 1.5) (af 32 20 1.5));
  check_bool "wide lt" true (Value.compare (af 64 40 (-0.5)) (af ~signed:false 8 4 0.25) < 0)

let test_apfixed_to_ap_int () =
  let x = af 32 17 42.75 in
  check_int "floor to int" 42 (Value.to_int x);
  let y = af 32 17 (-1.25) in
  check_int "floor negative" (-2) (Value.to_int y);
  check_int "wide floor negative" (-2) (Value.to_int (af 80 50 (-1.25)))

(* ---------- properties ---------- *)

let gen_width = QCheck.Gen.int_range 1 90
let arb_width = QCheck.make gen_width

let prop_add_commutative =
  QCheck.Test.make ~name:"bits add commutative" ~count:300
    QCheck.(triple arb_width (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (w, x, y) ->
      let bx = Bits.of_int ~width:w x and by = Bits.of_int ~width:w y in
      Bits.equal (Bits.add bx by) (Bits.add by bx))

let prop_addsub_inverse =
  QCheck.Test.make ~name:"(x + y) - y = x" ~count:300
    QCheck.(triple arb_width int int)
    (fun (w, x, y) ->
      let bx = Bits.of_int ~width:w x and by = Bits.of_int ~width:w y in
      Bits.equal (Bits.sub (Bits.add bx by) by) bx)

let prop_divmod_identity =
  QCheck.Test.make ~name:"q*b + r = a (unsigned)" ~count:300
    QCheck.(triple (int_range 1 64) (int_bound max_int) (int_range 1 max_int))
    (fun (w, a, d) ->
      let ba = Bits.of_int ~width:w a and bd = Bits.of_int ~width:w d in
      QCheck.assume (not (Bits.is_zero bd));
      let q = Bits.udiv ba bd and r = Bits.urem ba bd in
      Bits.equal (Bits.add (Bits.mul q bd) r) ba && Bits.compare_unsigned r bd < 0)

let prop_mul_matches_int64 =
  QCheck.Test.make ~name:"32-bit mul matches int64" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (x, y) ->
      let r = Bits.mul (Bits.of_int ~width:32 x) (Bits.of_int ~width:32 y) in
      Bits.to_int64_unsigned r = Int64.logand (Int64.mul (Int64.of_int x) (Int64.of_int y)) 0xFFFFFFFFL)

let prop_shift_mul_pow2 =
  QCheck.Test.make ~name:"shl k = mul 2^k" ~count:300
    QCheck.(triple arb_width (int_bound 1000) (int_bound 6))
    (fun (w, x, k) ->
      QCheck.assume (w > k);
      let bx = Bits.of_int ~width:w x in
      Bits.equal (Bits.shift_left bx k) (Bits.mul bx (Bits.of_int ~width:w (1 lsl k))))

let prop_resize_roundtrip =
  QCheck.Test.make ~name:"widen then truncate is identity" ~count:300
    QCheck.(pair (int_range 1 60) int)
    (fun (w, x) ->
      let bx = Bits.of_int ~width:w x in
      let widened = Bits.resize ~signed:true ~width:(w + 40) bx in
      Bits.equal (Bits.resize ~signed:true ~width:w widened) bx)

let prop_apfixed_add_float =
  QCheck.Test.make ~name:"ap_fixed add tracks float" ~count:300
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (x, y) ->
      let fx = af 32 17 x and fy = af 32 17 y in
      let s = to_f (Value.add fx fy) in
      Float.abs (s -. (to_f fx +. to_f fy)) < 1e-6)

let prop_apfixed_mul_float =
  QCheck.Test.make ~name:"ap_fixed mul tracks float" ~count:300
    QCheck.(pair (float_range (-100.0) 100.0) (float_range (-100.0) 100.0))
    (fun (x, y) ->
      let fx = af 32 17 x and fy = af 32 17 y in
      let p = to_f (Value.mul fx fy) in
      Float.abs (p -. (to_f fx *. to_f fy)) < 1e-6)

let prop_apfixed_div_identity =
  QCheck.Test.make ~name:"(a/b)*b ~ a" ~count:200
    QCheck.(pair (float_range (-100.0) 100.0) (float_range 0.5 100.0))
    (fun (x, y) ->
      let fx = af 32 17 x and fy = af 32 17 y in
      let q = Value.div fx fy in
      Float.abs ((to_f q *. to_f fy) -. to_f fx) < 1e-2)

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"unsigned decimal printing matches int64" ~count:300
    QCheck.(pair (int_range 1 62) (int_bound max_int))
    (fun (w, x) ->
      let b = Bits.of_int ~width:w x in
      Bits.to_decimal_unsigned b = Int64.to_string (Bits.to_int64_unsigned b))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex print/parse roundtrip" ~count:300
    QCheck.(pair (int_range 1 100) int)
    (fun (w, x) ->
      let b = Bits.of_int ~width:w x in
      Bits.equal (Bits.of_hex ~width:w (Bits.to_hex b)) b)

let suite =
  [
    ("bits int64 roundtrip", `Quick, test_bits_roundtrip_int64);
    ("bits add wraps", `Quick, test_bits_add_wrap);
    ("bits sub/neg", `Quick, test_bits_sub_neg);
    ("bits mul", `Quick, test_bits_mul);
    ("bits wide mul", `Quick, test_bits_wide_mul);
    ("bits divmod", `Quick, test_bits_divmod);
    ("bits signed division signs", `Quick, test_bits_sdiv_signs);
    ("bits division by zero", `Quick, test_bits_div_by_zero);
    ("bits shifts", `Quick, test_bits_shifts);
    ("bits resize", `Quick, test_bits_resize);
    ("bits extract", `Quick, test_bits_extract);
    ("bits compare", `Quick, test_bits_compare);
    ("bits hex/decimal", `Quick, test_bits_hex_decimal);
    ("ap_int basic ops", `Quick, test_apint_basic);
    ("ap_int mixed signedness", `Quick, test_apint_mixed_sign);
    ("ap_int division", `Quick, test_apint_div);
    ("ap_int min/max", `Quick, test_apint_minmax);
    ("ap_int to_float", `Quick, test_apint_to_float);
    ("ap_fixed float roundtrip", `Quick, test_apfixed_roundtrip);
    ("ap_fixed add/mul", `Quick, test_apfixed_add_mul);
    ("ap_fixed div", `Quick, test_apfixed_div);
    ("ap_fixed convert truncates", `Quick, test_apfixed_convert_truncates);
    ("ap_fixed paper flow_calc types", `Quick, test_apfixed_paper_types);
    ("ap_fixed compare", `Quick, test_apfixed_compare);
    ("ap_fixed to ap_int floors", `Quick, test_apfixed_to_ap_int);
    QCheck_alcotest.to_alcotest prop_add_commutative;
    QCheck_alcotest.to_alcotest prop_addsub_inverse;
    QCheck_alcotest.to_alcotest prop_divmod_identity;
    QCheck_alcotest.to_alcotest prop_mul_matches_int64;
    QCheck_alcotest.to_alcotest prop_shift_mul_pow2;
    QCheck_alcotest.to_alcotest prop_resize_roundtrip;
    QCheck_alcotest.to_alcotest prop_apfixed_add_float;
    QCheck_alcotest.to_alcotest prop_apfixed_mul_float;
    QCheck_alcotest.to_alcotest prop_apfixed_div_identity;
    QCheck_alcotest.to_alcotest prop_decimal_roundtrip;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
  ]
