open Pld_ir
open Pld_apfixed

(* The immediate and limb paths against an independent reference.
   [Ref] computes every value as a full-precision fixed-point number on
   the test's own Ap_fixed and Ap_int (test/ap_fixed.ml,
   test/ap_int.ml), which work out each result's format without
   Aptype: Value, the evaluator's kernels and Expr.infer all read
   Aptype's one rule, and these properties hold that rule to a second
   derivation. *)
module Ref = struct
  type v = { dt : Dtype.t; fx : Ap_fixed.t }

  let params = function
    | Dtype.Bool -> (false, 1, 1)
    | Dtype.UInt w -> (false, w, w)
    | Dtype.SInt w -> (true, w, w)
    | Dtype.UFixed { width; int_bits } -> (false, width, int_bits)
    | Dtype.SFixed { width; int_bits } -> (true, width, int_bits)

  let of_value x =
    let s, _, i = params (Value.dtype x) in
    { dt = Value.dtype x; fx = Ap_fixed.make ~signed:s ~int_bits:i (Value.to_bits x) }

  let of_fx fx =
    let w = Ap_fixed.width fx and i = Ap_fixed.int_bits fx and s = Ap_fixed.signed fx in
    let dt =
      if w = i then if s then Dtype.SInt w else Dtype.UInt w
      else if s then Dtype.SFixed { width = w; int_bits = i }
      else Dtype.UFixed { width = w; int_bits = i }
    in
    { dt; fx }

  let with_bits dt bits =
    let s, _, i = params dt in
    { dt; fx = Ap_fixed.make ~signed:s ~int_bits:i bits }

  let cast dt v =
    let s, w, i = params dt in
    { dt; fx = Ap_fixed.convert ~signed:s ~width:w ~int_bits:i v.fx }

  let bitcast dt v = with_bits dt (Bits.resize ~signed:false ~width:(Dtype.width dt) (Ap_fixed.raw v.fx))
  let to_int v = Ap_int.to_int (Ap_fixed.to_ap_int v.fx)
  let to_bool v = not (Ap_fixed.is_zero v.fx)
  let bool b = with_bits Dtype.Bool (Bits.of_int ~width:1 (if b then 1 else 0))
  let ap v = Ap_int.make ~signed:(Dtype.is_signed v.dt) (Ap_fixed.raw v.fx)
  let of_ap a = of_fx (Ap_fixed.of_ap_int a)

  let integer name v =
    if not (Dtype.is_integer v.dt) then
      invalid_arg (Printf.sprintf "Value.%s: %s is not an integer type" name (Dtype.to_string v.dt))

  let bitwise name f a b =
    integer name a;
    integer name b;
    of_ap (f (ap a) (ap b))

  let binop (op : Expr.binop) a b =
    let cmp p = bool (p (Ap_fixed.compare a.fx b.fx)) in
    match op with
    | Add -> of_fx (Ap_fixed.add a.fx b.fx)
    | Sub -> of_fx (Ap_fixed.sub a.fx b.fx)
    | Mul -> of_fx (Ap_fixed.mul a.fx b.fx)
    | Div ->
        if Dtype.is_integer a.dt && Dtype.is_integer b.dt then of_ap (Ap_int.div (ap a) (ap b))
        else of_fx (Ap_fixed.div a.fx b.fx)
    | Rem -> bitwise "rem" Ap_int.rem a b
    | And -> bitwise "logand" Ap_int.logand a b
    | Or -> bitwise "logor" Ap_int.logor a b
    | Xor -> bitwise "logxor" Ap_int.logxor a b
    | Shl -> with_bits a.dt (Bits.shift_left (Ap_fixed.raw a.fx) (to_int b))
    | Shr ->
        let s, _, _ = params a.dt in
        let raw = Ap_fixed.raw a.fx in
        let n = to_int b in
        with_bits a.dt (if s then Bits.shift_right_arith raw n else Bits.shift_right_logical raw n)
    | Eq -> cmp (fun c -> c = 0)
    | Ne -> cmp (fun c -> c <> 0)
    | Lt -> cmp (fun c -> c < 0)
    | Le -> cmp (fun c -> c <= 0)
    | Gt -> cmp (fun c -> c > 0)
    | Ge -> cmp (fun c -> c >= 0)
    | LAnd -> bool (to_bool a && to_bool b)
    | LOr -> bool (to_bool a || to_bool b)

  let unop (op : Expr.unop) a =
    match op with
    | Neg -> of_fx (Ap_fixed.neg a.fx)
    | BNot ->
        integer "lognot" a;
        of_ap (Ap_int.lognot (ap a))
    | LNot -> bool (not (to_bool a))
end

let show_dt = Dtype.to_string
let show x = Printf.sprintf "%s %s" (show_dt (Value.dtype x)) (Bits.to_hex (Value.to_bits x))

let show_ref (r : Ref.v) =
  Printf.sprintf "%s %s" (show_dt r.Ref.dt) (Bits.to_hex (Ap_fixed.raw r.Ref.fx))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Both paths agree: same dtype and bits, or the same error. *)
let agree name got want =
  let ok =
    match (got, want) with
    | Ok x, Ok (r : Ref.v) ->
        Dtype.equal (Value.dtype x) r.Ref.dt && Bits.equal (Value.to_bits x) (Ap_fixed.raw r.Ref.fx)
    | Error a, Error b -> a = b
    | _ -> false
  in
  if not ok then
    QCheck.Test.fail_reportf "%s: narrow %s, limb %s" name
      (match got with Ok x -> show x | Error m -> "raises " ^ m)
      (match want with Ok r -> show_ref r | Error m -> "raises " ^ m);
  true

(* A kernel computes on images: the result itself when it is narrow,
   and the low 63 bits of its raw pattern (what a cast above the node
   reads) when it is wide. *)
let agree_kernel name r image want =
  if Value.is_narrow r then agree name (outcome (fun () -> Value.of_low r (image ()))) want
  else begin
    let low (w : Ref.v) = Int64.to_int (Bits.to_int64_unsigned (Ap_fixed.raw w.Ref.fx)) in
    let got = outcome image in
    let ok =
      match (got, want) with
      | Ok i, Ok w -> Dtype.equal r w.Ref.dt && i = low w
      | Error a, Error b -> a = b
      | _ -> false
    in
    if not ok then
      QCheck.Test.fail_reportf "%s: kernel %s image %s, limb %s" name (show_dt r)
        (match got with Ok i -> Printf.sprintf "%x" i | Error m -> "raises " ^ m)
        (match want with Ok w -> show_ref w | Error m -> "raises " ^ m);
    true
  end

(* ---------- generators ---------- *)

(* Dtypes every property also draws as they are: the paper's fx64
   intermediates, and fixed types with no fraction bits, which keep
   their declared type and divide as fixed point. *)
let table =
  [|
    Dtype.Bool;
    Dtype.UInt 8;
    Dtype.SInt 8;
    Dtype.UInt 32;
    Dtype.SInt 32;
    Dtype.SFixed { width = 32; int_bits = 17 };
    Dtype.UFixed { width = 16; int_bits = 4 };
    Dtype.SFixed { width = 64; int_bits = 40 };
    Dtype.UFixed { width = 8; int_bits = 8 };
    Dtype.SFixed { width = 16; int_bits = 16 };
  |]

(* A quarter of the random widths are wider than an immediate, up to
   130 bits, so the limb path meets narrow, wide and mixed operands. *)
let gen_dtype =
  QCheck.Gen.(
    let* wide = int_bound 3 in
    let* w = if wide = 0 then int_range 63 130 else int_range 1 62 in
    let* kind = int_bound 12 in
    let* i = int_range (-4) (w + 4) in
    let* fixed = oneofa table in
    return
      (match kind with
      | 0 -> Dtype.Bool
      | 1 -> Dtype.SInt 32
      | 2 | 3 -> Dtype.UInt w
      | 4 | 5 -> Dtype.SInt w
      | 6 | 7 | 8 -> Dtype.SFixed { width = w; int_bits = i }
      | 9 | 10 -> Dtype.UFixed { width = w; int_bits = i }
      | _ -> fixed))

(* Edge operands (0, -1, min, max) half the time, small patterns (shift
   amounts, indices) often, random patterns otherwise. *)
let gen_value dt =
  let w = Dtype.width dt in
  QCheck.Gen.(
    let* pick = int_bound 9 in
    let* small = int_range (-70) 70 in
    let* chunks = list_repeat ((w + 29) / 30) (int_bound 0x3FFF_FFFF) in
    let min = Bits.shift_left (Bits.one w) (w - 1) in
    let pattern =
      match pick with
      | 0 -> Bits.zero w
      | 1 -> Bits.ones w
      | 2 -> min
      | 3 -> Bits.lognot min
      | 4 -> Bits.one w
      | 5 | 6 -> Bits.of_int ~width:w small
      | _ ->
          List.fold_left
            (fun acc c -> Bits.logor (Bits.shift_left acc 30) (Bits.of_int ~width:w c))
            (Bits.zero w) chunks
    in
    return (Value.of_bits dt pattern))

let gen_operand = QCheck.Gen.(gen_dtype >>= gen_value)

let binops =
  Expr.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge; LAnd; LOr ]

let unops = Expr.[ Neg; BNot; LNot ]

(* ---------- kernels against the limb path ---------- *)

(* The -O0 code generator's static type of [e] over variables [a] and
   [b] is the reference's dynamic one. *)
let static_type name e a b want =
  match want with
  | Ok (w : Ref.v) ->
      let env v = Value.dtype (if v = "a" then a else b) in
      let t = Expr.infer env e in
      if not (Dtype.equal t w.Ref.dt) then
        QCheck.Test.fail_reportf "%s: inferred %s, reference %s" name (show_dt t) (show_dt w.Ref.dt)
  | Error _ -> ()

let prop_binop_kernels =
  let gen = QCheck.Gen.(triple (oneofl binops) gen_operand gen_operand) in
  let print (op, a, b) = Printf.sprintf "%s (%s) (%s)" (Expr.binop_name op) (show a) (show b) in
  QCheck.Test.make ~name:"binop kernels match the limb path" ~count:4000 (QCheck.make ~print gen)
    (fun (op, a, b) ->
      let want = outcome (fun () -> Ref.binop op (Ref.of_value a) (Ref.of_value b)) in
      let name = Expr.binop_name op in
      static_type name (Expr.Bin (op, Var "a", Var "b")) a b want;
      (match Interp.bin_kernel op (Value.dtype a) (Value.dtype b) with
      | Some (Interp.Imm (r, k)) ->
          ignore (agree_kernel name r (fun () -> k (Value.low a) (Value.low b)) want)
      | Some (Interp.Limb r) -> (
          match want with
          | Ok w when not (Dtype.equal r w.Ref.dt) ->
              QCheck.Test.fail_reportf "%s: static %s, dynamic %s" name (show_dt r) (show_dt w.Ref.dt)
          | _ -> ())
      | None -> ());
      agree ("limb " ^ name) (outcome (fun () -> Interp.binop op a b)) want)

let prop_unop_kernels =
  let gen = QCheck.Gen.(pair (oneofl unops) gen_operand) in
  let name = function Expr.Neg -> "neg" | BNot -> "bnot" | LNot -> "lnot" in
  let print (op, a) = Printf.sprintf "%s (%s)" (name op) (show a) in
  QCheck.Test.make ~name:"unop kernels match the limb path" ~count:1500 (QCheck.make ~print gen)
    (fun (op, a) ->
      let want = outcome (fun () -> Ref.unop op (Ref.of_value a)) in
      static_type (name op) (Expr.Un (op, Var "a")) a a want;
      (match Interp.un_kernel op (Value.dtype a) with
      | Some (Interp.Imm (r, k)) -> ignore (agree_kernel "unop" r (fun () -> k (Value.low a)) want)
      | _ -> ());
      agree "limb unop" (outcome (fun () -> Interp.unop op a)) want)

let prop_cast_kernels =
  let gen = QCheck.Gen.(pair gen_dtype gen_operand) in
  let print (dt, a) = Printf.sprintf "(%s) (%s)" (show_dt dt) (show a) in
  QCheck.Test.make ~name:"cast and bitcast kernels match the limb path" ~count:3000
    (QCheck.make ~print gen) (fun (dst, a) ->
      let src = Value.dtype a in
      let on_kernel name kernel want =
        match kernel with
        | Interp.Imm (r, k) -> ignore (agree_kernel name r (fun () -> k (Value.low a)) (Ok want))
        | Interp.Limb _ -> ()
      in
      let cast = Ref.cast dst (Ref.of_value a) and bitcast = Ref.bitcast dst (Ref.of_value a) in
      on_kernel "cast" (Interp.cast_kernel ~src ~dst) cast;
      on_kernel "bitcast" (Interp.bitcast_kernel ~src ~dst) bitcast;
      ignore (agree "Value.cast" (Ok (Value.cast dst a)) (Ok cast));
      agree "Value.bitcast" (Ok (Value.bitcast dst a)) (Ok bitcast))

(* ---------- fused casts, through the evaluator ---------- *)

let eval e dt =
  let out = Queue.create () in
  let op = Op.make ~name:"probe" ~inputs:[] ~outputs:[ Op.port "out" dt ] [ Op.Write ("out", e) ] in
  Interp.run_operator op (Interp.queue_io ~inputs:[] ~outputs:[ ("out", out) ]);
  Queue.pop out

let fusable = Expr.[ Add; Sub; Mul; And; Or; Xor; Shl ]

(* A cast or bitcast over one or two fusable nodes, whose
   full-precision intermediates are often wider than an immediate. Half
   the casts drop k fraction bits at a width near 63 - k, where the
   kept bits reach bit 63 of the wrapping product. The outer node takes
   the inner one as its left or right operand, so a wide intermediate
   is also a shift amount. *)
let prop_fused_casts =
  let gen =
    QCheck.Gen.(
      let* bitcast = bool in
      let* op1 = oneofl fusable and* op2 = oneofl fusable in
      let* nested = bool and* swap = bool in
      let* a = gen_operand and* b = gen_operand and* c = gen_operand in
      let* boundary = bool and* k = int_range 1 8 and* dw = int_range (-1) 1 and* signed = bool in
      let* any = gen_dtype in
      let dst =
        match Interp.bin_kernel op1 (Value.dtype a) (Value.dtype b) with
        | Some (Interp.Imm (r, _) | Interp.Limb r) when boundary && not nested ->
            let width = max 1 (min 62 (63 - k + dw)) in
            let int_bits = width - (Dtype.frac r - k) in
            if signed then Dtype.SFixed { width; int_bits } else Dtype.UFixed { width; int_bits }
        | _ -> any
      in
      return (bitcast, dst, op1, op2, (if nested then Some swap else None), a, b, c))
  in
  let print (bitcast, dst, op1, op2, nested, a, b, c) =
    Printf.sprintf "%s<%s> (%s (%s) (%s))%s"
      (if bitcast then "bitcast" else "cast")
      (show_dt dst) (Expr.binop_name op1) (show a) (show b)
      (match nested with
      | Some swap -> Printf.sprintf " %s (%s)%s" (Expr.binop_name op2) (show c) (if swap then " swapped" else "")
      | None -> "")
  in
  QCheck.Test.make ~name:"fused casts match the limb path" ~count:6000 (QCheck.make ~print gen)
    (fun (bitcast, dst, op1, op2, nested, a, b, c) ->
      let inner = Expr.Bin (op1, Const a, Const b) in
      let outer swap x y = if swap then (y, x) else (x, y) in
      let inner =
        match nested with
        | Some swap ->
            let x, y = outer swap inner (Expr.Const c) in
            Expr.Bin (op2, x, y)
        | None -> inner
      in
      let e = if bitcast then Expr.Bitcast (dst, inner) else Expr.Cast (dst, inner) in
      let want =
        outcome (fun () ->
            let r = Ref.binop op1 (Ref.of_value a) (Ref.of_value b) in
            let r =
              match nested with
              | Some swap ->
                  let x, y = outer swap r (Ref.of_value c) in
                  Ref.binop op2 x y
              | None -> r
            in
            (if bitcast then Ref.bitcast else Ref.cast) dst r)
      in
      agree "fused" (outcome (fun () -> eval e dst)) want)

(* ---------- edge cases ---------- *)

let i32 = Dtype.SInt 32
let check_value msg want got = Alcotest.(check string) msg want (Value.to_string got)

let test_edges () =
  let v dt n = Expr.Const (Value.of_int dt n) in
  let min32 = v i32 (-0x8000_0000) in
  (* 2^62 is one past max_int: the product takes the limb path, and a
     cast above it keeps its low bits. *)
  check_value "i32 min * min" "4611686018427387904" (eval Expr.(min32 * min32) (Dtype.SInt 64));
  check_value "(i32)(min * min)" "0" (eval (Expr.Cast (i32, Expr.(min32 * min32))) i32);
  check_value "(i63)(min * min) wraps" "-4611686018427387904"
    (eval (Expr.Cast (Dtype.SInt 63, Expr.(min32 * min32))) (Dtype.SInt 63));
  check_value "min / -1 wraps at the promoted width" "-2147483648" (eval Expr.(min32 / v i32 (-1)) i32);
  check_value "min % -1" "0" (eval Expr.(min32 % v i32 (-1)) i32);
  check_value "signed / 0 is all-ones" "-1" (eval Expr.(v i32 7 / v i32 0) i32);
  let u8 = Dtype.UInt 8 in
  check_value "unsigned / 0 is all-ones" "255" (eval Expr.(v u8 7 / v u8 0) u8);
  check_value "% 0 is the dividend" "-7" (eval Expr.(v i32 (-7) % v i32 0) i32);
  let i8 = Dtype.SInt 8 in
  check_value "arith shift past width" "-1" (eval Expr.(v i8 (-128) lsr v i32 8) i8);
  check_value "arith shift far past width" "-1" (eval Expr.(v i8 (-128) lsr v i32 200) i8);
  check_value "logical shift past width" "0" (eval Expr.(v u8 255 lsr v i32 9) u8);
  check_value "left shift at width" "0" (eval Expr.(v u8 255 lsl v i32 8) u8);
  check_value "left shift far past width" "0" (eval Expr.(v i32 5 lsl v i32 100) i32);
  let raises msg f =
    match f () with
    | _ -> Alcotest.failf "expected Invalid_argument %S" msg
    | exception Invalid_argument m -> Alcotest.(check string) "message" msg m
  in
  raises "Bits.shift_left: negative amount" (fun () -> eval Expr.(v i32 1 lsl v i32 (-1)) i32);
  raises "Bits.shift_right_arith: negative amount" (fun () -> eval Expr.(v i32 1 lsr v i32 (-1)) i32);
  raises "Bits.shift_right_logical: negative amount" (fun () -> eval Expr.(v u8 1 lsr v i32 (-1)) u8)

(* Counters charge every evaluated node: both nodes of a fused cast,
   and only the taken side of a select or a short circuit. *)
let test_counters_exact () =
  let x = Expr.Const (Value.of_int i32 3) in
  let run body =
    let c = Interp.fresh_counters () in
    let op =
      Op.make ~name:"count" ~inputs:[] ~outputs:[] ~locals:[ Op.scalar "r" i32; Op.array "a" i32 4 ] body
    in
    Interp.run_operator ~counters:c op (Interp.queue_io ~inputs:[] ~outputs:[]);
    (c.Interp.ops, c.Interp.multiplies, c.Interp.divides)
  in
  let check msg want body = Alcotest.(check (triple int int int)) msg want (run body) in
  check "fused cast" (4, 1, 0) [ Op.Assign (Op.LVar "r", Expr.Cast (i32, Expr.(x * x))) ];
  check "select takes one arm" (5, 0, 1)
    [ Op.Assign (Op.LVar "r", Expr.Select (Expr.bool_ true, Expr.(x / x), Expr.(x * x * x))) ];
  check "short circuit" (2, 0, 0) [ Op.Assign (Op.LVar "r", Expr.(bool_ false && (x * x = x))) ];
  check "or evaluates both when needed" (7, 1, 0)
    [ Op.Assign (Op.LVar "r", Expr.(bool_ false || (x * x = x))) ];
  check "store index" (4, 0, 0) [ Op.Assign (Op.LIdx ("a", Expr.int i32 1), Expr.(x + x)) ];
  check "loop" (8, 0, 0)
    [
      Op.For
        {
          var = "i";
          lo = 0;
          hi = 4;
          pipeline = false;
          body = [ Op.Assign (Op.LIdx ("a", Expr.var "i"), Expr.var "i") ];
        };
    ]

(* Errors keep their exceptions and messages, and name errors stay
   lazy: they raise only when the statement executes. *)
let test_errors_lazy () =
  let run body =
    let op =
      Op.make ~name:"bad" ~inputs:[] ~outputs:[] ~locals:[ Op.scalar "s" i32; Op.array "a" i32 4 ] body
    in
    outcome (fun () -> Interp.run_operator op (Interp.queue_io ~inputs:[] ~outputs:[]))
  in
  let check msg want body =
    Alcotest.(check (result unit string)) msg want (run body)
  in
  let never body = Op.If (Expr.bool_ false, body, []) in
  let assign lv e = Op.Assign (lv, e) in
  check "untaken undeclared" (Ok ()) [ never [ assign (Op.LVar "nope") (Expr.var "ghost") ] ];
  check "undeclared" (Error "bad: undeclared ghost") [ assign (Op.LVar "s") (Expr.var "ghost") ];
  check "undeclared target" (Error "bad: undeclared nope") [ assign (Op.LVar "nope") (Expr.int i32 1) ];
  check "array as scalar" (Error "bad: a is an array") [ assign (Op.LVar "s") (Expr.var "a") ];
  check "store to array name" (Error "bad: a is an array") [ assign (Op.LVar "a") (Expr.int i32 1) ];
  check "index a scalar" (Error "bad: s is a scalar")
    [ assign (Op.LVar "s") (Expr.Idx ("s", Expr.int i32 0)) ];
  check "load out of bounds" (Error "bad: a[4] out of bounds (len 4)")
    [ assign (Op.LVar "s") (Expr.Idx ("a", Expr.int i32 4)) ];
  check "store out of bounds" (Error "bad: a[-1] store out of bounds")
    [ assign (Op.LIdx ("a", Expr.int i32 (-1))) (Expr.int i32 0) ];
  (* The value is evaluated before the target is checked. *)
  check "value first" (Error "bad: a[9] out of bounds (len 4)")
    [ assign (Op.LVar "nope") (Expr.Idx ("a", Expr.int i32 9)) ];
  check "write to unknown port" (Error "bad: write to unknown port out") [ Op.Write ("out", Expr.int i32 0) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_binop_kernels;
    QCheck_alcotest.to_alcotest prop_unop_kernels;
    QCheck_alcotest.to_alcotest prop_cast_kernels;
    QCheck_alcotest.to_alcotest prop_fused_casts;
    ("edge operands", `Quick, test_edges);
    ("counters charge evaluated nodes", `Quick, test_counters_exact);
    ("errors keep messages and stay lazy", `Quick, test_errors_lazy);
  ]
