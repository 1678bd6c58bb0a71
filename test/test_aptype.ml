open Pld_ir

(* Aptype.infer must predict the interpreter's dynamic result types
   exactly — the -O0 code generator depends on it. *)

let dtypes =
  [|
    Dtype.Bool;
    Dtype.UInt 8;
    Dtype.SInt 8;
    Dtype.UInt 32;
    Dtype.SInt 32;
    Dtype.SFixed { width = 32; int_bits = 17 };
    Dtype.UFixed { width = 16; int_bits = 4 };
    Dtype.SFixed { width = 64; int_bits = 40 };
    (* Fixed types with no fraction bits: Value keeps them as declared
       and divides them as fixed point. *)
    Dtype.UFixed { width = 8; int_bits = 8 };
    Dtype.SFixed { width = 16; int_bits = 16 };
  |]

let value_for dt seed =
  match dt with
  | Dtype.Bool -> Value.of_bool (seed mod 2 = 0)
  | _ -> Value.of_int dt (seed mod 1000)

let test_static_matches_dynamic_binops () =
  let ops_all = [ Expr.Add; Expr.Sub; Expr.Mul ] in
  let ops_int = [ Expr.Div; Expr.Rem; Expr.And; Expr.Or; Expr.Xor ] in
  let ops_cmp = [ Expr.Eq; Expr.Lt; Expr.Ge; Expr.LAnd ] in
  Array.iteri
    (fun i da ->
      Array.iteri
        (fun j db ->
          let va = value_for da (i + 3) and vb = value_for db (j + 7) in
          let env name = if name = "a" then da else db in
          let try_op op =
            let e = Expr.Bin (op, Expr.Var "a", Expr.Var "b") in
            let static = Aptype.to_dtype (Aptype.infer env e) in
            let dynamic =
              let apply =
                match op with
                | Expr.Add -> Value.add
                | Expr.Sub -> Value.sub
                | Expr.Mul -> Value.mul
                | Expr.Div -> Value.div
                | Expr.Rem -> Value.rem
                | Expr.And -> Value.logand
                | Expr.Or -> Value.logor
                | Expr.Xor -> Value.logxor
                | _ -> fun a b -> Value.of_bool (Value.compare a b < 0)
              in
              Value.dtype (apply va vb)
            in
            Alcotest.(check string)
              (Printf.sprintf "%s %s %s" (Dtype.to_string da) (Expr.binop_name op) (Dtype.to_string db))
              (Dtype.to_string dynamic) (Dtype.to_string static)
          in
          List.iter try_op ops_all;
          if Dtype.is_integer da && Dtype.is_integer db then List.iter try_op ops_int
          else if da <> Dtype.Bool && db <> Dtype.Bool then try_op Expr.Div;
          List.iter try_op ops_cmp)
        dtypes)
    dtypes

let test_static_matches_dynamic_div_fixed () =
  let da = Dtype.SFixed { width = 32; int_bits = 17 } in
  let db = Dtype.SFixed { width = 64; int_bits = 40 } in
  let env name = if name = "a" then da else db in
  let e = Expr.Bin (Expr.Div, Expr.Var "a", Expr.Var "b") in
  let static = Aptype.to_dtype (Aptype.infer env e) in
  let dynamic = Value.dtype (Value.div (Value.of_float da 3.5) (Value.of_float db 2.0)) in
  Alcotest.(check string) "fixed div type" (Dtype.to_string dynamic) (Dtype.to_string static)

let test_unops_and_shift () =
  Array.iter
    (fun dt ->
      let env _ = dt in
      let vv = value_for dt 11 in
      let neg_static = Aptype.to_dtype (Aptype.infer env (Expr.Un (Expr.Neg, Expr.Var "a"))) in
      Alcotest.(check string) "neg" (Dtype.to_string (Value.dtype (Value.neg vv))) (Dtype.to_string neg_static);
      let shift_static = Aptype.to_dtype (Aptype.infer env (Expr.Bin (Expr.Shl, Expr.Var "a", Expr.int (Dtype.SInt 32) 2))) in
      Alcotest.(check string) "shift keeps type" (Dtype.to_string (Value.dtype (Value.shift_left vv 2)))
        (Dtype.to_string shift_static))
    dtypes

let test_select_requires_matching_arms () =
  let env name = if name = "a" then Dtype.SInt 8 else Dtype.SInt 16 in
  let e = Expr.Select (Expr.bool_ true, Expr.Var "a", Expr.Var "b") in
  match Aptype.infer env e with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_nested_expression_types =
  let gen =
    QCheck.Gen.(
      let dt = oneofl [ Dtype.SInt 32; Dtype.UInt 16; Dtype.SFixed { width = 32; int_bits = 17 } ] in
      pair dt (pair (int_bound 500) (int_bound 500)))
  in
  QCheck.Test.make ~name:"nested expr: inferred = dynamic dtype" ~count:200 (QCheck.make gen)
    (fun (dt, (x, y)) ->
      let env _ = dt in
      let e =
        Expr.(Bin (Mul, Bin (Add, Var "a", Var "b"), Bin (Sub, Var "a", Var "b")))
      in
      let counters = Interp.fresh_counters () in
      ignore counters;
      let va = Value.of_int dt x and vb = Value.of_int dt y in
      let dynamic = Value.dtype (Value.mul (Value.add va vb) (Value.sub va vb)) in
      let static = Aptype.to_dtype (Aptype.infer env e) in
      Dtype.to_string static = Dtype.to_string dynamic)

let suite =
  [
    ("binops: static = dynamic", `Quick, test_static_matches_dynamic_binops);
    ("fixed division type", `Quick, test_static_matches_dynamic_div_fixed);
    ("unops and shifts", `Quick, test_unops_and_shift);
    ("select arms must match", `Quick, test_select_requires_matching_arms);
    QCheck_alcotest.to_alcotest prop_nested_expression_types;
  ]
