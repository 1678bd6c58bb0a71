open Pld_ir

(* Expr.infer must predict the dynamic result types exactly — the -O0
   code generator types every ap-runtime call with it. The reference is
   Test_value.Ref, which derives result types independently of Aptype;
   the value properties there check single operators over random
   dtypes. *)

let dtypes = Test_value.table

let value_for dt seed =
  match dt with
  | Dtype.Bool -> Value.of_bool (seed mod 2 = 0)
  | _ -> Value.of_int dt (seed mod 1000)

let reference v = Test_value.Ref.of_value v
let ref_dtype (r : Test_value.Ref.v) = Dtype.to_string r.Test_value.Ref.dt

let test_unops_and_shift () =
  Array.iter
    (fun dt ->
      let env _ = dt in
      let vv = reference (value_for dt 11) in
      let neg_static = Expr.infer env (Expr.Un (Expr.Neg, Expr.Var "a")) in
      Alcotest.(check string) "neg" (ref_dtype (Test_value.Ref.unop Expr.Neg vv)) (Dtype.to_string neg_static);
      let two = Expr.int (Dtype.SInt 32) 2 in
      let shift_static = Expr.infer env (Expr.Bin (Expr.Shl, Expr.Var "a", two)) in
      let shifted = Test_value.Ref.binop Expr.Shl vv (reference (Value.of_int (Dtype.SInt 32) 2)) in
      Alcotest.(check string) "shift keeps type" (ref_dtype shifted) (Dtype.to_string shift_static))
    dtypes

let test_select_requires_matching_arms () =
  let env name = if name = "a" then Dtype.SInt 8 else Dtype.SInt 16 in
  let e = Expr.Select (Expr.bool_ true, Expr.Var "a", Expr.Var "b") in
  match Expr.infer env e with
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
      let e = Expr.(Bin (Mul, Bin (Add, Var "a", Var "b"), Bin (Sub, Var "a", Var "b"))) in
      let ra = reference (Value.of_int dt x) and rb = reference (Value.of_int dt y) in
      let bin = Test_value.Ref.binop in
      let dynamic = bin Expr.Mul (bin Expr.Add ra rb) (bin Expr.Sub ra rb) in
      Dtype.to_string (Expr.infer env e) = ref_dtype dynamic)

let suite =
  [
    ("unops and shifts", `Quick, test_unops_and_shift);
    ("select arms must match", `Quick, test_select_requires_matching_arms);
    QCheck_alcotest.to_alcotest prop_nested_expression_types;
  ]
