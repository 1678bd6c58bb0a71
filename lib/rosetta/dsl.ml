open Pld_ir

let u32 = Dtype.word
let i32 = Dtype.SInt 32
let fx32 = Dtype.SFixed { width = 32; int_bits = 17 }
let fx64 = Dtype.SFixed { width = 64; int_bits = 40 }

let c dt n = Expr.int dt n
let cf dt x = Expr.float_ dt x
let v = Expr.var
let idx a i = Expr.Idx (a, i)
let ( .%[] ) a i = Expr.Idx (a, i)

let assign name e = Op.Assign (Op.LVar name, e)
let set a i e = Op.Assign (Op.LIdx (a, i), e)
let read x port = Op.Read (Op.LVar x, port)
let read_at a i port = Op.Read (Op.LIdx (a, i), port)
let write port e = Op.Write (port, e)

let for_ ?(pipeline = true) var lo hi body = Op.For { var; lo; hi; body; pipeline }
let if_ cond a b = Op.If (cond, a, b)

let pipe_op ~name ~ins ~outs ?(locals = []) body =
  Op.make ~name ~inputs:(List.map Op.word_port ins) ~outputs:(List.map Op.word_port outs) ~locals
    body

(* Single-rate operator templates: the shapes the random dataflow-graph
   generator (lib/proptest) composes. Each consumes [n] tokens per
   firing on every input and produces [n] on every output; [dt] is the
   internal compute type (reads bitcast in, writes bitcast back to the
   32-bit stream word). *)

let map_op ~name ~n ?(dt = u32) f =
  Op.make ~name ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" dt ]
    [ for_ "i" 0 n [ read "x" "in"; write "out" (f (v "x")) ] ]

let dup_op ~name ~n ?(dt = u32) f g =
  Op.make ~name ~inputs:[ Op.word_port "in" ]
    ~outputs:[ Op.word_port "out0"; Op.word_port "out1" ]
    ~locals:[ Op.scalar "x" dt ]
    [ for_ "i" 0 n [ read "x" "in"; write "out0" (f (v "x")); write "out1" (g (v "x")) ] ]

let zip_op ~name ~n ?(dt = u32) f =
  Op.make ~name ~inputs:[ Op.word_port "in0"; Op.word_port "in1" ]
    ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "a" dt; Op.scalar "b" dt ]
    [ for_ "i" 0 n [ read "a" "in0"; read "b" "in1"; write "out" (f (v "a") (v "b")) ] ]

let chain ~name ~input ~output stages =
  let n = List.length stages in
  if n = 0 then invalid_arg "Dsl.chain: empty pipeline";
  let chan_name i = if i = 0 then input else if i = n then output else Printf.sprintf "c%d" i in
  let channels = List.init (n + 1) (fun i -> Graph.channel (chan_name i)) in
  let instances =
    List.mapi
      (fun i (op, target) ->
        Graph.instance ~target ~name:op.Op.name op
          [ ("in", chan_name i); ("out", chan_name (i + 1)) ])
      stages
  in
  Graph.make ~name ~channels ~instances ~inputs:[ input ] ~outputs:[ output ]

let rec reduce_tree = function
  | [] -> invalid_arg "Dsl.reduce_tree: empty"
  | [ e ] -> e
  | es ->
      let rec pairs = function
        | a :: b :: rest -> Expr.Bin (Expr.Add, a, b) :: pairs rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      reduce_tree (pairs es)

let word_values ws = List.map (fun w -> Value.of_int u32 w) ws
let fx_word x = Value.bitcast u32 (Value.of_float fx32 x)
let fx_of_word w = Value.to_float (Value.bitcast fx32 w)
