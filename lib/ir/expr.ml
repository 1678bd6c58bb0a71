type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | LAnd | LOr

type unop = Neg | BNot | LNot

type t =
  | Const of Value.t
  | Var of string
  | Idx of string * t
  | Bin of binop * t * t
  | Un of unop * t
  | Cast of Dtype.t * t
  | Bitcast of Dtype.t * t
  | Select of t * t * t

let int dt v = Const (Value.of_int dt v)
let float_ dt v = Const (Value.of_float dt v)
let bool_ b = Const (Value.of_bool b)
let var s = Var s

let ( + ) a b = Bin (Add, a, b)
let ( - ) a b = Bin (Sub, a, b)
let ( * ) a b = Bin (Mul, a, b)
let ( / ) a b = Bin (Div, a, b)
let ( % ) a b = Bin (Rem, a, b)
let ( < ) a b = Bin (Lt, a, b)
let ( <= ) a b = Bin (Le, a, b)
let ( > ) a b = Bin (Gt, a, b)
let ( >= ) a b = Bin (Ge, a, b)
let ( = ) a b = Bin (Eq, a, b)
let ( <> ) a b = Bin (Ne, a, b)
let ( && ) a b = Bin (LAnd, a, b)
let ( || ) a b = Bin (LOr, a, b)
let ( lsl ) a b = Bin (Shl, a, b)
let ( lsr ) a b = Bin (Shr, a, b)
let ( land ) a b = Bin (And, a, b)
let ( lor ) a b = Bin (Or, a, b)
let ( lxor ) a b = Bin (Xor, a, b)

let vars t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let record name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      out := name :: !out
    end
  in
  let rec go = function
    | Const _ -> ()
    | Var v -> record v
    | Idx (a, i) ->
        record a;
        go i
    | Bin (_, x, y) ->
        go x;
        go y
    | Un (_, x) | Cast (_, x) | Bitcast (_, x) -> go x
    | Select (c, x, y) ->
        go c;
        go x;
        go y
  in
  go t;
  List.rev !out

type env = string -> Dtype.t

let rec infer env e : Dtype.t =
  match e with
  | Const v -> Value.dtype v
  | Var v -> env v
  | Idx (a, i) ->
      ignore (infer env i);
      env a
  | Bin (op, x, y) -> begin
      let tx = infer env x and ty = infer env y in
      match op with
      | Add -> Aptype.add tx ty
      | Sub -> Aptype.sub tx ty
      | Mul -> Aptype.mul tx ty
      | Div -> Aptype.div tx ty
      | Rem -> Aptype.rem tx ty
      | And | Or | Xor -> Aptype.bitwise tx ty
      | Shl | Shr -> tx
      | Eq | Ne | Lt | Le | Gt | Ge | LAnd | LOr -> Bool
    end
  | Un (Neg, x) -> Aptype.neg (infer env x)
  | Un (BNot, x) -> Aptype.lognot (infer env x)
  | Un (LNot, x) ->
      ignore (infer env x);
      Bool
  | Cast (dt, x) | Bitcast (dt, x) ->
      ignore (infer env x);
      dt
  | Select (c, x, y) ->
      ignore (infer env c);
      let tx = infer env x and ty = infer env y in
      if not (Dtype.equal tx ty) then
        invalid_arg
          (Printf.sprintf "Expr.infer: select arms have different types (%s vs %s)" (Dtype.to_string tx)
             (Dtype.to_string ty));
      tx

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | LAnd -> "&&" | LOr -> "||"

let unop_name = function Neg -> "-" | BNot -> "~" | LNot -> "!"

let rec pp fmt = function
  | Const v -> Value.pp fmt v
  | Var v -> Format.pp_print_string fmt v
  | Idx (a, i) -> Format.fprintf fmt "%s[%a]" a pp i
  | Bin (op, x, y) -> Format.fprintf fmt "(%a %s %a)" pp x (binop_name op) pp y
  | Un (op, x) -> Format.fprintf fmt "%s%a" (unop_name op) pp x
  | Cast (dt, x) -> Format.fprintf fmt "(%a)%a" Dtype.pp dt pp x
  | Bitcast (dt, x) -> Format.fprintf fmt "bitcast<%a>(%a)" Dtype.pp dt pp x
  | Select (c, x, y) -> Format.fprintf fmt "(%a ? %a : %a)" pp c pp x pp y
