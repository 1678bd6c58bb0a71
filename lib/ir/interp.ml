type io = {
  read : string -> unit -> Value.t;
  write : string -> Value.t -> unit;
  printf : string -> Value.t list -> unit;
}

type counters = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable loop_iterations : int;
  mutable multiplies : int;
  mutable divides : int;
}

let fresh_counters () =
  { ops = 0; reads = 0; writes = 0; loop_iterations = 0; multiplies = 0; divides = 0 }

(* ---------- the limb path: one dispatch for every caller ---------- *)

let binop (op : Expr.binop) : Value.t -> Value.t -> Value.t =
  match op with
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div
  | Rem -> Value.rem
  | And -> Value.logand
  | Or -> Value.logor
  | Xor -> Value.logxor
  | Shl -> fun a b -> Value.shift_left a (Value.to_int b)
  | Shr -> fun a b -> Value.shift_right a (Value.to_int b)
  | Eq -> fun a b -> Value.of_bool (Value.equal_value a b)
  | Ne -> fun a b -> Value.of_bool (not (Value.equal_value a b))
  | Lt -> fun a b -> Value.of_bool (Value.compare a b < 0)
  | Le -> fun a b -> Value.of_bool (Value.compare a b <= 0)
  | Gt -> fun a b -> Value.of_bool (Value.compare a b > 0)
  | Ge -> fun a b -> Value.of_bool (Value.compare a b >= 0)
  | LAnd -> fun a b -> Value.of_bool (Value.to_bool a && Value.to_bool b)
  | LOr -> fun a b -> Value.of_bool (Value.to_bool a || Value.to_bool b)

let unop (op : Expr.unop) : Value.t -> Value.t =
  match op with
  | Neg -> Value.neg
  | BNot -> Value.lognot
  | LNot -> fun v -> Value.of_bool (not (Value.to_bool v))

(* ---------- kernels: the immediate path, chosen from static types ---------- *)

type 'f kernel = Imm of Dtype.t * 'f | Limb of Dtype.t

let narrow = Value.is_narrow
let bit b = if b then 1 else 0

let scaled k f = if k = 0 then f else fun x y -> f (Value.rescale k x) y
let scaled_right k f = if k = 0 then f else fun x y -> f x (Value.rescale k y)

let compare_kernel (op : Expr.binop) : int -> int -> int =
  match op with
  | Eq -> fun x y -> bit (x = y)
  | Ne -> fun x y -> bit (x <> y)
  | Lt -> fun x y -> bit (x < y)
  | Le -> fun x y -> bit (x <= y)
  | Gt -> fun x y -> bit (x > y)
  | _ -> fun x y -> bit (x >= y)

let bin_kernel (op : Expr.binop) da db =
  let fa = Dtype.frac da and fb = Dtype.frac db in
  let sa = max fa fb - fa and sb = max fa fb - fb in
  let both = narrow da && narrow db in
  let integers = Dtype.is_integer da && Dtype.is_integer db in
  let exact r k = Some (if both && narrow r then Imm (r, k) else Limb r) in
  let aligned k = scaled sa (scaled_right sb k) in
  match op with
  | Add -> Some (Imm (Aptype.add da db, aligned ( + )))
  | Sub -> Some (Imm (Aptype.sub da db, aligned ( - )))
  | Mul -> Some (Imm (Aptype.mul da db, ( * )))
  | (And | Or | Xor) when integers ->
      let k = match op with And -> ( land ) | Or -> ( lor ) | _ -> ( lxor ) in
      Some (Imm (Aptype.bitwise da db, k))
  | Rem when integers -> exact (Aptype.rem da db) (fun x y -> if y = 0 then x else x mod y)
  | And | Or | Xor | Rem -> None
  | Shl | Shr -> (
      (* Width-preserving; the amount is [Value.to_int] of the image, and
         a negative one raises as Bits does. *)
      let shift msg k y =
        let n = k y in
        if n < 0 then invalid_arg msg else n
      in
      match (op, Value.int_of_low db) with
      | Shl, Some k ->
          let fit = if narrow da then Value.fit da else fun x -> x in
          let amount = shift "Bits.shift_left: negative amount" k in
          Some (Imm (da, fun x y -> fit (Value.rescale (amount y) x)))
      | Shr, Some k when narrow da ->
          let amount =
            shift
              (if Dtype.is_signed da then "Bits.shift_right_arith: negative amount"
               else "Bits.shift_right_logical: negative amount")
              k
          in
          Some (Imm (da, fun x y -> Value.rescale (-amount y) x))
      | _ -> Some (Limb da))
  | Div when integers ->
      (* The common width: division by zero is all-ones, and [min / -1]
         wraps, as in Bits.sdiv. *)
      let r = Aptype.div da db in
      let ones = if narrow r then Value.fit r (-1) else 0 in
      exact r (fun x y -> if y = 0 then ones else Value.fit r (x / y))
  | Div ->
      let r = Aptype.div da db and shift, work = Aptype.div_work da db in
      if both && narrow work then
        Some
          (Imm
             ( r,
               fun x y ->
                 let n = Value.fit work (x lsl shift) and d = Value.fit work y in
                 Value.fit r (if d = 0 then -1 else n / d) ))
      else Some (Limb r)
  | Eq | Ne | Lt | Le | Gt | Ge ->
      (* The aligned operands are one bit narrower than their sum. *)
      if both && Dtype.width (Aptype.add da db) - 1 <= Value.narrow_bits then
        Some (Imm (Dtype.Bool, aligned (compare_kernel op)))
      else Some (Limb Dtype.Bool)
  | LAnd -> exact Dtype.Bool (fun x y -> bit (x <> 0 && y <> 0))
  | LOr -> exact Dtype.Bool (fun x y -> bit (x <> 0 || y <> 0))

let un_kernel (op : Expr.unop) da =
  match op with
  | Neg -> Some (Imm (Aptype.neg da, ( ~- )))
  | BNot when Dtype.is_integer da ->
      let r = Aptype.lognot da in
      if Dtype.is_signed da || not (narrow da) then Some (Imm (r, lnot))
      else
        let mask = (1 lsl Dtype.width da) - 1 in
        Some (Imm (r, fun x -> lnot x land mask))
  | BNot -> None
  | LNot -> Some (if narrow da then Imm (Dtype.Bool, fun x -> bit (x = 0)) else Limb Dtype.Bool)

(* A narrowing cast keeps bits of the product (or sum, ...) below it
   that a wrapping 63-bit computation has right: all of them when the
   cast shifts left, and bits [k, k + width) when it drops [k]
   fraction bits, so [k + width <= 63]. *)
let cast_kernel ~src ~dst =
  let d = Dtype.frac dst - Dtype.frac src in
  if narrow dst then
    if narrow src || d >= 0 || Dtype.width dst - d <= 63 then Imm (dst, Value.raw_cast ~src ~dst)
    else Limb dst
  else if d >= 0 then Imm (dst, Value.rescale d)
  else Limb dst

(* A bitcast only moves low bits, so it always takes images. *)
let bitcast_kernel ~src ~dst =
  Imm (dst, if narrow dst || narrow src then Value.raw_bitcast ~src ~dst else fun x -> x)

(* ---------- compilation ---------- *)

type cost = { nodes : int; muls : int; divs : int }

(* A compiled expression. [low] is the immediate when [dt] is narrow,
   and the low 63 bits of the raw pattern otherwise; [full] is the
   value itself. [cost] counts the nodes evaluated whenever this one
   is: conditional subtrees charge their own. *)
type code = {
  dt : Dtype.t option;  (** [None]: known only at run time *)
  cost : cost;
  full : unit -> Value.t;
  low : unit -> int;
}

let none = { nodes = 0; muls = 0; divs = 0 }
let leaf = { none with nodes = 1 }
let ( ++ ) a b = { nodes = a.nodes + b.nodes; muls = a.muls + b.muls; divs = a.divs + b.divs }

let charge c k =
  if k.muls = 0 && k.divs = 0 then fun () -> c.ops <- c.ops + k.nodes
  else fun () ->
    c.ops <- c.ops + k.nodes;
    c.multiplies <- c.multiplies + k.muls;
    c.divides <- c.divides + k.divs

let immediate dt cost low = { dt = Some dt; cost; low; full = (fun () -> Value.of_low dt (low ())) }
let limb dt cost full = { dt = Some dt; cost; full; low = (fun () -> Value.low (full ())) }
let dynamic cost full = { dt = None; cost; full; low = (fun () -> Value.low (full ())) }

(* [kernel] over images, [full] the limb path: the node's code. *)
let node cost kernel low full =
  match kernel with
  | Some (Imm (r, _)) when narrow r -> immediate r cost low
  | Some (Imm (r, _)) -> { dt = Some r; cost; low; full }
  | Some (Limb r) -> limb r cost full
  | None -> dynamic cost full

let truth e =
  match e.dt with
  | Some d when narrow d ->
      let l = e.low in
      fun () -> l () <> 0
  | _ ->
      let f = e.full in
      fun () -> Value.to_bool (f ())

let index e =
  match Option.bind e.dt Value.int_of_low with
  | Some n ->
      let l = e.low in
      fun () -> n (l ())
  | None ->
      let f = e.full in
      fun () -> Value.to_int (f ())

(* [x] cast (or bitcast) to [dt]: the node without its own cost. *)
let converted ~cast dt x =
  let kernel =
    match x.dt with
    | Some src -> if cast then cast_kernel ~src ~dst:dt else bitcast_kernel ~src ~dst:dt
    | None -> Limb dt
  in
  let full =
    let conv = if cast then Value.cast dt else Value.bitcast dt and f = x.full in
    fun () -> conv (f ())
  in
  let low =
    match kernel with
    | Imm (_, k) ->
        let l = x.low in
        fun () -> k (l ())
    | Limb _ -> fun () -> Value.low (full ())
  in
  node x.cost (Some kernel) low full

(* Storage, resolved once per name: narrow scalars and arrays hold
   immediates. *)
type slot =
  | Cell of Dtype.t * int ref
  | Wide_cell of Dtype.t * Value.t ref
  | Arr of Dtype.t * int array
  | Wide_arr of Dtype.t * Value.t array

module Env = Map.Make (String)

let seq = function
  | [||] -> fun () -> ()
  | [| s |] -> s
  | body ->
      fun () ->
        for i = 0 to Array.length body - 1 do
          (Array.unsafe_get body i) ()
        done

let fail msg = fun () -> invalid_arg msg

let compile_op ~processor c (op : Op.t) io =
  let i32 = Dtype.SInt 32 in
  let resets = ref [] in
  let reset f = resets := f :: !resets in
  let declare env = function
    | Op.Scalar { name; dtype; init } ->
        (* A scalar keeps its initial value's dtype, which assignments
           cast to. *)
        let v = match init with Some v -> v | None -> Value.zero dtype in
        let dt = Value.dtype v in
        if narrow dt then begin
          let r = ref (Value.low v) and x = Value.low v in
          reset (fun () -> r := x);
          Env.add name (Cell (dt, r)) env
        end
        else begin
          let r = ref v in
          reset (fun () -> r := v);
          Env.add name (Wide_cell (dt, r)) env
        end
    | Op.Array { name; dtype; length; init } ->
        let vs =
          match init with
          | Some vs -> Array.map (Value.cast dtype) vs
          | None -> Array.make length (Value.zero dtype)
        in
        let dt = if Array.length vs > 0 then Value.dtype vs.(0) else Dtype.word in
        if narrow dt then begin
          let image = Array.map Value.low vs in
          let cells = Array.copy image in
          reset (fun () -> Array.blit image 0 cells 0 (Array.length image));
          Env.add name (Arr (dt, cells)) env
        end
        else begin
          let cells = Array.copy vs in
          reset (fun () -> Array.blit vs 0 cells 0 (Array.length vs));
          Env.add name (Wide_arr (dt, cells)) env
        end
  in
  let undeclared name = op.name ^ ": undeclared " ^ name in
  let is_array name = op.name ^ ": " ^ name ^ " is an array" in
  let is_scalar name = op.name ^ ": " ^ name ^ " is a scalar" in
  let checked k len msg =
    fun () ->
      let k = k () in
      if k < 0 || k >= len then invalid_arg (msg k);
      k
  in
  let rec expr env (e : Expr.t) : code =
    match e with
    | Const v ->
        let l = Value.low v in
        { dt = Some (Value.dtype v); cost = leaf; low = (fun () -> l); full = (fun () -> v) }
    | Var name -> (
        match Env.find_opt name env with
        | Some (Cell (dt, r)) -> immediate dt leaf (fun () -> !r)
        | Some (Wide_cell (dt, r)) -> limb dt leaf (fun () -> !r)
        | Some (Arr _ | Wide_arr _) -> dynamic leaf (fail (is_array name))
        | None -> dynamic leaf (fail (undeclared name)))
    | Idx (a, i) -> (
        let i = expr env i in
        let cost = leaf ++ i.cost in
        let at len =
          checked (index i) len (fun k -> Printf.sprintf "%s: %s[%d] out of bounds (len %d)" op.name a k len)
        in
        match Env.find_opt a env with
        | Some (Arr (dt, cells)) ->
            let k = at (Array.length cells) in
            immediate dt cost (fun () -> Array.unsafe_get cells (k ()))
        | Some (Wide_arr (dt, cells)) ->
            let k = at (Array.length cells) in
            limb dt cost (fun () -> Array.unsafe_get cells (k ()))
        | Some (Cell _ | Wide_cell _) -> dynamic cost (fail (is_scalar a))
        | None -> dynamic cost (fail (undeclared a)))
    | Bin (((LAnd | LOr) as bop), x, y) ->
        let x = expr env x and y = expr env y in
        let tx = truth x and ty = truth y and py = charge c y.cost in
        let low =
          if bop = LAnd then fun () -> if tx () then (py (); bit (ty ())) else 0
          else fun () -> if tx () then 1 else (py (); bit (ty ()))
        in
        immediate Dtype.Bool (leaf ++ x.cost) low
    | Bin (bop, x, y) ->
        let x = expr env x and y = expr env y in
        let own =
          match bop with
          | Mul -> { leaf with muls = 1 }
          | Div | Rem -> { leaf with divs = 1 }
          | _ -> leaf
        in
        let cost = own ++ x.cost ++ y.cost in
        let full =
          let f = binop bop and xf = x.full and yf = y.full in
          fun () ->
            let a = xf () in
            f a (yf ())
        in
        let kernel = match (x.dt, y.dt) with Some da, Some db -> bin_kernel bop da db | _ -> None in
        let low =
          match kernel with
          | Some (Imm (_, k)) ->
              let xl = x.low and yl = y.low in
              fun () ->
                let a = xl () in
                k a (yl ())
          | _ -> fun () -> Value.low (full ())
        in
        node cost kernel low full
    | Un (uop, x) ->
        let x = expr env x in
        let cost = leaf ++ x.cost in
        let full =
          let f = unop uop and xf = x.full in
          fun () -> f (xf ())
        in
        let kernel = match x.dt with Some da -> un_kernel uop da | None -> None in
        let low =
          match kernel with
          | Some (Imm (_, k)) ->
              let xl = x.low in
              fun () -> k (xl ())
          | _ -> fun () -> Value.low (full ())
        in
        node cost kernel low full
    | Cast (dt, x) | Bitcast (dt, x) ->
        let cast = match e with Cast _ -> true | _ -> false in
        let x = expr env x in
        { (converted ~cast dt x) with cost = leaf ++ x.cost }
    | Select (cond, x, y) -> (
        let cond = expr env cond and x = expr env x and y = expr env y in
        let tc = truth cond and px = charge c x.cost and py = charge c y.cost in
        let cost = leaf ++ cond.cost in
        let pick fx fy = fun () -> if tc () then (px (); fx ()) else (py (); fy ()) in
        let full = pick x.full y.full in
        match (x.dt, y.dt) with
        | Some dx, Some dy when Dtype.equal dx dy ->
            if narrow dx then immediate dx cost (pick x.low y.low)
            else { dt = Some dx; cost; low = pick x.low y.low; full }
        | _ -> dynamic cost full)
  in
  let resolve f port = match f port with g -> g | exception e -> fun _ -> raise e in
  (* Store [convert dt] (the value cast or bitcast to the target's
     dtype) into [lv]: the value is evaluated first, then the index, as
     the tree walker did. Returns the index's cost with the store. *)
  let store env (lv : Op.lvalue) convert =
    let refuse dt msg =
      let f = (convert dt).full in
      fun () ->
        ignore (f ());
        invalid_arg msg
    in
    match lv with
    | LVar name -> (
        ( none,
          match Env.find_opt name env with
          | Some (Cell (dt, r)) ->
              let l = (convert dt).low in
              fun () -> r := l ()
          | Some (Wide_cell (dt, r)) ->
              let f = (convert dt).full in
              fun () -> r := f ()
          | Some (Arr (dt, _) | Wide_arr (dt, _)) -> refuse dt (is_array name)
          | None -> refuse Dtype.word (undeclared name) ))
    | LIdx (name, i) -> (
        let i = expr env i in
        let at len =
          checked (index i) len (fun k -> Printf.sprintf "%s: %s[%d] store out of bounds" op.name name k)
        in
        ( i.cost,
          match Env.find_opt name env with
          | Some (Arr (dt, cells)) ->
              let l = (convert dt).low and k = at (Array.length cells) in
              fun () ->
                let x = l () in
                Array.unsafe_set cells (k ()) x
          | Some (Wide_arr (dt, cells)) ->
              let f = (convert dt).full and k = at (Array.length cells) in
              fun () ->
                let x = f () in
                Array.unsafe_set cells (k ()) x
          | Some (Cell (dt, _) | Wide_cell (dt, _)) -> refuse dt (is_scalar name)
          | None -> refuse Dtype.word (undeclared name) ))
  in
  let rec stmt env (s : Op.stmt) : unit -> unit =
    match s with
    | Assign (lv, e) ->
        let e = expr env e in
        let cost, run = store env lv (fun dt -> converted ~cast:true dt e) in
        let pay = charge c (e.cost ++ cost) in
        fun () ->
          pay ();
          run ()
    | Read (lv, port) ->
        let rd = resolve io.read port and token = ref (Value.of_bool false) in
        let tok = dynamic none (fun () -> !token) in
        let cost, run = store env lv (fun dt -> converted ~cast:false dt tok) in
        let pay = charge c cost in
        fun () ->
          c.reads <- c.reads + 1;
          pay ();
          token := rd ();
          run ()
    | Write (port, e) -> (
        match Op.find_output op port with
        | None ->
            let msg = op.name ^ ": write to unknown port " ^ port in
            fun () ->
              c.writes <- c.writes + 1;
              invalid_arg msg
        | Some p ->
            let e = expr env e in
            let wr = resolve io.write port and pay = charge c e.cost in
            let v = (converted ~cast:false p.elem e).full in
            fun () ->
              c.writes <- c.writes + 1;
              pay ();
              wr (v ()))
    | Printf (msg, args) ->
        if processor then begin
          let args = List.map (expr env) args in
          let pay = charge c (List.fold_left (fun k a -> k ++ a.cost) none args) in
          let fs = List.map (fun a -> a.full) args in
          fun () ->
            pay ();
            io.printf msg (List.map (fun f -> f ()) fs)
        end
        else fun () -> ()
    | For { var; lo; hi; body; _ } ->
        let r = ref (Value.fit i32 lo) in
        let body = block (Env.add var (Cell (i32, r)) env) body in
        fun () ->
          for i = lo to hi - 1 do
            c.loop_iterations <- c.loop_iterations + 1;
            r := Value.fit i32 i;
            body ()
          done
    | If (cond, a, b) ->
        let cond = expr env cond in
        let t = truth cond and pay = charge c cond.cost in
        let a = block env a and b = block env b in
        fun () ->
          pay ();
          if t () then a () else b ()
  and block env body = seq (Array.of_list (List.map (stmt env) body)) in
  let env = List.fold_left declare Env.empty op.locals in
  let body = block env op.body in
  let resets = seq (Array.of_list (List.rev !resets)) in
  fun () ->
    resets ();
    body ()

let compile ?(processor = false) ?counters op io =
  let c = match counters with Some c -> c | None -> fresh_counters () in
  match compile_op ~processor c op io with f -> f | exception e -> fun () -> raise e

let run_operator ?processor ?counters op io = compile ?processor ?counters op io ()

let queue_io ~inputs ~outputs =
  let find tbl port =
    match List.assoc_opt port tbl with
    | Some q -> q
    | None -> failwith ("queue_io: unknown port " ^ port)
  in
  {
    read =
      (fun port ->
        let q = find inputs port in
        fun () ->
          if Queue.is_empty q then failwith ("queue_io: read from empty stream " ^ port) else Queue.pop q);
    write =
      (fun port ->
        let q = find outputs port in
        fun v -> Queue.push v q);
    printf = (fun _ _ -> ());
  }
