open Pld_ir

type site =
  | Sbin of Expr.binop * Dtype.t * Dtype.t
  | Sun of Expr.unop * Dtype.t
  | Scast of Dtype.t * Dtype.t
  | Sbitcast of Dtype.t * Dtype.t
  | Sprint of string * Dtype.t list

type program = {
  op_name : string;
  image : Asm.image;
  data_init : (int * int32 array) list;
  meta : site array;
  var_layout : (string * int) list;
  footprint_bytes : int;
  port_map : (string * int) list;
}

let data_base = 0x10000
let temp_base = 0x1C000
let spill_base = 0x2C000
let temp_slot_bytes = 32
let max_temps = (spill_base - temp_base) / temp_slot_bytes

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

(* Soft ap-runtime cycle model (documented in DESIGN.md): a library
   call on an unpipelined PicoRV32 costs dispatch overhead plus work
   proportional to operand words; division iterates per bit. *)
let words_of_width w = (w + 31) / 32

let cost_of_site = function
  | Sbin (op, ta, tb) -> begin
      let w = max (Dtype.width ta) (Dtype.width tb) in
      let words = words_of_width w in
      match op with
      | Expr.Mul -> 18 + (12 * words * words)
      | Expr.Div | Expr.Rem ->
          (* Long division iterates over the working width. *)
          let ww = Dtype.width ta + Dtype.width tb + 1 in
          18 + (35 * ww / 8 * words)
      | Expr.Add | Expr.Sub -> 18 + (6 * words)
      | Expr.And | Expr.Or | Expr.Xor | Expr.Shl | Expr.Shr -> 18 + (5 * words)
      | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.LAnd | Expr.LOr ->
          18 + (4 * words)
    end
  | Sun (_, ta) -> 18 + (5 * words_of_width (Dtype.width ta))
  | Scast (ta, tb) -> 14 + (4 * words_of_width (max (Dtype.width ta) (Dtype.width tb)))
  | Sbitcast (ta, tb) -> 10 + (3 * words_of_width (max (Dtype.width ta) (Dtype.width tb)))
  | Sprint (_, args) -> 100 + (40 * List.length args)

let slot_bytes_of_width w = ((w + 31) / 32) * 4

let words_of_value v =
  let bits = Value.to_bits v in
  let w = Pld_apfixed.Bits.width bits in
  Array.init (words_of_width w) (fun k ->
      let hi = min (w - 1) ((k * 32) + 31) in
      let chunk = Pld_apfixed.Bits.extract bits ~hi ~lo:(k * 32) in
      Int32.of_int (Pld_apfixed.Bits.to_int_trunc (Pld_apfixed.Bits.resize ~signed:false ~width:32 chunk)))

let compile (op : Op.t) =
  (match Validate.check_operator op with
  | [] -> ()
  | errs ->
      unsupported "operator %s invalid: %s" op.name
        (String.concat "; " (List.map Validate.error_to_string errs)));
  (* ----- data layout ----- *)
  let var_addr : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let var_dtype : (string, Dtype.t) Hashtbl.t = Hashtbl.create 16 in
  let data_init = ref [] in
  let cursor = ref data_base in
  let alloc name bytes =
    let addr = !cursor in
    cursor := !cursor + ((bytes + 3) / 4 * 4);
    Hashtbl.replace var_addr name addr;
    addr
  in
  List.iter
    (fun d ->
      match d with
      | Op.Scalar { name; dtype; init } ->
          let w = Dtype.width dtype in
          if w > 64 then unsupported "%s: local %s is %d bits (> 64) for -O0" op.name name w;
          Hashtbl.replace var_dtype name dtype;
          let addr = alloc name (slot_bytes_of_width w) in
          Option.iter (fun v -> data_init := (addr, words_of_value (Value.cast dtype v)) :: !data_init) init
      | Op.Array { name; dtype; length; init } ->
          let w = Dtype.width dtype in
          if w > 64 then unsupported "%s: array %s elements are %d bits (> 64) for -O0" op.name name w;
          Hashtbl.replace var_dtype name dtype;
          let elem = slot_bytes_of_width w in
          let addr = alloc name (elem * length) in
          Option.iter
            (fun vs ->
              Array.iteri
                (fun i v ->
                  data_init := (addr + (i * elem), words_of_value (Value.cast dtype v)) :: !data_init)
                vs)
            init)
    op.locals;
  (* Constant pool: interned by (dtype, bits). *)
  let const_pool : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let intern_const v =
    let key = Dtype.to_string (Value.dtype v) ^ "/" ^ Pld_apfixed.Bits.to_hex (Value.to_bits v) in
    match Hashtbl.find_opt const_pool key with
    | Some addr -> addr
    | None ->
        let addr = alloc ("$const" ^ key) (slot_bytes_of_width (Dtype.width (Value.dtype v))) in
        data_init := (addr, words_of_value v) :: !data_init;
        Hashtbl.replace const_pool key addr;
        addr
  in
  (* ----- type environment ----- *)
  let loop_vars : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let env name =
    match Hashtbl.find_opt var_dtype name with
    | Some dt -> dt
    | None ->
        if Hashtbl.mem loop_vars name then Dtype.SInt 32
        else invalid_arg ("Codegen: unknown variable " ^ name)
  in
  (* Loop variables live in slots too. *)
  let loop_var_addr name =
    match Hashtbl.find_opt var_addr ("$loop_" ^ name) with
    | Some a -> a
    | None -> alloc ("$loop_" ^ name) 4
  in
  (* ----- code emission ----- *)
  let code = ref [] in
  let emit it = code := it :: !code in
  let meta = ref [] in
  let nmeta = ref 0 in
  let site s =
    meta := s :: !meta;
    incr nmeta;
    !nmeta - 1
  in
  let label_counter = ref 0 in
  let fresh_label prefix =
    incr label_counter;
    Printf.sprintf "%s_%d" prefix !label_counter
  in
  let li r v = emit (Asm.Li (r, Int32.of_int v)) in
  let ecall site_idx =
    li Isa.a7 site_idx;
    emit (Asm.Instr Isa.Ecall)
  in
  let temp_addr idx =
    if idx >= max_temps then unsupported "%s: expression temporaries exceed page memory" op.name;
    temp_base + (idx * temp_slot_bytes)
  in
  let spill_cell depth = spill_base + (4 * depth) in
  (* Port indices. *)
  let port_map =
    List.mapi (fun i (p : Op.port) -> (p.port_name, i)) op.inputs
    @ List.mapi (fun i (p : Op.port) -> (p.port_name, i)) op.outputs
  in
  let in_port p = List.assoc p (List.mapi (fun i (q : Op.port) -> (q.port_name, i)) op.inputs) in
  let out_port p = List.assoc p (List.mapi (fun i (q : Op.port) -> (q.port_name, i)) op.outputs) in
  (* eval emits code leaving the ADDRESS of the value in t0 and returns
     its static type. [depth] indexes temp slots and spill cells. *)
  let rec eval depth (e : Expr.t) : Dtype.t =
    let ty = Expr.infer env e in
    if Dtype.width ty > temp_slot_bytes * 8 then
      unsupported "%s: intermediate of %d bits exceeds the ap-runtime limit" op.name (Dtype.width ty);
    (match e with
    | Expr.Const v -> li Isa.t0 (intern_const v)
    | Expr.Var v ->
        if Hashtbl.mem loop_vars v then li Isa.t0 (loop_var_addr v)
        else li Isa.t0 (Hashtbl.find var_addr v)
    | Expr.Idx (a, i) ->
        let ti = eval depth i in
        (* Load the low word of the index value (indices fit 32 bits). *)
        ignore ti;
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)));
        let elem = slot_bytes_of_width (Dtype.width (env a)) in
        let shift = match elem with 4 -> 2 | 8 -> 3 | _ -> -1 in
        if shift >= 0 then emit (Asm.Instr (Isa.Alui (Isa.Slli, Isa.t1, Isa.t1, shift)))
        else begin
          li Isa.t2 elem;
          emit (Asm.Instr (Isa.Alur (Isa.Rmul, Isa.t1, Isa.t1, Isa.t2)))
        end;
        li Isa.t0 (Hashtbl.find var_addr a);
        emit (Asm.Instr (Isa.Alur (Isa.Radd, Isa.t0, Isa.t0, Isa.t1)))
    | Expr.Bin (bop, x, y) ->
        let tx = eval depth x in
        (* Spill the left operand's address while the right evaluates. *)
        li Isa.t2 (spill_cell depth);
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t0, Isa.t2, 0)));
        let ty' = eval (depth + 1) y in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a2, Isa.t0, 0)));
        li Isa.t2 (spill_cell depth);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.a1, Isa.t2, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Sbin (bop, tx, ty')));
        li Isa.t0 (temp_addr depth)
    | Expr.Un (uop, x) ->
        let tx = eval depth x in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Sun (uop, tx)));
        li Isa.t0 (temp_addr depth)
    | Expr.Cast (dt, x) ->
        let tx = eval depth x in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Scast (tx, dt)));
        li Isa.t0 (temp_addr depth)
    | Expr.Bitcast (dt, x) ->
        let tx = eval depth x in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Sbitcast (tx, dt)));
        li Isa.t0 (temp_addr depth)
    | Expr.Select (c, x, y) ->
        let lelse = fresh_label "sel_else" and lend = fresh_label "sel_end" in
        ignore (eval depth c);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)));
        emit (Asm.Bj (Isa.Beq, Isa.t1, Isa.zero, lelse));
        let tx = eval depth x in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Scast (tx, tx)));
        emit (Asm.J lend);
        emit (Asm.Label lelse);
        let ty' = eval depth y in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr depth);
        ecall (site (Scast (ty', ty')));
        emit (Asm.Label lend);
        li Isa.t0 (temp_addr depth));
    ty
  in
  (* Store the value at address t0 (type [src_ty]) into an lvalue. *)
  let store_lvalue depth lv src_ty ~bitcast =
    match lv with
    | Op.LVar v ->
        let dst_ty = env v in
        let addr = if Hashtbl.mem loop_vars v then loop_var_addr v else Hashtbl.find var_addr v in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 addr;
        ecall (site (if bitcast then Sbitcast (src_ty, dst_ty) else Scast (src_ty, dst_ty)))
    | Op.LIdx (a, i) ->
        (* Save the source address, compute the element address. *)
        li Isa.t2 (spill_cell depth);
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t0, Isa.t2, 0)));
        ignore (eval (depth + 1) i);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)));
        let elem = slot_bytes_of_width (Dtype.width (env a)) in
        let shift = match elem with 4 -> 2 | 8 -> 3 | _ -> -1 in
        if shift >= 0 then emit (Asm.Instr (Isa.Alui (Isa.Slli, Isa.t1, Isa.t1, shift)))
        else begin
          li Isa.t2 elem;
          emit (Asm.Instr (Isa.Alur (Isa.Rmul, Isa.t1, Isa.t1, Isa.t2)))
        end;
        li Isa.a0 (Hashtbl.find var_addr a);
        emit (Asm.Instr (Isa.Alur (Isa.Radd, Isa.a0, Isa.a0, Isa.t1)));
        li Isa.t2 (spill_cell depth);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.a1, Isa.t2, 0)));
        let dst_ty = env a in
        ecall (site (if bitcast then Sbitcast (src_ty, dst_ty) else Scast (src_ty, dst_ty)))
  in
  let rec stmt (s : Op.stmt) =
    match s with
    | Op.Assign (lv, e) ->
        let ty = eval 0 e in
        store_lvalue 0 lv ty ~bitcast:false
    | Op.Read (lv, port) ->
        (* Blocking MMIO load into a scratch temp, then bitcast. *)
        li Isa.t1 (Cpu.mmio_in_base + (8 * in_port port));
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t2, Isa.t1, 0)));
        li Isa.t0 (temp_addr 0);
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t2, Isa.t0, 0)));
        store_lvalue 0 lv Dtype.word ~bitcast:true
    | Op.Write (port, e) ->
        let ty = eval 0 e in
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
        li Isa.a0 (temp_addr 1);
        ecall (site (Sbitcast (ty, Dtype.word)));
        li Isa.t0 (temp_addr 1);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t2, Isa.t0, 0)));
        li Isa.t1 (Cpu.mmio_out_base + (8 * out_port port));
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t2, Isa.t1, 0)))
    | Op.Printf (msg, args) ->
        let tys =
          List.mapi
            (fun i a ->
              let ty = eval 0 a in
              emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.a1, Isa.t0, 0)));
              li Isa.a0 (temp_addr (8 + i));
              ecall (site (Scast (ty, ty)));
              ty)
            args
        in
        (* args now sit in consecutive temps starting at 8 *)
        li Isa.a1 (temp_addr 8);
        ecall (site (Sprint (msg, tys)))
    | Op.For { var; lo; hi; body; _ } ->
        let lhead = fresh_label "for_head" and lend = fresh_label "for_end" in
        Hashtbl.replace loop_vars var ();
        let addr = loop_var_addr var in
        li Isa.t0 lo;
        li Isa.t1 addr;
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t0, Isa.t1, 0)));
        emit (Asm.Label lhead);
        li Isa.t1 addr;
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t0, Isa.t1, 0)));
        li Isa.t2 hi;
        emit (Asm.Bj (Isa.Bge, Isa.t0, Isa.t2, lend));
        List.iter stmt body;
        li Isa.t1 addr;
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t0, Isa.t1, 0)));
        emit (Asm.Instr (Isa.Alui (Isa.Addi, Isa.t0, Isa.t0, 1)));
        emit (Asm.Instr (Isa.Store (Isa.W, Isa.t0, Isa.t1, 0)));
        emit (Asm.J lhead);
        emit (Asm.Label lend);
        Hashtbl.remove loop_vars var
    | Op.If (c, a, b) ->
        let lelse = fresh_label "if_else" and lend = fresh_label "if_end" in
        ignore (eval 0 c);
        emit (Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)));
        emit (Asm.Bj (Isa.Beq, Isa.t1, Isa.zero, lelse));
        List.iter stmt a;
        emit (Asm.J lend);
        emit (Asm.Label lelse);
        List.iter stmt b;
        emit (Asm.Label lend)
  in
  List.iter stmt op.body;
  (* Halt. *)
  li Isa.t1 Cpu.mmio_halt;
  emit (Asm.Instr (Isa.Store (Isa.W, Isa.zero, Isa.t1, 0)));
  let items = List.rev !code in
  let image = Asm.assemble items in
  let text_bytes = 4 * Array.length image.Asm.words in
  if text_bytes > data_base then
    unsupported "%s: text %d bytes overflows the data base" op.name text_bytes;
  let footprint = text_bytes + (!cursor - data_base) in
  if !cursor > temp_base then unsupported "%s: data %d bytes overflows page memory" op.name (!cursor - data_base);
  {
    op_name = op.name;
    image;
    data_init = List.rev !data_init;
    meta = Array.of_list (List.rev !meta);
    var_layout = Hashtbl.fold (fun k v acc -> (k, v) :: acc) var_addr [];
    footprint_bytes = footprint;
    port_map;
  }
