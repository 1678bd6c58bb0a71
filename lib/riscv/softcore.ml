open Pld_ir
module Bits = Pld_apfixed.Bits

(* A slot holds a value's raw pattern in little-endian 32-bit words,
   zero above its width. Narrow values (one or two words) move as
   immediates; wider ones go through [Bits]. *)

let read_raw cpu ~addr dt =
  let word k = Int32.to_int (Cpu.read_word cpu (addr + (4 * k))) land 0xFFFF_FFFF in
  Value.fit dt (if Dtype.width dt <= 32 then word 0 else word 0 lor (word 1 lsl 32))

let write_raw cpu ~addr dt x =
  let w = Dtype.width dt in
  let pattern = x land ((1 lsl w) - 1) in
  Cpu.write_word cpu addr (Int32.of_int pattern);
  if w > 32 then Cpu.write_word cpu (addr + 4) (Int32.of_int (pattern lsr 32))

let read_slot cpu ~addr dt =
  if Value.is_narrow dt then Value.of_low dt (read_raw cpu ~addr dt)
  else begin
    let words = (Dtype.width dt + 31) / 32 in
    let bits = ref (Bits.zero (words * 32)) in
    for k = 0 to words - 1 do
      let w = Cpu.read_word cpu (addr + (4 * k)) in
      let chunk = Bits.of_int64 ~width:(words * 32) (Int64.logand (Int64.of_int32 w) 0xFFFFFFFFL) in
      bits := Bits.logor !bits (Bits.shift_left chunk (32 * k))
    done;
    Value.of_bits dt !bits
  end

let write_slot cpu ~addr v =
  let dt = Value.dtype v in
  if Value.is_narrow dt then write_raw cpu ~addr dt (Value.low v)
  else Array.iteri (fun k w -> Cpu.write_word cpu (addr + (4 * k)) w) (Codegen.words_of_value v)

(* One call site: reads its operand slots at [a1]/[a2] and writes the
   result slot at [a0]. Narrow operands and result take the
   evaluator's kernel; anything else its limb path. *)
let site_code ~printf (s : Codegen.site) : Cpu.t -> int -> int -> int -> unit =
  let narrow = Value.is_narrow in
  let unary da kernel limb =
    match kernel with
    | Some (Interp.Imm (r, k)) when narrow da && narrow r ->
        fun cpu a0 a1 _ -> write_raw cpu ~addr:a0 r (k (read_raw cpu ~addr:a1 da))
    | _ -> fun cpu a0 a1 _ -> write_slot cpu ~addr:a0 (limb (read_slot cpu ~addr:a1 da))
  in
  match s with
  | Codegen.Sbin (op, da, db) -> (
      match Interp.bin_kernel op da db with
      | Some (Interp.Imm (r, k)) when narrow da && narrow db && narrow r ->
          fun cpu a0 a1 a2 ->
            let x = read_raw cpu ~addr:a1 da in
            write_raw cpu ~addr:a0 r (k x (read_raw cpu ~addr:a2 db))
      | _ ->
          let f = Interp.binop op in
          fun cpu a0 a1 a2 ->
            let va = read_slot cpu ~addr:a1 da in
            write_slot cpu ~addr:a0 (f va (read_slot cpu ~addr:a2 db)))
  | Codegen.Sun (op, da) -> unary da (Interp.un_kernel op da) (Interp.unop op)
  | Codegen.Scast (src, dst) -> unary src (Some (Interp.cast_kernel ~src ~dst)) (Value.cast dst)
  | Codegen.Sbitcast (src, dst) -> unary src (Some (Interp.bitcast_kernel ~src ~dst)) (Value.bitcast dst)
  | Codegen.Sprint (msg, dts) ->
      fun cpu _ a1 _ ->
        let args = List.mapi (fun i dt -> read_slot cpu ~addr:(a1 + (i * 32)) dt) dts in
        printf (msg ^ String.concat "" (List.map (fun v -> " " ^ Value.to_string v) args))

let runtime ?(printf = fun _ -> ()) (p : Codegen.program) =
  let code = Array.map (site_code ~printf) p.Codegen.meta in
  let cost = Array.map Codegen.cost_of_site p.Codegen.meta in
  fun cpu ->
    let a0 = Int32.to_int (Cpu.read_reg cpu Isa.a0) in
    let a1 = Int32.to_int (Cpu.read_reg cpu Isa.a1) in
    let a2 = Int32.to_int (Cpu.read_reg cpu Isa.a2) in
    let idx = Int32.to_int (Cpu.read_reg cpu Isa.a7) in
    if idx < 0 || idx >= Array.length code then
      invalid_arg (Printf.sprintf "softcore %s: bad ecall site %d" p.Codegen.op_name idx);
    code.(idx) cpu a0 a1 a2;
    cost.(idx)

let boot ?(profile = Cpu.picorv32) ~stream_read ~stream_write ?printf (p : Codegen.program) =
  let on_ecall = runtime ?printf p in
  let cpu = Cpu.create ~profile ~stream_read ~stream_write ~on_ecall () in
  Cpu.load_words cpu ~addr:0 p.Codegen.image.Asm.words;
  List.iter (fun (addr, words) -> Cpu.load_words cpu ~addr words) p.Codegen.data_init;
  cpu
