module Telemetry = Pld_telemetry.Telemetry

type profile = {
  profile_name : string;
  c_alu : int;
  c_mem : int;
  c_jump : int;
  c_taken : int;
  c_not_taken : int;
  c_mul : int;
  c_div : int;
  ecall_scale : float;
}

let picorv32 =
  { profile_name = "picorv32"; c_alu = 3; c_mem = 5; c_jump = 5; c_taken = 5; c_not_taken = 3;
    c_mul = 5; c_div = 40; ecall_scale = 1.0 }

let pipelined =
  { profile_name = "pipelined"; c_alu = 1; c_mem = 2; c_jump = 2; c_taken = 2; c_not_taken = 1;
    c_mul = 2; c_div = 20; ecall_scale = 0.45 }

type trap = { trap_msg : string; trap_pc : int; trap_instr : int32; trap_cycle : int }

type status = Running | Stalled | Halted | Trapped of trap

let describe_trap tr =
  Printf.sprintf "%s (pc=0x%x instr=0x%08lx cycle=%d)" tr.trap_msg tr.trap_pc tr.trap_instr
    tr.trap_cycle

(* One constructor per RV32IM instruction, so the run loop dispatches
   on a single tag. *)
type op =
  | Lui | Auipc | Jal | Jalr
  | Beq | Bne | Blt | Bge | Bltu | Bgeu
  | Lb | Lh | Lw | Lbu | Lhu | Sb | Sh | Sw
  | Addi | Slti | Sltiu | Xori | Ori | Andi | Slli | Srli | Srai
  | Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And
  | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu
  | Ecall | Ebreak

(* A predecoded slot packs [tag] (bits 0-5, the 1-based index of its op
   in [ops]; 0 marks an empty slot), rd (6-10), rs1 (11-15), rs2
   (16-20) and the sign-extended immediate (21 and up). *)
let ops =
  [| Lui; Auipc; Jal; Jalr; Beq; Bne; Blt; Bge; Bltu; Bgeu; Lb; Lh; Lw; Lbu; Lhu; Sb; Sh; Sw;
     Addi; Slti; Sltiu; Xori; Ori; Andi; Slli; Srli; Srai; Add; Sub; Sll; Slt; Sltu; Xor; Srl;
     Sra; Or; And; Mul; Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu; Ecall; Ebreak |]

type t = {
  mem : Bytes.t;
  regs : int array;  (** sign-extended 32-bit values; [regs.(0)] stays 0 *)
  mutable code : int array;  (** predecoded slot of word [pc / 4]; grows on demand *)
  mutable pc : int;
  mutable cycles : int;
  mutable retired : int;
  mutable status : status;
  stream_read : int -> int32 option;
  stream_write : int -> int32 -> bool;
  on_ecall : t -> int;
  profile : profile;
}

let mmio_in_base = 0x1000_0000
let mmio_out_base = 0x1000_0100
let mmio_halt = 0x1000_0200

let create ?(mem_kb = 192) ?(profile = picorv32) ?(stream_read = fun _ -> None)
    ?(stream_write = fun _ _ -> true) ?(on_ecall = fun _ -> 10) () =
  {
    mem = Bytes.make (mem_kb * 1024) '\000';
    regs = Array.make 32 0;
    code = [||];
    pc = 0;
    cycles = 0;
    retired = 0;
    status = Running;
    stream_read;
    stream_write;
    on_ecall;
    profile;
  }

let cycles t = t.cycles
let retired t = t.retired

(* Sign-extend the low 32 bits. *)
let[@inline] sx v = (v lsl 31) asr 31
let[@inline] u32 v = v land 0xFFFF_FFFF
let[@inline] set (regs : int array) rd v = if rd <> 0 then Array.unsafe_set regs rd v

let read_reg t r = Int32.of_int t.regs.(r)

let[@inline] in_mem t addr = addr >= 0 && addr + 3 < Bytes.length t.mem

(* Clear the predecoded slots of the words that bytes [addr, addr+n)
   touch, so rewritten text is decoded afresh. *)
let[@inline] invalidate t addr n =
  let code = t.code in
  for i = addr lsr 2 to min ((addr + n - 1) lsr 2) (Array.length code - 1) do
    Array.unsafe_set code i 0
  done

(* Capture the faulting machine state: current pc, the instruction word
   there (0 if the pc itself is unmapped), and the cycle count. *)
let trap_state t msg =
  Telemetry.incr (Telemetry.counter Telemetry.default "softcore.traps");
  let instr = if in_mem t t.pc then Bytes.get_int32_le t.mem t.pc else 0l in
  { trap_msg = msg; trap_pc = t.pc; trap_instr = instr; trap_cycle = t.cycles }

let inject_trap t msg = t.status <- Trapped (trap_state t msg)

let read_word t addr =
  if not (in_mem t addr) then invalid_arg (Printf.sprintf "Cpu.read_word: 0x%x out of memory" addr);
  Bytes.get_int32_le t.mem addr

let write_word t addr v =
  if not (in_mem t addr) then invalid_arg (Printf.sprintf "Cpu.write_word: 0x%x out of memory" addr);
  Bytes.set_int32_le t.mem addr v;
  invalidate t addr 4

let load_words t ~addr words = Array.iteri (fun i w -> write_word t (addr + (4 * i)) w) words

let pack op ~rd ~rs1 ~rs2 imm =
  let rec tag i = if ops.(i) = op then i + 1 else tag (i + 1) in
  tag 0 lor (rd lsl 6) lor (rs1 lsl 11) lor (rs2 lsl 16) lor (imm lsl 21)

let predecode (instr : Isa.instr) =
  match instr with
  | Isa.Lui (rd, imm) -> pack Lui ~rd ~rs1:0 ~rs2:0 (sx (imm lsl 12))
  | Isa.Auipc (rd, imm) -> pack Auipc ~rd ~rs1:0 ~rs2:0 (sx (imm lsl 12))
  | Isa.Jal (rd, imm) -> pack Jal ~rd ~rs1:0 ~rs2:0 imm
  | Isa.Jalr (rd, rs1, imm) -> pack Jalr ~rd ~rs1 ~rs2:0 imm
  | Isa.Branch (c, rs1, rs2, imm) ->
      let op = match c with Isa.Beq -> Beq | Bne -> Bne | Blt -> Blt | Bge -> Bge | Bltu -> Bltu | Bgeu -> Bgeu in
      pack op ~rd:0 ~rs1 ~rs2 imm
  | Isa.Load (w, unsigned, rd, rs1, imm) ->
      let op = match (w, unsigned) with B, false -> Lb | H, false -> Lh | W, _ -> Lw | B, true -> Lbu | H, true -> Lhu in
      pack op ~rd ~rs1 ~rs2:0 imm
  | Isa.Store (w, rs2, rs1, imm) ->
      pack (match w with B -> Sb | H -> Sh | W -> Sw) ~rd:0 ~rs1 ~rs2 imm
  | Isa.Alui (a, rd, rs1, imm) ->
      let op =
        match a with
        | Isa.Addi -> Addi | Slti -> Slti | Sltiu -> Sltiu | Xori -> Xori | Ori -> Ori | Andi -> Andi
        | Slli -> Slli | Srli -> Srli | Srai -> Srai
      in
      pack op ~rd ~rs1 ~rs2:0 imm
  | Isa.Alur (o, rd, rs1, rs2) ->
      let op =
        match o with
        | Isa.Radd -> Add | Rsub -> Sub | Rsll -> Sll | Rslt -> Slt | Rsltu -> Sltu | Rxor -> Xor
        | Rsrl -> Srl | Rsra -> Sra | Ror -> Or | Rand -> And | Rmul -> Mul | Rmulh -> Mulh
        | Rmulhsu -> Mulhsu | Rmulhu -> Mulhu | Rdiv -> Div | Rdivu -> Divu | Rrem -> Rem | Rremu -> Remu
      in
      pack op ~rd ~rs1 ~rs2 0
  | Isa.Ecall -> pack Ecall ~rd:0 ~rs1:0 ~rs2:0 0
  | Isa.Ebreak -> pack Ebreak ~rd:0 ~rs1:0 ~rs2:0 0

(* Complete the instruction at [t.pc]. *)
let[@inline] retire t ~next charge =
  t.cycles <- t.cycles + charge;
  t.retired <- t.retired + 1;
  t.pc <- next

(* Blocked on a stream port: charge one cycle and retry the instruction. *)
let stall t =
  t.status <- Stalled;
  t.cycles <- t.cycles + 1

(* Grow the table by doubling until it covers slot [i]. *)
let grow t i =
  let n = Array.length t.code in
  let code = Array.make (min (Bytes.length t.mem / 4) (max (i + 1) (2 * n))) 0 in
  Array.blit t.code 0 code 0 n;
  t.code <- code

(* Decode the word at [pc] and, if [pc] is word-aligned, keep it in the
   table. Returns 0 after trapping. *)
let fetch t pc =
  if not (in_mem t pc) then begin
    inject_trap t (Printf.sprintf "pc 0x%x out of memory" pc);
    0
  end
  else
    let word = Bytes.get_int32_le t.mem pc in
    match Isa.decode word with
    | None ->
        inject_trap t (Printf.sprintf "illegal instruction 0x%08lx" word);
        0
    | Some instr ->
        let slot = predecode instr in
        let i = pc lsr 2 in
        if pc land 3 = 0 then begin
          if i >= Array.length t.code then grow t i;
          t.code.(i) <- slot
        end;
        slot

let load t op ~rd addr =
  if addr >= mmio_in_base && addr < mmio_in_base + 0x100 && addr land 7 = 0 then
    match t.stream_read ((addr - mmio_in_base) / 8) with
    | Some v ->
        set t.regs rd (Int32.to_int v);
        retire t ~next:(t.pc + 4) t.profile.c_mem
    | None -> stall t
    | exception Failure msg -> inject_trap t msg
  else if not (in_mem t addr) then inject_trap t (Printf.sprintf "load at 0x%x" addr)
  else begin
    let m = t.mem in
    set t.regs rd
      (match op with
      | Lb -> Bytes.get_int8 m addr
      | Lbu -> Bytes.get_uint8 m addr
      | Lh -> Bytes.get_int16_le m addr
      | Lhu -> Bytes.get_uint16_le m addr
      | _ -> Int32.to_int (Bytes.get_int32_le m addr));
    retire t ~next:(t.pc + 4) t.profile.c_mem
  end

let store t op addr v =
  if addr = mmio_halt then begin
    t.status <- Halted;
    retire t ~next:(t.pc + 4) t.profile.c_mem
  end
  else if addr >= mmio_out_base && addr < mmio_out_base + 0x100 && addr land 7 = 0 then
    match t.stream_write ((addr - mmio_out_base) / 8) (Int32.of_int v) with
    | true -> retire t ~next:(t.pc + 4) t.profile.c_mem
    | false -> stall t
    | exception Failure msg -> inject_trap t msg
  else if not (in_mem t addr) then inject_trap t (Printf.sprintf "store at 0x%x" addr)
  else begin
    let m = t.mem in
    let width =
      match op with
      | Sb ->
          Bytes.set_uint8 m addr (v land 0xFF);
          1
      | Sh ->
          Bytes.set_uint16_le m addr (v land 0xFFFF);
          2
      | _ ->
          Bytes.set_int32_le m addr (Int32.of_int v);
          4
    in
    invalidate t addr width;
    retire t ~next:(t.pc + 4) t.profile.c_mem
  end

let ecall t =
  match t.on_ecall t with
  | cost -> retire t ~next:(t.pc + 4) (max 1 (int_of_float (t.profile.ecall_scale *. float_of_int cost)))
  | exception (Failure msg | Invalid_argument msg) -> inject_trap t msg

let[@inline] running t = match t.status with Running -> true | Stalled | Halted | Trapped _ -> false

(* The interpreter: one instruction per iteration until a stall, trap
   or halt changes [t.status], or the cycle budget runs out. *)
let exec t ~max_cycles =
  let regs = t.regs and p = t.profile in
  while running t && t.cycles < max_cycles do
    let pc = t.pc in
    let code = t.code in
    let i = pc lsr 2 in
    let slot =
      if pc land 3 = 0 && i < Array.length code && Array.unsafe_get code i <> 0 then Array.unsafe_get code i
      else fetch t pc
    in
    if slot <> 0 then begin
      let rd = (slot lsr 6) land 31 and imm = slot asr 21 in
      let x = Array.unsafe_get regs ((slot lsr 11) land 31) in
      let y = Array.unsafe_get regs ((slot lsr 16) land 31) in
      let next = pc + 4 in
      let alu v =
        set regs rd v;
        retire t ~next p.c_alu
      and branch taken = if taken then retire t ~next:(pc + imm) p.c_taken else retire t ~next p.c_not_taken
      and mul v =
        set regs rd v;
        retire t ~next p.c_mul
      and div v =
        set regs rd v;
        retire t ~next p.c_div
      in
      match Array.unsafe_get ops ((slot land 63) - 1) with
      | Lui -> alu imm
      | Auipc -> alu (sx (pc + imm))
      | Jal ->
          set regs rd next;
          retire t ~next:(pc + imm) p.c_jump
      | Jalr ->
          let target = sx (x + imm) land lnot 1 in
          set regs rd next;
          retire t ~next:target p.c_jump
      | Beq -> branch (x = y)
      | Bne -> branch (x <> y)
      | Blt -> branch (x < y)
      | Bge -> branch (x >= y)
      | Bltu -> branch (u32 x < u32 y)
      | Bgeu -> branch (u32 x >= u32 y)
      | (Lb | Lh | Lw | Lbu | Lhu) as op -> load t op ~rd (sx (x + imm))
      | (Sb | Sh | Sw) as op -> store t op (sx (x + imm)) y
      | Addi -> alu (sx (x + imm))
      | Slti -> alu (if x < imm then 1 else 0)
      | Sltiu -> alu (if u32 x < u32 imm then 1 else 0)
      | Xori -> alu (x lxor imm)
      | Ori -> alu (x lor imm)
      | Andi -> alu (x land imm)
      | Slli -> alu (sx (x lsl imm))
      | Srli -> alu (sx (u32 x lsr imm))
      | Srai -> alu (x asr imm)
      | Add -> alu (sx (x + y))
      | Sub -> alu (sx (x - y))
      | Sll -> alu (sx (x lsl (y land 31)))
      | Slt -> alu (if x < y then 1 else 0)
      | Sltu -> alu (if u32 x < u32 y then 1 else 0)
      | Xor -> alu (x lxor y)
      | Srl -> alu (sx (u32 x lsr (y land 31)))
      | Sra -> alu (x asr (y land 31))
      | Or -> alu (x lor y)
      | And -> alu (x land y)
      | Mul -> mul (sx (x * y))
      (* The high products, quotients and remainders are computed in
         Int64/Int32, where RISC-V's edge cases are exact: Int32 wraps
         min_int / -1 to min_int with remainder 0, so only division by
         zero needs a case of its own. *)
      | Mulh -> mul (Int64.to_int (Int64.shift_right (Int64.mul (Int64.of_int x) (Int64.of_int y)) 32))
      | Mulhsu ->
          mul (Int64.to_int (Int64.shift_right (Int64.mul (Int64.of_int x) (Int64.of_int (u32 y))) 32))
      | Mulhu ->
          mul (sx (Int64.to_int (Int64.shift_right_logical (Int64.mul (Int64.of_int (u32 x)) (Int64.of_int (u32 y))) 32)))
      | Div ->
          div (if y = 0 then -1 else Int32.to_int (Int32.div (Int32.of_int x) (Int32.of_int y)))
      | Divu -> div (if y = 0 then -1 else sx (Int64.to_int (Int64.div (Int64.of_int (u32 x)) (Int64.of_int (u32 y)))))
      | Rem ->
          div (if y = 0 then x else Int32.to_int (Int32.rem (Int32.of_int x) (Int32.of_int y)))
      | Remu -> div (if y = 0 then x else sx (Int64.to_int (Int64.rem (Int64.of_int (u32 x)) (Int64.of_int (u32 y)))))
      | Ecall -> ecall t
      | Ebreak ->
          t.status <- Halted;
          retire t ~next p.c_alu
    end
  done

let run ?(max_cycles = max_int) t =
  let c0 = t.cycles in
  (match t.status with
  | (Running | Stalled) when t.cycles < max_cycles ->
      t.status <- Running;
      exec t ~max_cycles
  | Running | Stalled | Halted | Trapped _ -> ());
  Telemetry.incr ~by:(t.cycles - c0) (Telemetry.counter Telemetry.default "softcore.cycles");
  t.status

let pmu_tick t series ~last =
  if t.cycles > last then
    Pld_telemetry.Pmu.add series ~cycle:t.cycles (float_of_int (t.cycles - last));
  t.cycles
