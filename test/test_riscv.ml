open Pld_riscv
open Pld_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i32 = Alcotest.(check int32)

(* ---------- ISA ---------- *)

let sample_instrs =
  [
    Isa.Lui (5, 0x12345);
    Isa.Auipc (10, 0xFFF);
    Isa.Jal (1, 2048);
    Isa.Jal (0, -4096);
    Isa.Jalr (1, 5, -12);
    Isa.Branch (Isa.Beq, 5, 6, 16);
    Isa.Branch (Isa.Bge, 10, 11, -256);
    Isa.Load (Isa.W, false, 7, 2, 124);
    Isa.Load (Isa.B, true, 7, 2, -1);
    Isa.Store (Isa.W, 7, 2, -2048);
    Isa.Store (Isa.H, 3, 4, 2046);
    Isa.Alui (Isa.Addi, 5, 5, -1);
    Isa.Alui (Isa.Slli, 5, 5, 31);
    Isa.Alui (Isa.Srai, 6, 6, 4);
    Isa.Alur (Isa.Radd, 1, 2, 3);
    Isa.Alur (Isa.Rmulhu, 1, 2, 3);
    Isa.Alur (Isa.Rdiv, 1, 2, 3);
    Isa.Ecall;
    Isa.Ebreak;
  ]

let test_isa_roundtrip () =
  List.iter
    (fun i ->
      match Isa.decode (Isa.encode i) with
      | Some d -> check_bool (Isa.to_string i) true (d = i)
      | None -> Alcotest.failf "decode failed for %s" (Isa.to_string i))
    sample_instrs

let test_isa_rejects_bad_imm () =
  check_bool "I-type range" true
    (match Isa.encode (Isa.Alui (Isa.Addi, 1, 1, 5000)) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- assembler ---------- *)

let test_asm_labels () =
  let img =
    Asm.assemble
      [
        Asm.Label "start";
        Asm.Li (Isa.t0, 5l);
        Asm.Bj (Isa.Beq, Isa.t0, Isa.zero, "end");
        Asm.J "start";
        Asm.Label "end";
        Asm.Instr Isa.Ebreak;
      ]
  in
  check_bool "assembled" true (Array.length img.Asm.words >= 4);
  check_int "start at 0" 0 (List.assoc "start" img.Asm.symbols)

let test_asm_undefined_label () =
  match Asm.assemble [ Asm.J "nowhere" ] with
  | _ -> Alcotest.fail "expected Undefined_label"
  | exception Asm.Undefined_label "nowhere" -> ()

let test_asm_long_branch () =
  (* A branch across >4 KB of code must still assemble and execute
     (the assembler expands it to an inverted branch over a jal). *)
  let filler = List.init 3000 (fun _ -> Asm.Instr (Isa.Alui (Isa.Addi, Isa.t2, Isa.t2, 1))) in
  let img =
    Asm.assemble
      ([ Asm.Li (Isa.t0, 0l); Asm.Bj (Isa.Beq, Isa.t0, Isa.zero, "far") ]
      @ filler
      @ [ Asm.Label "far"; Asm.Li (Isa.t1, 77l); Asm.Instr Isa.Ebreak ])
  in
  let cpu = Cpu.create () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  check_bool "halted" true (Cpu.run cpu = Cpu.Halted);
  check_i32 "skipped the filler" 77l (Cpu.read_reg cpu Isa.t1);
  check_i32 "filler never ran" 0l (Cpu.read_reg cpu Isa.t2)

let test_asm_li_wide () =
  let img = Asm.assemble [ Asm.Li (Isa.t0, 0xDEADBEEFl); Asm.Instr Isa.Ebreak ] in
  (* Execute it and check the register. *)
  let cpu = Cpu.create () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  ignore (Cpu.run cpu);
  check_i32 "li materializes value" 0xDEADBEEFl (Cpu.read_reg cpu Isa.t0)

let run_program items =
  let img = Asm.assemble items in
  let cpu = Cpu.create () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  (Cpu.run cpu, cpu)

(* ---------- CPU ---------- *)

let test_cpu_arith () =
  let _, cpu =
    run_program
      [
        Asm.Li (Isa.t0, 21l);
        Asm.Li (Isa.t1, 2l);
        Asm.Instr (Isa.Alur (Isa.Rmul, Isa.t2, Isa.t0, Isa.t1));
        Asm.Instr Isa.Ebreak;
      ]
  in
  check_i32 "21*2" 42l (Cpu.read_reg cpu Isa.t2)

let test_cpu_loop () =
  (* Sum 1..10 with a branch loop. *)
  let status, cpu =
    run_program
      [
        Asm.Li (Isa.t0, 0l);
        Asm.Li (Isa.t1, 10l);
        Asm.Label "loop";
        Asm.Instr (Isa.Alur (Isa.Radd, Isa.t0, Isa.t0, Isa.t1));
        Asm.Instr (Isa.Alui (Isa.Addi, Isa.t1, Isa.t1, -1));
        Asm.Bj (Isa.Bne, Isa.t1, Isa.zero, "loop");
        Asm.Instr Isa.Ebreak;
      ]
  in
  check_bool "halted" true (status = Cpu.Halted);
  check_i32 "sum" 55l (Cpu.read_reg cpu Isa.t0)

let test_cpu_mem () =
  let _, cpu =
    run_program
      [
        Asm.Li (Isa.t0, 0x8000l);
        Asm.Li (Isa.t1, -7l);
        Asm.Instr (Isa.Store (Isa.W, Isa.t1, Isa.t0, 0));
        Asm.Instr (Isa.Load (Isa.W, false, Isa.t2, Isa.t0, 0));
        Asm.Instr Isa.Ebreak;
      ]
  in
  check_i32 "store/load" (-7l) (Cpu.read_reg cpu Isa.t2)

let test_cpu_division_semantics () =
  let _, cpu =
    run_program
      [
        Asm.Li (Isa.t0, 7l);
        Asm.Li (Isa.t1, 0l);
        Asm.Instr (Isa.Alur (Isa.Rdiv, Isa.t2, Isa.t0, Isa.t1));
        Asm.Instr (Isa.Alur (Isa.Rrem, Isa.t3, Isa.t0, Isa.t1));
        Asm.Instr Isa.Ebreak;
      ]
  in
  check_i32 "div by zero = -1" (-1l) (Cpu.read_reg cpu Isa.t2);
  check_i32 "rem by zero = dividend" 7l (Cpu.read_reg cpu Isa.t3)

(* RV32IM semantics on edge operands. Rows are (rs1, rs2 or imm,
   expected rd); 0xFFFF_FFFFl is the same register value as -1l. *)
let mn = Int32.min_int
let mx = Int32.max_int

let alur_table =
  Isa.
    [
      (Radd, [ (mx, 1l, mn); (-1l, -1l, -2l); (mn, -1l, mx); (0l, 0xFFFF_FFFFl, -1l); (mn, mn, 0l) ]);
      (Rsub, [ (mn, 1l, mx); (0l, mn, mn); (0l, -1l, 1l); (mx, -1l, mn); (0l, 0l, 0l) ]);
      (* Register shift amounts use the low 5 bits of rs2 only. *)
      (Rsll, [ (1l, 31l, mn); (-1l, 31l, mn); (1l, 32l, 1l); (1l, 33l, 2l); (1l, -1l, mn); (mx, 1l, -2l) ]);
      (Rslt, [ (mn, mx, 1l); (mx, mn, 0l); (-1l, 0l, 1l); (0l, -1l, 0l); (-1l, -1l, 0l) ]);
      (Rsltu, [ (mn, mx, 0l); (mx, mn, 1l); (0xFFFF_FFFFl, 0l, 0l); (0l, 0xFFFF_FFFFl, 1l); (0l, 0l, 0l) ]);
      (Rxor, [ (-1l, mx, mn); (mn, mx, -1l); (-1l, -1l, 0l); (0l, mn, mn) ]);
      (Rsrl, [ (mn, 31l, 1l); (-1l, 1l, mx); (-1l, 32l, -1l); (mn, 0l, mn); (-1l, 63l, 1l) ]);
      (Rsra, [ (mn, 31l, -1l); (mn, 1l, 0xC000_0000l); (mx, 31l, 0l); (-1l, 32l, -1l); (mx, -1l, 0l) ]);
      (Ror, [ (mn, mx, -1l); (0l, 0l, 0l); (mn, 1l, 0x8000_0001l) ]);
      (Rand, [ (-1l, mn, mn); (mn, mx, 0l); (-1l, mx, mx); (0l, -1l, 0l) ]);
      (Rmul, [ (21l, 2l, 42l); (mx, mx, 1l); (mn, -1l, mn); (-1l, -1l, 1l); (mn, mn, 0l); (65536l, 65536l, 0l) ]);
      (Rmulh, [ (mn, mn, 0x4000_0000l); (mn, mx, 0xC000_0000l); (-1l, -1l, 0l); (-1l, 1l, -1l); (mx, mx, 0x3FFF_FFFFl) ]);
      (Rmulhsu, [ (-1l, -1l, -1l); (mn, -1l, mn); (1l, -1l, 0l); (mx, -1l, 0x7FFF_FFFEl); (-1l, 1l, -1l) ]);
      (Rmulhu, [ (-1l, -1l, 0xFFFF_FFFEl); (mn, mn, 0x4000_0000l); (-1l, 1l, 0l); (mn, 2l, 1l) ]);
      (* Division by zero and the one signed overflow never trap. *)
      (Rdiv, [ (7l, 0l, -1l); (mn, -1l, mn); (-7l, 2l, -3l); (7l, -2l, -3l); (0l, 0l, -1l) ]);
      (Rdivu, [ (7l, 0l, 0xFFFF_FFFFl); (-1l, 2l, mx); (mn, -1l, 0l); (-1l, -1l, 1l) ]);
      (Rrem, [ (7l, 0l, 7l); (mn, -1l, 0l); (-7l, 2l, -1l); (7l, -2l, 1l); (mn, 0l, mn) ]);
      (Rremu, [ (7l, 0l, 7l); (-1l, 2l, 1l); (mn, -1l, mn); (-1l, 0l, -1l) ]);
    ]

let alui_table =
  Isa.
    [
      (Addi, [ (mx, 1, mn); (mn, -1, mx); (0l, -2048, -2048l); (-1l, 2047, 2046l) ]);
      (Slti, [ (mn, 0, 1l); (mx, -1, 0l); (-1l, 0, 1l); (-2048l, -2048, 0l) ]);
      (* The immediate is sign-extended, then compared unsigned. *)
      (Sltiu, [ (0l, -1, 1l); (0xFFFF_FFFFl, -1, 0l); (mx, -2048, 1l); (mn, 1, 0l); (0l, 1, 1l) ]);
      (Xori, [ (0l, -1, -1l); (mx, -1, mn); (mn, 2047, 0x8000_07FFl) ]);
      (Ori, [ (mn, -2048, 0xFFFF_F800l); (0l, 2047, 2047l) ]);
      (Andi, [ (-1l, -2048, -2048l); (mn, -1, mn); (mx, -2048, 0x7FFF_F800l) ]);
      (Slli, [ (1l, 31, mn); (-1l, 0, -1l); (mx, 1, -2l) ]);
      (Srli, [ (mn, 31, 1l); (-1l, 0, -1l); (-1l, 1, mx) ]);
      (Srai, [ (mn, 31, -1l); (mn, 0, mn); (mx, 30, 1l) ]);
    ]

let test_cpu_semantics_table () =
  let t0, t1, t2 = Isa.(t0, t1, t2) in
  let result items r =
    match run_program (items @ [ Asm.Instr Isa.Ebreak ]) with
    | Cpu.Halted, cpu -> Cpu.read_reg cpu r
    | _ -> Alcotest.failf "%s: did not halt" (Asm.disassemble (Asm.assemble items))
  in
  List.iter
    (fun (op, rows) ->
      List.iter
        (fun (x, y, want) ->
          let i = Isa.Alur (op, t2, t0, t1) in
          check_i32
            (Printf.sprintf "%s 0x%08lx 0x%08lx" (Isa.to_string i) x y)
            want
            (result [ Asm.Li (t0, x); Asm.Li (t1, y); Asm.Instr i ] t2))
        rows)
    alur_table;
  List.iter
    (fun (op, rows) ->
      List.iter
        (fun (x, imm, want) ->
          let i = Isa.Alui (op, t2, t0, imm) in
          check_i32 (Printf.sprintf "%s with t0=0x%08lx" (Isa.to_string i) x) want
            (result [ Asm.Li (t0, x); Asm.Instr i ] t2))
        rows)
    alui_table;
  (* Writes to x0 are dropped. *)
  check_i32 "x0 stays zero" 0l (result [ Asm.Instr (Isa.Alui (Isa.Addi, Isa.zero, Isa.zero, 5)) ] Isa.zero);
  (* Loads sign- or zero-extend; sb/sh touch only their bytes. *)
  let base = Asm.Li (t0, 0x8000l) in
  let word = [ base; Asm.Li (t1, 0x80FF_7F01l); Asm.Instr (Isa.Store (Isa.W, t1, t0, 0)) ] in
  List.iter
    (fun (w, unsigned, off, want) ->
      let i = Isa.Load (w, unsigned, t2, t0, off) in
      check_i32 (Isa.to_string i ^ " of 0x80ff7f01") want (result (word @ [ Asm.Instr i ]) t2))
    Isa.
      [
        (B, false, 0, 1l); (B, false, 1, 127l); (B, false, 2, -1l); (B, true, 2, 255l); (B, false, 3, -128l);
        (B, true, 3, 128l); (H, false, 0, 0x7F01l); (H, false, 2, -32513l); (H, true, 2, 0x80FFl);
        (W, false, 0, 0x80FF_7F01l);
      ];
  check_i32 "sb then sh into 0xaaaaaaaa" 0xBEEF_78AAl
    (result
       [
         base; Asm.Li (t1, 0xAAAA_AAAAl); Asm.Instr (Isa.Store (Isa.W, t1, t0, 0));
         Asm.Li (t1, 0x1234_5678l); Asm.Instr (Isa.Store (Isa.B, t1, t0, 1));
         Asm.Li (t1, 0x7777_BEEFl); Asm.Instr (Isa.Store (Isa.H, t1, t0, 2));
         Asm.Instr (Isa.Load (Isa.W, false, t2, t0, 0));
       ]
       t2);
  (* Upper immediates: lui with bit 31 set, auipc relative to its pc. *)
  check_i32 "lui 0x80000" mn (result [ Asm.Instr (Isa.Lui (t2, 0x80000)) ] t2);
  check_i32 "lui 0xfffff" 0xFFFF_F000l (result [ Asm.Instr (Isa.Lui (t2, 0xFFFFF)) ] t2);
  let nop = Asm.Instr (Isa.Alui (Isa.Addi, Isa.zero, Isa.zero, 0)) in
  check_i32 "auipc at pc 8" 0x1234_5008l (result [ nop; nop; Asm.Instr (Isa.Auipc (t2, 0x12345)) ] t2);
  check_i32 "auipc wraps at pc 4" 0xFFFF_F004l (result [ nop; Asm.Instr (Isa.Auipc (t2, 0xFFFFF)) ] t2);
  (* jalr clears bit 0 of the target and links pc+4. *)
  List.iter
    (fun (base_v, off) ->
      let _, cpu =
        run_program
          [
            Asm.Li (t0, base_v);
            Asm.Instr (Isa.Jalr (Isa.ra, t0, off));
            Asm.Li (t1, 111l);
            Asm.Instr Isa.Ebreak;
            Asm.Li (t1, 222l);
            Asm.Instr Isa.Ebreak;
          ]
      in
      let what = Printf.sprintf "jalr ra, %d(t0=%ld)" off base_v in
      check_i32 (what ^ " lands on the even target") 222l (Cpu.read_reg cpu t1);
      check_i32 (what ^ " links pc+4") 8l (Cpu.read_reg cpu Isa.ra))
    [ (17l, 0); (16l, 1); (15l, 2) ]

(* Per-class cycle charge: each row runs [instr; ebreak] and expects
   (picorv32, pipelined) cycles for the instruction alone. *)
let test_cpu_cycle_charges () =
  let ebreak = (3, 1) in
  List.iter
    (fun (i, slow, fast) ->
      List.iter
        (fun (profile, want, ebreak_cost) ->
          let cpu = Cpu.create ~profile () in
          Cpu.load_words cpu ~addr:0 [| Isa.encode i; Isa.encode Isa.Ebreak |];
          check_bool "halted" true (Cpu.run cpu = Cpu.Halted);
          let extra = if i = Isa.Ebreak then 0 else ebreak_cost in
          check_int (Printf.sprintf "%s on %s" (Isa.to_string i) profile.Cpu.profile_name) want
            (Cpu.cycles cpu - extra))
        [ (Cpu.picorv32, slow, fst ebreak); (Cpu.pipelined, fast, snd ebreak) ])
    Isa.
      [
        (Lui (t0, 1), 3, 1); (Auipc (t0, 1), 3, 1); (Alui (Addi, t0, t0, 1), 3, 1);
        (Alur (Radd, t0, t0, t0), 3, 1); (Alur (Rsra, t0, t0, t0), 3, 1); (Jal (zero, 4), 5, 2);
        (Jalr (zero, zero, 4), 5, 2); (Branch (Beq, zero, zero, 4), 5, 2);
        (Branch (Bne, zero, zero, 8), 3, 1); (Load (W, false, t0, zero, 0x100), 5, 2);
        (Load (B, true, t0, zero, 0x100), 5, 2); (Store (H, zero, zero, 0x100), 5, 2);
        (Alur (Rmul, t0, t0, t0), 5, 2); (Alur (Rmulhu, t0, t0, t0), 5, 2);
        (Alur (Rdiv, t0, t0, t0), 40, 20); (Alur (Rremu, t0, t0, t0), 40, 20); (Ecall, 10, 4);
        (Ebreak, 3, 1);
      ]

(* A program that patches one of its own loop instructions, first with
   a whole-word sw, then with an sh of its upper half: each rewrite must
   take effect the next time the loop body runs. *)
let test_cpu_self_modifying () =
  let t0, t3, t4, t5, t6, s0 = Isa.(t0, t3, t4, t5, t6, s0) in
  let add n = Isa.Alui (Isa.Addi, t3, t3, n) in
  let program patch =
    [
      Asm.Li (s0, 0l);
      Asm.Li (t3, 0l);
      Asm.Li (t4, Int32.of_int patch);
      Asm.Li (t5, Isa.encode (add 100));
      Asm.Li (t6, Int32.shift_right_logical (Isa.encode (add 1000)) 16);
      Asm.Label "patch";
      Asm.Instr (add 1);
      Asm.Instr (Isa.Alui (Isa.Addi, s0, s0, 1));
      Asm.Li (t0, 1l);
      Asm.Bj (Isa.Bne, s0, t0, "second");
      Asm.Instr (Isa.Store (Isa.W, t5, t4, 0));
      Asm.J "patch";
      Asm.Label "second";
      Asm.Li (t0, 2l);
      Asm.Bj (Isa.Bne, s0, t0, "done");
      Asm.Instr (Isa.Store (Isa.H, t6, t4, 2));
      Asm.J "patch";
      Asm.Label "done";
      Asm.Instr Isa.Ebreak;
    ]
  in
  let patch = List.assoc "patch" (Asm.assemble (program 0)).Asm.symbols in
  let img = Asm.assemble (program patch) in
  check_int "layout is stable" patch (List.assoc "patch" img.Asm.symbols);
  let cpu = Cpu.create () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  check_bool "halted" true (Cpu.run cpu = Cpu.Halted);
  check_i32 "three passes" 3l (Cpu.read_reg cpu s0);
  check_i32 "+1, then the sw patch, then the sh patch" 1101l (Cpu.read_reg cpu t3);
  check_i32 "memory holds the last patch" (Isa.encode (add 1000)) (Cpu.read_word cpu patch)

(* The host rewrites text between two runs, as the ecall runtime may. *)
let test_cpu_host_write_over_text () =
  let t0, t1, t2 = Isa.(t0, t1, t2) in
  let img =
    Asm.assemble
      [
        Asm.Li (t1, Int32.of_int Cpu.mmio_in_base);
        Asm.Label "loop";
        Asm.Instr (Isa.Load (Isa.W, false, t2, t1, 0));
        Asm.Label "bump";
        Asm.Instr (Isa.Alui (Isa.Addi, t0, t0, 1));
        Asm.J "loop";
      ]
  in
  let tokens = ref 1 in
  let cpu =
    Cpu.create
      ~stream_read:(fun _ -> if !tokens > 0 then (decr tokens; Some 0l) else None)
      ()
  in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  check_bool "stalls after one pass" true (Cpu.run cpu = Cpu.Stalled);
  check_i32 "old instruction ran" 1l (Cpu.read_reg cpu t0);
  Cpu.write_word cpu (List.assoc "bump" img.Asm.symbols) (Isa.encode (Isa.Alui (Isa.Addi, t0, t0, 10)));
  tokens := 1;
  check_bool "stalls after the second pass" true (Cpu.run cpu = Cpu.Stalled);
  check_i32 "new instruction ran" 11l (Cpu.read_reg cpu t0)

let test_cpu_stalls_on_empty_stream () =
  let img =
    Asm.assemble
      [ Asm.Li (Isa.t0, Int32.of_int Cpu.mmio_in_base); Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)); Asm.Instr Isa.Ebreak ]
  in
  let data = ref None in
  let cpu = Cpu.create ~stream_read:(fun _ -> !data) () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  check_bool "stalled" true (Cpu.run cpu = Cpu.Stalled);
  data := Some 99l;
  check_bool "halts after data" true (Cpu.run cpu = Cpu.Halted);
  check_i32 "read value" 99l (Cpu.read_reg cpu Isa.t1)

let test_cpu_traps_on_bad_access () =
  let status, _ =
    run_program [ Asm.Li (Isa.t0, 0x7FFFFF0l); Asm.Instr (Isa.Load (Isa.W, false, Isa.t1, Isa.t0, 0)) ]
  in
  check_bool "trapped" true (match status with Cpu.Trapped _ -> true | _ -> false)

let test_cpu_timing_model () =
  let _, cpu = run_program [ Asm.Li (Isa.t0, 1l); Asm.Instr Isa.Ebreak ] in
  check_bool "multi-cycle instructions" true (Cpu.cycles cpu >= Cpu.retired cpu)

(* ---------- codegen + softcore co-simulation ---------- *)

let u32 = Dtype.word

let cosim op inputs_per_port =
  (* interpreter reference *)
  let mk_queues ports vals = List.map2 (fun (p : Op.port) v -> (p.Op.port_name, v)) ports vals in
  let in_qs =
    mk_queues op.Op.inputs
      (List.map
         (fun vs ->
           let q = Queue.create () in
           List.iter (fun x -> Queue.push (Value.of_int u32 x) q) vs;
           q)
         inputs_per_port)
  in
  let out_qs = List.map (fun (p : Op.port) -> (p.Op.port_name, Queue.create ())) op.Op.outputs in
  Interp.run_operator op (Interp.queue_io ~inputs:in_qs ~outputs:out_qs);
  let expect = List.map (fun (_, q) -> List.map Value.to_int (List.of_seq (Queue.to_seq q))) out_qs in
  (* softcore *)
  let prog = Codegen.compile op in
  let in_qs2 =
    List.map
      (fun vs ->
        let q = Queue.create () in
        List.iter (fun x -> Queue.push (Int32.of_int x) q) vs;
        q)
      inputs_per_port
  in
  let out_bufs = List.map (fun _ -> Queue.create ()) op.Op.outputs in
  let cpu =
    Softcore.boot prog
      ~stream_read:(fun i ->
        let q = List.nth in_qs2 i in
        if Queue.is_empty q then None else Some (Queue.pop q))
      ~stream_write:(fun i v ->
        Queue.push v (List.nth out_bufs i);
        true)
  in
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Stalled -> Alcotest.fail "softcore starved"
  | Cpu.Trapped tr -> Alcotest.failf "softcore trap: %s" (Cpu.describe_trap tr)
  | Cpu.Running -> Alcotest.fail "did not halt");
  let got =
    List.map (fun q -> List.map (fun v -> Int32.to_int v land 0xFFFFFFFF) (List.of_seq (Queue.to_seq q))) out_bufs
  in
  (List.map (List.map (fun x -> x land 0xFFFFFFFF)) expect, got)

let axpb_op () =
  Op.make ~name:"axpb" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" (Dtype.SInt 32) ]
    [
      Op.For
        {
          var = "i";
          lo = 0;
          hi = 10;
          pipeline = false;
          body =
            [
              Op.Read (Op.LVar "x", "in");
              Op.Write ("out", Expr.(Bin (Add, Bin (Mul, var "x", int (Dtype.SInt 32) 3), int (Dtype.SInt 32) 5)));
            ];
        };
    ]

let test_codegen_simple () =
  let expect, got = cosim (axpb_op ()) [ List.init 10 (fun i -> i * 7) ] in
  Alcotest.(check (list (list int))) "3x+5" expect got

let test_codegen_fixed_division () =
  let fx = Dtype.SFixed { width = 32; int_bits = 17 } in
  let op =
    Op.make ~name:"fdiv" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.scalar "a" fx; Op.scalar "b" fx; Op.scalar "q" fx ]
      [
        Op.For
          {
            var = "i";
            lo = 0;
            hi = 4;
            pipeline = false;
            body =
              [
                Op.Read (Op.LVar "a", "in");
                Op.Read (Op.LVar "b", "in");
                Op.If
                  ( Expr.(Bin (Eq, var "b", float_ fx 0.0)),
                    [ Op.Assign (Op.LVar "q", Expr.float_ fx 0.0) ],
                    [ Op.Assign (Op.LVar "q", Expr.(Bin (Div, var "a", var "b"))) ] );
                Op.Write ("out", Expr.var "q");
              ];
          };
      ]
  in
  let fxw x = Value.to_int (Value.bitcast u32 (Value.of_float fx x)) in
  let ins = [ fxw 10.5; fxw 3.0; fxw (-8.25); fxw 2.0; fxw 1.0; fxw 0.0; fxw 100.0; fxw 0.125 ] in
  let expect, got = cosim op [ ins ] in
  Alcotest.(check (list (list int))) "fixed division" expect got

let test_codegen_arrays_and_select () =
  let i32 = Dtype.SInt 32 in
  let op =
    Op.make ~name:"arr" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.array "buf" i32 8; Op.scalar "m" i32 ]
      [
        Op.For
          { var = "i"; lo = 0; hi = 8; pipeline = false; body = [ Op.Read (Op.LIdx ("buf", Expr.var "i"), "in") ] };
        Op.Assign (Op.LVar "m", Expr.int i32 (-1000));
        Op.For
          {
            var = "i";
            lo = 0;
            hi = 8;
            pipeline = false;
            body =
              [
                Op.Assign
                  (Op.LVar "m", Expr.(Select (Idx ("buf", var "i") > var "m", Idx ("buf", var "i"), var "m")));
              ];
          };
        Op.Write ("out", Expr.var "m");
      ]
  in
  let expect, got = cosim op [ [ 3; 9; 1; 200; 5; 0; 199; 42 ] ] in
  Alcotest.(check (list (list int))) "array max" expect got

let test_codegen_printf () =
  let op =
    Op.make ~name:"dbg" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.scalar "x" u32 ]
      [ Op.Read (Op.LVar "x", "in"); Op.Printf ("x is", [ Expr.var "x" ]); Op.Write ("out", Expr.var "x") ]
  in
  let prog = Codegen.compile op in
  let printed = ref [] in
  let q = Queue.create () in
  Queue.push 17l q;
  let cpu =
    Softcore.boot prog
      ~stream_read:(fun _ -> if Queue.is_empty q then None else Some (Queue.pop q))
      ~stream_write:(fun _ _ -> true)
      ~printf:(fun s -> printed := s :: !printed)
  in
  ignore (Cpu.run cpu);
  Alcotest.(check (list string)) "printf routed" [ "x is 17" ] !printed

let test_codegen_rejects_wide_locals () =
  let wide = Dtype.SFixed { width = 96; int_bits = 40 } in
  let op =
    Op.make ~name:"wide" ~inputs:[] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.scalar "x" wide ]
      [ Op.Write ("out", Expr.var "x") ]
  in
  match Codegen.compile op with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Codegen.Unsupported _ -> ()

let test_profiles () =
  (* Same binary, two overlay processors: identical results, fewer
     cycles on the pipelined core (the paper's Sec 9 overlay menu). *)
  let op =
    Op.make ~name:"p" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.scalar "x" (Dtype.SInt 32) ]
      [
        Op.For
          {
            var = "i";
            lo = 0;
            hi = 20;
            pipeline = false;
            body =
              [
                Op.Read (Op.LVar "x", "in");
                Op.Write ("out", Expr.(Bin (Mul, var "x", var "x")));
              ];
          };
      ]
  in
  let prog = Codegen.compile op in
  let run profile =
    let q = Queue.create () in
    for i = 1 to 20 do
      Queue.push (Int32.of_int i) q
    done;
    let out = Queue.create () in
    let cpu =
      Softcore.boot ~profile prog
        ~stream_read:(fun _ -> if Queue.is_empty q then None else Some (Queue.pop q))
        ~stream_write:(fun _ v -> Queue.push v out; true)
    in
    (match Cpu.run cpu with Cpu.Halted -> () | _ -> Alcotest.fail "no halt");
    (List.of_seq (Queue.to_seq out), Cpu.cycles cpu)
  in
  let slow_out, slow_cycles = run Cpu.picorv32 in
  let fast_out, fast_cycles = run Cpu.pipelined in
  check_bool "same results" true (slow_out = fast_out);
  check_bool "pipelined at least 2x faster" true (2 * fast_cycles <= slow_cycles)

let test_elf_roundtrip () =
  let op =
    Op.make ~name:"tiny" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
      ~locals:[ Op.scalar "x" u32 ]
      [ Op.Read (Op.LVar "x", "in"); Op.Write ("out", Expr.var "x") ]
  in
  let prog = Codegen.compile op in
  let packed = Elf.pack ~page:7 prog in
  let back = Elf.unpack packed.Elf.blob in
  check_int "page" 7 back.Elf.page;
  check_bool "program preserved" true (back.Elf.program.Codegen.op_name = "tiny");
  (* Corruption must be detected. *)
  let corrupt = Bytes.of_string packed.Elf.blob in
  Bytes.set corrupt (Bytes.length corrupt - 1) 'X';
  match Elf.unpack (Bytes.to_string corrupt) with
  | _ -> Alcotest.fail "expected CRC failure"
  | exception Invalid_argument _ -> ()

(* Errors raised inside the ecall runtime (a bad site index in a7, a
   slot pointer outside memory) trap at the ecall and charge nothing. *)
let test_ecall_errors_trap () =
  let base = Codegen.compile (axpb_op ()) in
  let case name setup =
    let items = setup @ [ Asm.Label "call"; Asm.Instr Isa.Ecall; Asm.Instr Isa.Ebreak ] in
    let img = Asm.assemble items in
    let cpu =
      Softcore.boot { base with Codegen.image = img } ~stream_read:(fun _ -> None) ~stream_write:(fun _ _ -> true)
    in
    match Cpu.run cpu with
    | Cpu.Trapped tr ->
        check_int (name ^ ": trap pc") (List.assoc "call" img.Asm.symbols) tr.Cpu.trap_pc;
        check_i32 (name ^ ": trap word") (Isa.encode Isa.Ecall) tr.Cpu.trap_instr;
        (* Every setup instruction is an ALU op at 3 cycles. *)
        check_int (name ^ ": no cycles charged") (3 * tr.Cpu.trap_pc / 4) tr.Cpu.trap_cycle;
        check_int (name ^ ": core cycles") tr.Cpu.trap_cycle (Cpu.cycles cpu)
    | _ -> Alcotest.failf "%s: expected a trap" name
    | exception e -> Alcotest.failf "%s: escaped as %s" name (Printexc.to_string e)
  in
  case "bad site" [ Asm.Li (Isa.a7, Int32.of_int (Array.length base.Codegen.meta)) ];
  case "slot outside memory" [ Asm.Li (Isa.a7, 0l); Asm.Li (Isa.a1, 0x7FFF_FFF0l); Asm.Li (Isa.a2, 0x7FFF_FFF0l) ]

(* The predecoded loop allocates nothing per instruction: a >1M
   instruction ALU/branch/load-store loop stays under 0.01 minor words
   per retired instruction. *)
let test_cpu_loop_allocation () =
  let t0, t1, t2, t3, t4 = Isa.(t0, t1, t2, t3, t4) in
  let img =
    Asm.assemble
      [
        Asm.Li (t0, 0l);
        Asm.Li (t1, 160_000l);
        Asm.Li (t2, 0x8000l);
        Asm.Label "loop";
        Asm.Instr (Isa.Load (Isa.W, false, t3, t2, 0));
        Asm.Instr (Isa.Alui (Isa.Addi, t3, t3, 3));
        Asm.Instr (Isa.Alur (Isa.Rxor, t4, t3, t0));
        Asm.Instr (Isa.Store (Isa.W, t4, t2, 4));
        Asm.Instr (Isa.Store (Isa.B, t3, t2, 0));
        Asm.Instr (Isa.Alui (Isa.Addi, t0, t0, 1));
        Asm.Bj (Isa.Blt, t0, t1, "loop");
        Asm.Instr Isa.Ebreak;
      ]
  in
  let cpu = Cpu.create () in
  Cpu.load_words cpu ~addr:0 img.Asm.words;
  let before = Gc.minor_words () in
  let status = Cpu.run cpu in
  let words = Gc.minor_words () -. before in
  check_bool "halted" true (status = Cpu.Halted);
  check_bool "ran at least 1M instructions" true (Cpu.retired cpu >= 1_000_000);
  let per = words /. float_of_int (Cpu.retired cpu) in
  if per >= 0.01 then Alcotest.failf "%.3f minor words per instruction (%.0f total)" per words

(* Random straight-line operators: interpreter and softcore must agree
   bit for bit. *)
let prop_cosim_random_ops =
  let gen =
    QCheck.Gen.(
      let binop_int = oneofl [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Rem; Expr.And; Expr.Or; Expr.Xor ] in
      let binop_fx = oneofl [ Expr.Add; Expr.Sub; Expr.Mul ] in
      let dtype = oneofl [ Dtype.SInt 32; Dtype.UInt 16; Dtype.SFixed { width = 32; int_bits = 17 }; Dtype.SInt 8 ] in
      dtype >>= fun dt ->
      (if Dtype.is_integer dt then binop_int else binop_fx) >>= fun op1 ->
      (if Dtype.is_integer dt then binop_int else binop_fx) >>= fun op2 ->
      list_size (int_range 2 6) (int_bound 0xFFFF) >>= fun data ->
      return (dt, op1, op2, data))
  in
  QCheck.Test.make ~name:"softcore matches interpreter on random ops" ~count:60
    (QCheck.make gen)
    (fun (dt, op1, op2, data) ->
      let n = List.length data / 2 in
      QCheck.assume (n > 0);
      let op =
        Op.make ~name:"rand" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
          ~locals:[ Op.scalar "a" dt; Op.scalar "b" dt; Op.scalar "r" dt ]
          [
            Op.For
              {
                var = "i";
                lo = 0;
                hi = n;
                pipeline = false;
                body =
                  [
                    Op.Read (Op.LVar "a", "in");
                    Op.Read (Op.LVar "b", "in");
                    Op.Assign (Op.LVar "r", Expr.(Bin (op2, Bin (op1, var "a", var "b"), var "a")));
                    Op.Write ("out", Expr.var "r");
                  ];
              };
          ]
      in
      let expect, got = cosim op [ List.filteri (fun i _ -> i < 2 * n) data ] in
      expect = got)

let suite =
  [
    ("isa encode/decode roundtrip", `Quick, test_isa_roundtrip);
    ("isa rejects bad immediates", `Quick, test_isa_rejects_bad_imm);
    ("asm labels", `Quick, test_asm_labels);
    ("asm undefined label", `Quick, test_asm_undefined_label);
    ("asm long-distance branch", `Quick, test_asm_long_branch);
    ("asm li wide immediate", `Quick, test_asm_li_wide);
    ("cpu arithmetic", `Quick, test_cpu_arith);
    ("cpu branch loop", `Quick, test_cpu_loop);
    ("cpu memory", `Quick, test_cpu_mem);
    ("cpu RISC-V division semantics", `Quick, test_cpu_division_semantics);
    ("cpu RV32IM semantics table", `Quick, test_cpu_semantics_table);
    ("cpu per-class cycle charges", `Quick, test_cpu_cycle_charges);
    ("cpu self-modifying code", `Quick, test_cpu_self_modifying);
    ("cpu host write over text", `Quick, test_cpu_host_write_over_text);
    ("cpu stalls on empty stream", `Quick, test_cpu_stalls_on_empty_stream);
    ("cpu traps on bad access", `Quick, test_cpu_traps_on_bad_access);
    ("cpu timing model", `Quick, test_cpu_timing_model);
    ("codegen 3x+5", `Quick, test_codegen_simple);
    ("codegen fixed-point division", `Quick, test_codegen_fixed_division);
    ("codegen arrays and select", `Quick, test_codegen_arrays_and_select);
    ("codegen printf to host", `Quick, test_codegen_printf);
    ("codegen rejects >64-bit locals", `Quick, test_codegen_rejects_wide_locals);
    ("overlay processor profiles", `Quick, test_profiles);
    ("elf pack/unpack + CRC", `Quick, test_elf_roundtrip);
    ("softcore ecall runtime errors trap", `Quick, test_ecall_errors_trap);
    ("cpu loop allocates nothing per instruction", `Quick, test_cpu_loop_allocation);
    QCheck_alcotest.to_alcotest prop_cosim_random_ops;
  ]
