(* Same single source, two targets (§5): compile one operator both to a
   PicoRV32 softcore (real RV32IM code, shown disassembled) and to an
   FPGA page, and check the outputs are bit-identical while the cycle
   counts differ by orders of magnitude.

     dune exec examples/softcore_migration.exe *)

open Pld_ir
module Riscv = Pld_riscv

let fx = Dtype.SFixed { width = 32; int_bits = 17 }
let n = 32

let cf = Expr.float_ fx 0.75

(* A saturating multiply-accumulate operator with fixed-point types. *)
let mac =
  Op.make ~name:"mac" ~inputs:[ Op.word_port "in" ] ~outputs:[ Op.word_port "out" ]
    ~locals:[ Op.scalar "x" fx; Op.scalar "acc" fx ]
    [
      Op.Assign (Op.LVar "acc", Expr.float_ fx 0.0);
      Op.For
        {
          var = "i";
          lo = 0;
          hi = n;
          pipeline = true;
          body =
            [
              Op.Read (Op.LVar "x", "in");
              Op.Printf ("acc update at", [ Expr.var "i" ]);
              Op.Assign (Op.LVar "acc", Expr.(var "acc" + (var "x" * cf))) ;
              Op.If
                (Expr.(var "acc" > float_ fx 100.0),
                 [ Op.Assign (Op.LVar "acc", Expr.float_ fx 100.0) ],
                 []);
              Op.Write ("out", Expr.var "acc");
            ];
        };
    ]

let () =
  let words =
    List.init n (fun i -> Value.bitcast Dtype.word (Value.of_float fx (float_of_int i *. 0.5)))
  in
  (* FPGA page view: HLS report. *)
  let impl = Pld_hls.Hls_compile.compile mac in
  print_endline (Pld_hls.Hls_compile.report impl);
  (* Softcore view: the compiled RV32 binary. *)
  let prog = Riscv.Codegen.compile mac in
  Printf.printf "\n-O0 binary: %d instructions, %d ap-runtime call sites, footprint %d bytes\n"
    (Array.length prog.Riscv.Codegen.image.Riscv.Asm.words)
    (Array.length prog.Riscv.Codegen.meta)
    prog.Riscv.Codegen.footprint_bytes;
  print_endline "first instructions of the operator's text section:";
  let dis = Riscv.Asm.disassemble prog.Riscv.Codegen.image in
  String.split_on_char '\n' dis |> List.filteri (fun i _ -> i < 12) |> List.iter print_endline;
  (* Run both. *)
  let interp_out =
    let inq = Queue.create () and outq = Queue.create () in
    List.iter (fun v -> Queue.push v inq) words;
    Interp.run_operator mac (Interp.queue_io ~inputs:[ ("in", inq) ] ~outputs:[ ("out", outq) ]);
    List.map Value.to_int (List.of_seq (Queue.to_seq outq))
  in
  let inq = Queue.create () in
  List.iter (fun v -> Queue.push (Int32.of_int (Value.to_int v)) inq) words;
  let outs = Queue.create () in
  let printed = ref 0 in
  let cpu =
    Riscv.Softcore.boot prog
      ~stream_read:(fun _ -> if Queue.is_empty inq then None else Some (Queue.pop inq))
      ~stream_write:(fun _ v -> Queue.push v outs; true)
      ~printf:(fun _ -> incr printed)
  in
  (match Riscv.Cpu.run cpu with
  | Riscv.Cpu.Halted -> ()
  | _ -> failwith "softcore did not halt");
  let soft_out = List.map (fun v -> Int32.to_int v land 0xFFFFFFFF) (List.of_seq (Queue.to_seq outs)) in
  Printf.printf "\nsoftcore: %d instructions retired, %d cycles, %d printf lines\n" (Riscv.Cpu.retired cpu)
    (Riscv.Cpu.cycles cpu) !printed;
  Printf.printf "bit-exact with the hardware semantics: %b\n"
    (List.map (fun x -> x land 0xFFFFFFFF) interp_out = soft_out);
  let fpga_cycles = impl.Pld_hls.Hls_compile.perf.Pld_hls.Sched.cycles_per_firing in
  Printf.printf "FPGA page: %d cycles per frame @200MHz; softcore: %d cycles -> %.0fx slower (\"%s\")\n"
    fpga_cycles (Riscv.Cpu.cycles cpu)
    (float_of_int (Riscv.Cpu.cycles cpu) /. float_of_int fpga_cycles)
    "the price of the -O0 instant compile"
