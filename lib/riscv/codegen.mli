(** The -O0 compiler: IR operator → RV32IM program (Fig. 5's
    riscv-gcc caller).

    Control flow, loops, stream I/O and addressing compile to native
    RV32 instructions. Arbitrary-precision arithmetic compiles to calls
    into the firmware ap-runtime (the paper's memory-efficient
    ap_int/ap_fixed compatibility library, §5.2): each call site is an
    [ecall] carrying a site index; the runtime handler computes with
    the same {!Pld_ir.Value} semantics as the reference interpreter and
    charges a calibrated soft-library cycle cost. This keeps -O0
    bit-exact with the interpreter and the FPGA flows.

    Memory layout (192 KB unified memory):
    - text at 0x0
    - variable slots + constant pool at 0x10000
    - expression temporaries (32 B each) at 0x1C000
    - operand-address spill cells at 0x2C000 *)

open Pld_ir

type site =
  | Sbin of Expr.binop * Dtype.t * Dtype.t
  | Sun of Expr.unop * Dtype.t
  | Scast of Dtype.t * Dtype.t  (** src, dst *)
  | Sbitcast of Dtype.t * Dtype.t
  | Sprint of string * Dtype.t list

type program = {
  op_name : string;
  image : Asm.image;
  data_init : (int * int32 array) list;  (** address, words *)
  meta : site array;
  var_layout : (string * int) list;
  footprint_bytes : int;  (** code + data, the Tab-in-§5.2 30-60 KB *)
  port_map : (string * int) list;  (** port name → MMIO stream index *)
}

exception Unsupported of string
(** Raised for operators outside the -O0 subset (locals wider than 64
    bits, out-of-memory footprints, select arms of different types). *)

val compile : Op.t -> program

val words_of_value : Value.t -> int32 array
(** A slot's contents: the value's raw pattern as little-endian 32-bit
    words, zero above its width. *)

val cost_of_site : site -> int
(** Cycle cost charged by the firmware runtime for one call. *)
